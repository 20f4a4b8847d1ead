"""Random-lineup baselines, percentile placement, bootstrap CIs, and tests.

The hypothesis-test battery covers the heteroscedastic (Welch) t-test,
Cohen's d, and a one-sample Kolmogorov-Smirnov normality check with
moments estimated from the sample.  Percentiles use the mid-rank
definition: ties count at half weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import POSITIONS, RULES, Rule, names_file, read_column, read_csv
from .errors import ConfigError, NoFeasibleSampleError, SchemaError, ZeroVarianceError
from .optimizer import FLEX_CONFIGS, LINEUP_SIZE, MAX_COUNTS, POSITION_COUNTS, shortfalls
from .seeds import mix64
from .special import central_interval, kolmogorov_sf, linear_quantiles, normal_cdf, student_t_sf2

MAX_REJECTIONS = 10_000
# The contest file's fpts: a lineup's score, the sum of its players' FPTS.
CONTEST_FPTS = Rule(
    float, False, LINEUP_SIZE * RULES["fpts"].low, LINEUP_SIZE * RULES["fpts"].high
)
# Fewest observations the KS normality test takes.
KS_MIN_SAMPLES = 5
# Most bin widths one player's samples may span in their histogram.
MAX_HISTOGRAM_BINS = 10_000


@dataclass
class TestResult:
    statistic: float
    p_value: float
    df: Optional[float] = None


def _sample_var(x: np.ndarray) -> float:
    return float(np.var(x, ddof=1))


def welch_t_test(a, b) -> TestResult:
    """Two-sided unpaired heteroscedastic t-test with Welch-Satterthwaite df."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    va, vb = _sample_var(a), _sample_var(b)
    if va == 0.0 and vb == 0.0:
        raise ZeroVarianceError("both samples have zero variance")
    sa, sb = va / len(a), vb / len(b)
    t = (float(a.mean()) - float(b.mean())) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (
        sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1)
    )
    return TestResult(statistic=t, p_value=student_t_sf2(t, df), df=df)


def cohens_d(a, b) -> float:
    """Pooled-variance standardized mean difference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    na, nb = len(a), len(b)
    pooled = ((na - 1) * _sample_var(a) + (nb - 1) * _sample_var(b)) / (na + nb - 2)
    if pooled == 0.0:
        raise ZeroVarianceError("pooled variance is zero")
    return (float(a.mean()) - float(b.mean())) / math.sqrt(pooled)


def ks_normality(sample) -> TestResult:
    """One-sample KS test against a normal fitted to the sample moments.

    The p-value uses the asymptotic Kolmogorov distribution and is
    approximate because the normal's parameters are estimated.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} observations, got {n}")
    sd = math.sqrt(_sample_var(x))
    if sd == 0.0:
        raise ZeroVarianceError("sample has zero variance")
    mean = float(x.mean())
    cdf = np.fromiter((normal_cdf((v - mean) / sd) for v in x), dtype=np.float64, count=n)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return TestResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(n) * d))


def _ranks(score: float, samples) -> tuple[int, int, int]:
    """(below, equal, n): how many samples fall below and tie the score."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < 1:
        raise ValueError("population is empty")
    return int(np.sum(samples < score)), int(np.sum(samples == score)), len(samples)


def percentile(score: float, samples) -> float:
    """Mid-rank percentile of score within the samples, in [0, 100]."""
    below, equal, n = _ranks(score, samples)
    return 100.0 * (below + 0.5 * equal) / n


def bootstrap_ci(
    score: float,
    samples,
    resamples: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap percentile CI: central quantiles over resampled percentiles.

    Each resample draws n values with replacement; the resample percentile
    depends only on how many drawn values fall below / tie the score, so the
    draws are realized as multinomial category counts.  Bounds are widened
    to contain the point estimate and clipped to [0, 100].
    """
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    below, equal, n = _ranks(score, samples)
    pvals = np.array([below, equal, n - below - equal], dtype=np.float64) / n
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, pvals, size=resamples)
    percs = 100.0 * (counts[:, 0] + 0.5 * counts[:, 1]) / n
    lo, hi = central_interval(percs, level)
    point = 100.0 * (below + 0.5 * equal) / n
    return max(0.0, min(float(lo), point)), min(100.0, max(float(hi), point))


# Attempts per seeded block of the random baseline.
_BLOCK = 4096


def _draw_block(rng, groups, keep, config_ok, salary, band):
    """One block of attempts: (rows, in_band), rows a (_BLOCK, 9) index array."""
    config = rng.integers(0, len(POSITION_COUNTS), size=_BLOCK)
    cols = []
    for pos in POSITIONS:
        ids = groups[pos]
        k = min(MAX_COUNTS[pos], len(ids))
        # Pick j is uniform over the players not picked yet: a draw below
        # len(ids) - j, shifted past each earlier pick in ascending order.
        picks = np.empty((_BLOCK, k), dtype=np.intp)
        for j in range(k):
            u = rng.integers(0, len(ids) - j, size=_BLOCK)
            for taken in np.sort(picks[:, :j], axis=1).T:
                u += u >= taken
            picks[:, j] = u
        # Pad a short position with its first pick; the configurations
        # needing the padding are never in band.
        cols.append(np.pad(ids[picks], ((0, 0), (0, MAX_COUNTS[pos] - k)), mode="edge"))
    rows = np.concatenate(cols, axis=1)[keep[config]].reshape(_BLOCK, -1)
    total = salary[rows].sum(axis=1)
    return rows, config_ok[config] & (total >= band[0]) & (total <= band[1])


def random_lineups(position, salary, salary_cap: int, count: int, min_salary: int, seed: int):
    """`count` uniform slot-wise random lineups with salary in [min_salary, cap],
    as blocks of rows.

    The pool is two parallel columns, each player's position and salary;
    each block is an (n, 9) array of indices into them.  Per attempt: a
    flex configuration uniformly among the three, then per position uniform
    picks without replacement from that position's players in array order.
    Attempts run in blocks of _BLOCK; block b draws from
    default_rng(mix64(seed, b)) and yields its in-band attempts in order, so
    a smaller count gives a prefix of a larger one.  An attempt at a
    configuration the pool cannot fill (``shortfalls``) is a miss.  A pool
    that fills no configuration, or MAX_REJECTIONS consecutive misses,
    raise NoFeasibleSampleError.
    """
    if min_salary > salary_cap:
        raise ValueError("min_salary exceeds the salary cap")
    position = np.asarray(position)
    groups = {p: np.flatnonzero(position == p) for p in POSITIONS}
    short = shortfalls({p: len(ids) for p, ids in groups.items()})
    config_ok = np.array([not s for s in short])
    if not config_ok.any():
        raise NoFeasibleSampleError(
            "the pool fills no flex configuration: "
            + "; ".join(f"{config}: {', '.join(s)}" for config, s in zip(FLEX_CONFIGS, short))
        )
    # A column per slot a position can need; each configuration keeps the
    # first counts[pos] columns of each position.
    keep = np.array(
        [[j < counts[p] for p in POSITIONS for j in range(MAX_COUNTS[p])]
         for counts in POSITION_COUNTS]
    )
    salary = np.asarray(salary, dtype=np.int64)
    band = (min_salary, salary_cap)

    misses, need = 0, count
    for block in itertools.count():
        rng = np.random.default_rng(mix64(seed, block))
        rows, ok = _draw_block(rng, groups, keep, config_ok, salary, band)
        hits = np.flatnonzero(ok)[:need]
        need -= len(hits)
        # Runs of misses lie between the last hit before this block, each
        # hit, and the block's end while draws are still needed.
        marks = np.concatenate(([-1 - misses], hits, [_BLOCK] if need else []))
        if np.any(np.diff(marks) > MAX_REJECTIONS):
            raise NoFeasibleSampleError(
                f"{MAX_REJECTIONS} consecutive draws missed the salary band "
                f"[{min_salary}, {salary_cap}]"
            )
        yield rows[hits]
        if not need:
            return
        misses = _BLOCK - 1 - int(marks[-2])


def random_population(
    position, salary, fpts, salary_cap: int, count: int, min_salary: int, seed: int
) -> np.ndarray:
    """The FPTS totals of ``random_lineups``' `count` lineups, in draw order.

    ``fpts`` is the pool's third column.  Each block of index rows is
    summed as it is drawn, one row at a time (``fpts[rows].sum(axis=1)``),
    so no more than one block of lineups is held.
    """
    fpts = np.asarray(fpts, dtype=np.float64)
    scores, done = np.empty(count), 0
    for rows in random_lineups(position, salary, salary_cap, count, min_salary, seed):
        scores[done : done + len(rows)] = fpts[rows].sum(axis=1)
        done += len(rows)
    return scores


def boxplot_stats(samples) -> dict:
    """Quartiles plus whiskers at the most extreme points within 1.5 IQR."""
    x = np.asarray(samples, dtype=np.float64)
    q1, med, q3 = linear_quantiles(x, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = x[(x >= lo_fence) & (x <= hi_fence)]
    return {
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "whisker_low": float(inside.min()),
        "whisker_high": float(inside.max()),
        "mean": float(x.mean()),
        "n": int(len(x)),
    }


def histogram_bins(samples, bin_width: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width bins aligned to multiples of bin_width; returns (edges, counts).

    ConfigError, before any division by the width (a tiny one overflows),
    when the samples span more than MAX_HISTOGRAM_BINS widths, or when the
    width is below 2**-52 of their magnitude (or of 1): edges would merge.
    Also ConfigError, before the edges are built, when a huge width puts
    the edges' reach beyond the float range.
    """
    x = np.asarray(samples, dtype=np.float64)
    lo_x, hi_x = float(x.min()), float(x.max())
    span, magnitude = hi_x - lo_x, max(-lo_x, hi_x, 1.0)
    if span > MAX_HISTOGRAM_BINS * bin_width or magnitude > 2.0**52 * bin_width:
        raise ConfigError(
            f"report.histogram_bin_width {bin_width!r} is too small for samples in "
            f"[{lo_x!r}, {hi_x!r}]: they may span at most {MAX_HISTOGRAM_BINS} widths, "
            "and a width must be at least 2**-52 of their magnitude (or of 1)"
        )
    lo = math.floor(lo_x / bin_width) * bin_width
    hi = math.ceil(hi_x / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    stop = hi + bin_width / 2
    if not math.isfinite(stop - lo):
        raise ConfigError(
            f"report.histogram_bin_width {bin_width!r} is too large for samples in "
            f"[{lo_x!r}, {hi_x!r}]: their bin edges would overflow the float range"
        )
    edges = np.arange(lo, stop, bin_width)
    counts, _ = np.histogram(x, bins=edges)
    return edges, counts


def summarize_population(
    samples, score: float, resamples: int, level: float, seed: int, label: str
) -> dict:
    """The validation battery for one population, as its report entry: the
    score's mid-rank percentile with a bootstrap CI drawn from ``seed``, the
    KS normality test and the boxplot."""
    samples = np.asarray(samples, dtype=np.float64)
    lo, hi = bootstrap_ci(score, samples, resamples=resamples, level=level, seed=seed)
    ks = ks_normality(samples)
    return {
        "label": label,
        "n": len(samples),
        "mean_fpts": float(samples.mean()),
        "percentile": percentile(score, samples),
        "percentile_ci": [lo, hi],
        "ks_statistic": ks.statistic,
        "ks_p_value": ks.p_value,
        "boxplot": boxplot_stats(samples),
    }


def compare_populations(random, real) -> dict:
    """Real-world against random scores: Welch's t-test and Cohen's d."""
    welch = welch_t_test(real, random)
    return {
        "welch_t": {"statistic": welch.statistic, "p_value": welch.p_value, "df": welch.df},
        "cohens_d": cohens_d(real, random),
    }


@names_file
def load_contest_results(path) -> np.ndarray:
    """Read `user_rank,fpts` rows; the nonzero scores, in file order.

    Zero-score users are dropped.  Every SchemaError names the file: an
    empty file, a bad header or row (a score CONTEST_FPTS refuses, say),
    fewer than KS_MIN_SAMPLES nonzero scores, or nonzero scores that are all
    equal.
    """
    scores = []
    for lines, records in read_csv(path, ["user_rank", "fpts"]):
        values, error = read_column(CONTEST_FPTS, "fpts", [fpts for _, fpts in records], lines)
        scores.extend(value for value in values if value != 0.0)
        if error:
            raise error
    if len(scores) < KS_MIN_SAMPLES:
        raise SchemaError(
            f"{len(scores)} nonzero fpts score(s); the real-world population "
            f"needs at least {KS_MIN_SAMPLES}"
        )
    if len(set(scores)) == 1:
        raise SchemaError(
            f"all {len(scores)} nonzero fpts scores are {float(scores[0])!r}; the "
            f"real-world population needs at least two distinct scores"
        )
    return np.array(scores)
