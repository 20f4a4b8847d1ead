"""Random-lineup baselines, percentile placement, bootstrap CIs, and tests.

The hypothesis-test battery covers the heteroscedastic (Welch) t-test,
Cohen's d, and a one-sample Kolmogorov-Smirnov normality check with
moments estimated from the sample.  Percentiles use the mid-rank
definition: ties count at half weight.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import POSITIONS
from .errors import (
    NoFeasibleSampleError,
    PositionShortfallError,
    SchemaError,
    ZeroVarianceError,
)
from .optimizer import FLEX_CONFIGS, POSITION_COUNTS, ContestRules, Lineup, _build_lineup
from .seeds import mix64
from .special import kolmogorov_sf, normal_cdf, student_t_sf2

MAX_REJECTIONS = 10_000


@dataclass
class PopulationStats:
    """An FPTS sample from either random lineups or real-world users."""

    samples: np.ndarray
    label: str  # "random" or "real_world"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("population contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.samples)


@dataclass
class TestResult:
    statistic: float
    p_value: float
    df: Optional[float] = None
    effect_size: Optional[float] = None


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
    if n < 5:
        raise ValueError(f"need at least 5 observations, got {n}")
    sd = math.sqrt(_sample_var(x))
    if sd == 0.0:
        raise ZeroVarianceError("sample has zero variance")
    mean = float(x.mean())
    cdf = np.array([normal_cdf((v - mean) / sd) for v in x])
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return TestResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(n) * d))


def percentile(score: float, population: PopulationStats) -> float:
    """Mid-rank percentile of score within the population, in [0, 100]."""
    samples = population.samples
    if population.n < 1:
        raise ValueError("population is empty")
    below = int(np.sum(samples < score))
    equal = int(np.sum(samples == score))
    return 100.0 * (below + 0.5 * equal) / population.n


def bootstrap_ci(
    score: float,
    population: PopulationStats,
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
    if not 0.0 < level < 1.0:
        raise ValueError(f"level {level} outside (0, 1)")
    n = population.n
    below = int(np.sum(population.samples < score))
    equal = int(np.sum(population.samples == score))
    pvals = np.array([below, equal, n - below - equal], dtype=np.float64) / n
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, pvals, size=resamples)
    percs = 100.0 * (counts[:, 0] + 0.5 * counts[:, 1]) / n
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(percs, [alpha, 1.0 - alpha], method="linear")
    point = percentile(score, population)
    return max(0.0, min(float(lo), point)), min(100.0, max(float(hi), point))


class _LineupSampler:
    """Precomputed pool state shared by every random-lineup draw."""

    def __init__(self, pool, rules: ContestRules, min_salary: int):
        if min_salary > rules.salary_cap:
            raise ValueError("min_salary exceeds the salary cap")
        bad = [c.player_id for c in pool if c.predicted_fpts <= 0.0]
        if bad:
            raise ValueError(f"pool contains zero-FPTS players: {bad[:5]}")
        self.rules = rules
        self.min_salary = min_salary
        self.by_position: dict[str, list] = {}
        for cand in sorted(pool, key=lambda c: c.player_id):
            self.by_position.setdefault(cand.position, []).append(cand)
        available = {p: len(self.by_position.get(p, [])) for p in POSITIONS}
        self.config_ok = [
            all(available[p] >= k for p, k in counts.items()) for counts in POSITION_COUNTS
        ]
        if not any(self.config_ok):
            for pos, k in POSITION_COUNTS[0].items():
                if available[pos] < k:
                    raise PositionShortfallError(pos, k, available[pos])
        self.salaries = {
            p: np.array([c.salary for c in self.by_position.get(p, [])], dtype=np.float64)
            for p in POSITIONS
        }
        self.kmax = {
            p: min(max(counts[p] for counts in POSITION_COUNTS), available[p])
            for p in POSITIONS
        }

    def draw(self, seed: int) -> Lineup:
        """One uniform slot-wise random draw, rejection-sampled into the band.

        Attempts run in vectorized batches: per attempt a flex configuration
        uniformly among the three, then per position the k smallest of
        i.i.d. uniform keys — a uniform draw without replacement.  The first
        attempt inside the salary band wins; the total attempt budget is
        MAX_REJECTIONS.
        """
        rng = np.random.default_rng(seed)
        batch = 16
        attempts_left = MAX_REJECTIONS
        while attempts_left > 0:
            b = min(batch, attempts_left)
            attempts_left -= b
            batch = min(batch * 4, 1024)
            config_idx = rng.integers(0, len(POSITION_COUNTS), size=b)
            picks, cumsal = {}, {}
            for pos in POSITIONS:
                k = self.kmax[pos]
                keys = rng.random((b, len(self.salaries[pos])))
                picks[pos] = (
                    np.argpartition(keys, range(k), axis=1)[:, :k]
                    if k
                    else np.empty((b, 0), dtype=np.int64)
                )
                picked = self.salaries[pos][picks[pos]]
                cumsal[pos] = np.concatenate(
                    [np.zeros((b, 1)), np.cumsum(picked, axis=1)], axis=1
                )
            totals = np.zeros(b)
            feasible = np.zeros(b, dtype=bool)
            for ci, counts in enumerate(POSITION_COUNTS):
                rows = config_idx == ci
                if not self.config_ok[ci] or not rows.any():
                    continue
                feasible[rows] = True
                totals[rows] = sum(cumsal[pos][rows, k] for pos, k in counts.items())
            ok = feasible & (totals >= self.min_salary) & (totals <= self.rules.salary_cap)
            hits = np.flatnonzero(ok)
            if len(hits):
                row = int(hits[0])
                ci = int(config_idx[row])
                chosen = [
                    self.by_position[pos][i]
                    for pos, k in POSITION_COUNTS[ci].items()
                    for i in picks[pos][row][:k]
                ]
                lineup = _build_lineup(chosen, FLEX_CONFIGS[ci])
                lineup.actual_fpts = lineup.predicted_fpts
                return lineup
        raise NoFeasibleSampleError(
            f"{MAX_REJECTIONS} consecutive draws missed the salary band "
            f"[{self.min_salary}, {self.rules.salary_cap}]"
        )


def random_lineup(pool, rules: ContestRules, min_salary: int, seed: int) -> Lineup:
    """One uniform slot-wise random lineup with salary in [min_salary, cap].

    The flex configuration is chosen uniformly among the three before the
    per-position draws.  Draws violating the salary band are rejected; after
    10,000 rejections a NoFeasibleSampleError is raised.
    """
    return _LineupSampler(pool, rules, min_salary).draw(seed)


def random_population(
    pool, rules: ContestRules, count: int, min_salary: int, seed: int
) -> list[Lineup]:
    """Draw `count` random lineups; draw i uses seed mix64(seed, i)."""
    sampler = _LineupSampler(pool, rules, min_salary)
    return [sampler.draw(mix64(seed, i)) for i in range(count)]


def boxplot_stats(samples) -> dict:
    """Quartiles plus whiskers at the most extreme points within 1.5 IQR."""
    x = np.asarray(samples, dtype=np.float64)
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75], method="linear")
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
    """Fixed-width bins aligned to multiples of bin_width; returns (edges, counts)."""
    x = np.asarray(samples, dtype=np.float64)
    lo = math.floor(x.min() / bin_width) * bin_width
    hi = math.ceil(x.max() / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    edges = np.arange(lo, hi + bin_width / 2, bin_width)
    counts, _ = np.histogram(x, bins=edges)
    return edges, counts


@dataclass
class PopulationSummary:
    label: str
    n: int
    mean: float
    percentile: float
    ci_low: float
    ci_high: float
    ks: TestResult
    boxplot: dict


@dataclass
class ComparisonReport:
    generated_score: float
    random: PopulationSummary
    real: PopulationSummary
    welch: TestResult  # real vs random
    cohens_d: float


def summarize_population(
    pop: PopulationStats, score: float, resamples: int, level: float, seed: int
) -> PopulationSummary:
    lo, hi = bootstrap_ci(score, pop, resamples=resamples, level=level, seed=seed)
    return PopulationSummary(
        label=pop.label,
        n=pop.n,
        mean=float(pop.samples.mean()),
        percentile=percentile(score, pop),
        ci_low=lo,
        ci_high=hi,
        ks=ks_normality(pop.samples),
        boxplot=boxplot_stats(pop.samples),
    )


def compare_populations(
    random_pop: PopulationStats,
    real_pop: PopulationStats,
    generated_score: float,
    resamples: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
) -> ComparisonReport:
    """Full validation battery for one week's generated lineup score."""
    return ComparisonReport(
        generated_score=generated_score,
        random=summarize_population(random_pop, generated_score, resamples, level, mix64(seed, 1)),
        real=summarize_population(real_pop, generated_score, resamples, level, mix64(seed, 2)),
        welch=welch_t_test(real_pop.samples, random_pop.samples),
        cohens_d=cohens_d(real_pop.samples, random_pop.samples),
    )


def load_contest_results(path) -> PopulationStats:
    """Read `user_rank,fpts` rows; zero-score users are dropped."""
    scores = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user_rank", "fpts"]:
            raise SchemaError(f"unexpected header {header}", line=1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                value = float(row[1])
            except (IndexError, ValueError):
                raise SchemaError("cannot parse fpts", line=line, column="fpts") from None
            if not math.isfinite(value):
                raise SchemaError(f"non-finite fpts {row[1]!r}", line=line, column="fpts")
            if value != 0.0:
                scores.append(value)
    return PopulationStats(samples=np.array(scores), label="real_world")
