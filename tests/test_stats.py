"""Statistics vs scipy oracles, hand computations, and the random baseline."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dfslineup.data import POSITIONS, RULES
from dfslineup.errors import ConfigError, NoFeasibleSampleError, SchemaError, ZeroVarianceError
from dfslineup import stats
from dfslineup.optimizer import LINEUP_SIZE
from dfslineup.special import (
    betainc,
    kolmogorov_sf,
    linear_quantiles,
    normal_cdf,
    student_t_sf2,
)
from dfslineup.stats import (
    MAX_HISTOGRAM_BINS,
    boxplot_stats,
    bootstrap_ci,
    cohens_d,
    compare_populations,
    histogram_bins,
    ks_normality,
    load_contest_results,
    percentile,
    random_lineups,
    random_population,
    welch_t_test,
)

from .conftest import Player, columns, make_pool, make_pool_with
from .oracles import FLEX_COUNTS, random_rows_ok


class TestLinearQuantiles:
    """The helper gives ``np.quantile``'s linear-method bytes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 57])
    def test_equals_numpy_bitwise(self, n):
        rng = np.random.default_rng(n)
        qs = [0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0, *rng.uniform(size=5)]
        for x in (rng.normal(0, 10, n), rng.integers(0, 4, n).astype(float)):  # ties
            want = np.quantile(x, qs, method="linear")
            assert linear_quantiles(x, qs).tobytes() == want.tobytes()

        grid = rng.normal(0, 5, (n, 6))
        grid[:, :2] = np.round(grid[:, :2])
        grid[:, 2] = np.where(np.arange(n) % 2, 0.0, -0.0)  # ties that differ in sign
        want = np.quantile(grid, [0.025, 0.975], axis=0, method="linear")
        got = linear_quantiles(grid, [0.025, 0.975])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSpecialFunctions:
    def test_betainc_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.3, 50.0))
            b = float(rng.uniform(0.3, 50.0))
            x = float(rng.uniform(0.0, 1.0))
            assert betainc(a, b, x) == pytest.approx(
                scipy.special.betainc(a, b, x), abs=1e-12
            )
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_student_t_against_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = float(rng.uniform(-8, 8))
            df = float(rng.uniform(1.0, 500.0))
            want = 2.0 * scipy.special.stdtr(df, -abs(t))
            assert student_t_sf2(t, df) == pytest.approx(want, abs=1e-12)

    def test_kolmogorov_against_scipy(self):
        for lam in np.linspace(0.05, 3.5, 150):
            assert kolmogorov_sf(float(lam)) == pytest.approx(
                float(scipy.special.kolmogorov(lam)), abs=1e-12
            )
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-1.0) == 1.0

    def test_normal_cdf_against_scipy(self):
        for x in np.linspace(-6, 6, 50):
            assert normal_cdf(float(x)) == pytest.approx(
                float(scipy.stats.norm.cdf(x)), abs=1e-14
            )


class TestHypothesisTests:
    def test_welch_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), int(rng.integers(5, 60)))
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), int(rng.integers(5, 60)))
            got = welch_t_test(a, b)
            want = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert got.statistic == pytest.approx(want.statistic, abs=1e-10)
            assert got.p_value == pytest.approx(want.pvalue, abs=1e-10)
            # Welch-Satterthwaite df, computed from first principles.
            sa, sb = np.var(a, ddof=1) / len(a), np.var(b, ddof=1) / len(b)
            df = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
            assert got.df == pytest.approx(df, abs=1e-10)

    def test_welch_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        result = welch_t_test(x, x.copy())
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_welch_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0])
        # One degenerate side is fine.
        result = welch_t_test([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert np.isfinite(result.statistic)

    def test_cohens_d_hand_example(self):
        # a = [2, 4], b = [1, 3]: pooled variance 2, mean gap 1.
        assert cohens_d([2.0, 4.0], [1.0, 3.0]) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_cohens_d_matches_formula(self):
        rng = np.random.default_rng(3)
        a = rng.normal(1, 2, 30)
        b = rng.normal(0, 1, 40)
        pooled = (29 * np.var(a, ddof=1) + 39 * np.var(b, ddof=1)) / 68
        assert cohens_d(a, b) == pytest.approx((a.mean() - b.mean()) / np.sqrt(pooled))

    @pytest.mark.parametrize("test", [welch_t_test, cohens_d])
    @pytest.mark.parametrize("a, b", [([1.0], [1.0, 2.0]), ([1.0, 2.0], [3.0])])
    def test_two_sample_tests_need_two_observations_each(self, test, a, b):
        with pytest.raises(ValueError, match="each sample needs at least 2 observations"):
            test(a, b)

    def test_cohens_d_zero_pooled_variance(self):
        with pytest.raises(ZeroVarianceError, match="pooled variance is zero"):
            cohens_d([1.0, 1.0, 1.0], [2.0, 2.0])

    def test_ks_matches_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), int(rng.integers(10, 200)))
            got = ks_normality(x)
            fitted = scipy.stats.kstest(
                x, "norm", args=(x.mean(), x.std(ddof=1))
            )
            assert got.statistic == pytest.approx(fitted.statistic, abs=1e-12)
            want_p = float(scipy.special.kolmogorov(np.sqrt(len(x)) * got.statistic))
            assert got.p_value == pytest.approx(want_p, abs=1e-12)

    def test_ks_requires_five_and_variance(self):
        with pytest.raises(ValueError):
            ks_normality([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ZeroVarianceError):
            ks_normality([3.0] * 10)


class TestPercentile:
    def pop(self, values):
        return np.array(values, dtype=float)

    def test_hand_examples(self):
        p = self.pop([1, 2, 3, 4])
        assert percentile(2.5, p) == 50.0
        assert percentile(2.0, p) == pytest.approx(37.5)  # one below, one tied
        assert percentile(0.0, p) == 0.0
        assert percentile(9.0, p) == 100.0
        assert percentile(1.0, self.pop([1, 1, 1, 1])) == 50.0  # all tied

    def test_matches_direct_counting(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pop = self.pop(rng.integers(0, 40, int(rng.integers(3, 200))))
            score = float(rng.integers(0, 40))
            direct = 100.0 * (
                np.sum(pop < score) + 0.5 * np.sum(pop == score)
            ) / len(pop)
            assert percentile(score, pop) == pytest.approx(direct, abs=1e-12)

    def test_bootstrap_properties(self):
        rng = np.random.default_rng(6)
        pop = self.pop(rng.normal(100, 15, 5000))
        score = 110.0
        lo, hi = bootstrap_ci(score, pop, resamples=2000, seed=42)
        point = percentile(score, pop)
        assert 0.0 <= lo <= point <= hi <= 100.0
        assert (lo, hi) == bootstrap_ci(score, pop, resamples=2000, seed=42)
        assert (lo, hi) != bootstrap_ci(score, pop, resamples=2000, seed=43)

    def test_bootstrap_matches_naive_resampling(self):
        """The multinomial reformulation vs literal draw-and-count bootstrap."""
        rng = np.random.default_rng(7)
        pop = self.pop(rng.normal(50, 10, 400))
        score = 55.0
        lo, hi = bootstrap_ci(score, pop, resamples=6000, level=0.9, seed=1)
        naive = np.empty(6000)
        oracle_rng = np.random.default_rng(999)
        for i in range(6000):
            draw = oracle_rng.choice(pop, size=len(pop), replace=True)
            naive[i] = 100.0 * (
                np.sum(draw < score) + 0.5 * np.sum(draw == score)
            ) / len(pop)
        nlo, nhi = np.quantile(naive, [0.05, 0.95])
        assert lo == pytest.approx(nlo, abs=1.5)
        assert hi == pytest.approx(nhi, abs=1.5)

    def test_bootstrap_narrows_with_population_size(self):
        rng = np.random.default_rng(8)
        small = self.pop(rng.normal(0, 1, 200))
        large = self.pop(rng.normal(0, 1, 20_000))
        lo_s, hi_s = bootstrap_ci(0.5, small, resamples=3000, seed=0)
        lo_l, hi_l = bootstrap_ci(0.5, large, resamples=3000, seed=0)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_bootstrap_argument_validation(self):
        pop = self.pop([1, 2, 3])
        with pytest.raises(ValueError):
            bootstrap_ci(2.0, pop, resamples=0)
        with pytest.raises(ValueError):
            bootstrap_ci(2.0, pop, level=1.0)

    @pytest.mark.parametrize("values", [[], np.empty(0)])
    def test_empty_population_rejected_before_dividing(self, values):
        with pytest.raises(ValueError, match="population is empty"):
            percentile(2.0, values)
        with pytest.raises(ValueError, match="population is empty"):
            bootstrap_ci(2.0, values, resamples=10)


def sample(pool, *args, **kwargs):
    """``random_lineups`` on the pool's position and salary columns, its
    blocks joined."""
    _, position, salary, _ = columns(pool)
    return np.concatenate(list(random_lineups(position, salary, *args, **kwargs)))


class TestRandomLineups:
    def test_draws_are_valid_and_deterministic(self, salary_cap):
        pool = make_pool(np.random.default_rng(9), 60)
        draws = sample(pool, salary_cap, 50, 40_000, seed=3)
        assert draws.shape == (50, 9)
        assert all(random_rows_ok(pool, draws, 40_000, salary_cap))
        assert np.array_equal(sample(pool, salary_cap, 50, 40_000, seed=3), draws)

    def test_smaller_count_is_a_prefix(self, salary_cap):
        # 9,000 draws span more than one block of attempts.
        pool = make_pool(np.random.default_rng(9), 60)
        many = sample(pool, salary_cap, 9_000, 40_000, seed=3)
        for n in (1, 50, 4_000):
            assert np.array_equal(sample(pool, salary_cap, n, 40_000, seed=3), many[:n])

    def test_scores_are_the_row_sums_of_the_lineups(self, salary_cap):
        # 9,000 draws span three blocks of attempts; each score is its row's
        # FPTS summed as one (n, 9) row sum, to the bit.
        pool = make_pool(np.random.default_rng(9), 60)
        _, position, salary, fpts = columns(pool)
        rows = sample(pool, salary_cap, 9_000, 40_000, seed=3)
        scores = random_population(position, salary, fpts, salary_cap, 9_000, 40_000, seed=3)
        assert 9_000 > 2 * stats._BLOCK
        assert scores.tobytes() == np.array(fpts)[rows].sum(axis=1).tobytes()

    def test_rows_are_not_all_alike(self, salary_cap):
        pool = make_pool(np.random.default_rng(10), 60)
        draws = sample(pool, salary_cap, 30, 40_000, seed=4)
        assert len({tuple(sorted(row)) for row in draws.tolist()}) > 1

    def test_distribution_matches_enumeration(self):
        # 390 lineups over the three configurations; the band drops some at
        # both ends.  Each in-band lineup of configuration c has probability
        # proportional to 1 / (3 * number of lineups of c).
        pool = make_pool_with(
            np.random.default_rng(61), {"QB": 1, "RB": 4, "WR": 5, "TE": 3, "DST": 1}
        )
        salary_cap, min_salary = 55_000, 46_000
        weight, rejected = {}, 0
        for counts in FLEX_COUNTS:
            combos = [
                itertools.combinations([i for i, c in enumerate(pool) if c.position == p], k)
                for p, k in counts.items()
            ]
            lineups = [sum(parts, ()) for parts in itertools.product(*combos)]
            for lineup in lineups:
                salary = sum(pool[i].salary for i in lineup)
                if min_salary <= salary <= salary_cap:
                    weight[frozenset(lineup)] = 1.0 / (3 * len(lineups))
                else:
                    rejected += 1
        assert len(weight) + rejected == 390 and rejected > 0
        n = 60_000
        draws = sample(pool, salary_cap, n, min_salary, seed=17)
        seen = {}
        for row in draws.tolist():
            key = frozenset(row)
            assert key in weight
            seen[key] = seen.get(key, 0) + 1
        keys = list(weight)
        expected = np.array([weight[k] for k in keys])
        expected *= n / expected.sum()
        observed = np.array([seen.get(k, 0) for k in keys])
        assert scipy.stats.chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize(
        "hits, fails",
        [
            ([9_999, 19_999], False),  # 9,999 misses before each hit
            ([10_000, 10_001], True),  # 10,000 misses before the first hit
            ([5, 10_005], False),  # the gap crosses two block boundaries
            ([5, 10_006], True),
            ([5], True),  # misses run on after the last hit
        ],
    )
    def test_rejection_budget_counts_across_blocks(self, salary_cap, monkeypatch, hits, fails):
        # The in-band attempts are scripted; count=2 needs two of them.
        calls = []

        def scripted(rng, *args):
            start = len(calls) * stats._BLOCK
            calls.append(start)
            assert len(calls) <= 5, "drew past the rejection budget"
            ok = np.zeros(stats._BLOCK, dtype=bool)
            for h in hits:
                if start <= h < start + stats._BLOCK:
                    ok[h - start] = True
            return np.zeros((stats._BLOCK, 9), dtype=np.intp), ok

        monkeypatch.setattr(stats, "_draw_block", scripted)
        assert stats._BLOCK < stats.MAX_REJECTIONS == 10_000
        pool = make_pool(np.random.default_rng(9), 60)
        if fails:
            with pytest.raises(NoFeasibleSampleError):
                sample(pool, salary_cap, 2, 40_000, seed=1)
        else:
            assert sample(pool, salary_cap, 2, 40_000, seed=1).shape == (2, 9)

    def test_position_shortfall(self, salary_cap):
        pool = [c for c in make_pool(np.random.default_rng(12), 40) if c.position != "QB"]
        with pytest.raises(NoFeasibleSampleError, match="position QB: need 1 candidates, have 0"):
            sample(pool, salary_cap, 1, 0, seed=1)

    def test_shortfall_names_first_short_position(self, salary_cap):
        # No flex configuration is coverable; each one's shortfalls are
        # reported, the 2-3-2 configuration's first.
        pool = make_pool_with(
            np.random.default_rng(58), {"QB": 2, "RB": 2, "WR": 3, "TE": 1, "DST": 2}
        )
        with pytest.raises(NoFeasibleSampleError) as exc:
            sample(pool, salary_cap, 1, 0, seed=1)
        assert str(exc.value) == (
            "the pool fills no flex configuration: "
            "(2, 3, 2): position TE: need 2 candidates, have 1; "
            "(2, 4, 1): position WR: need 4 candidates, have 3; "
            "(3, 3, 1): position RB: need 3 candidates, have 2"
        )

    def test_pool_short_of_a_configuration_draws_the_others(self):
        # One TE: the 2-3-2 configuration cannot be filled, so every row is
        # a legal 2-4-1 or 3-3-1 lineup, and both of those are drawn.  Every
        # lineup of the pool fits the band.
        pool = make_pool_with(
            np.random.default_rng(62), {"QB": 2, "RB": 4, "WR": 5, "TE": 1, "DST": 2}
        )
        rows = sample(pool, 90_000, 500, 0, seed=5)
        assert all(random_rows_ok(pool, rows, 0, 90_000))
        shapes = Counter(
            tuple(sum(pool[i].position == p for i in row) for p in ("RB", "WR", "TE"))
            for row in rows.tolist()
        )
        assert set(shapes) == {(2, 4, 1), (3, 3, 1)}

    def test_pool_short_of_a_configuration_spends_no_attempt_on_it(self):
        # Every lineup of the one-TE pool fits the band, so no attempt may
        # miss: a block of attempts gives a block of lineups.
        pool = make_pool_with(
            np.random.default_rng(62), {"QB": 2, "RB": 4, "WR": 5, "TE": 1, "DST": 2}
        )
        _, position, salary, _ = columns(pool)
        drawn = list(random_lineups(position, salary, 90_000, stats._BLOCK, 0, seed=5))
        assert [len(rows) for rows in drawn] == [stats._BLOCK]

    def test_min_salary_above_cap_rejected(self, salary_cap):
        pool = make_pool(np.random.default_rng(13), 30)
        with pytest.raises(ValueError):
            sample(pool, salary_cap, 1, 50_001, seed=1)

    def test_unreachable_band_raises(self, salary_cap):
        # Every salary is 2000, so any lineup totals 18,000 < 45,000.
        pool = [
            Player(c.player_id, c.position, 2000, c.predicted_fpts)
            for c in make_pool(np.random.default_rng(14), 30)
        ]
        with pytest.raises(NoFeasibleSampleError):
            sample(pool, salary_cap, 1, 45_000, seed=1)


@st.composite
def pools_and_bands(draw):
    """A shuffled pool covering every position, and a salary band around
    one of its lineups.

    The pool holds one flex configuration's counts plus up to twelve players
    of any position, so the other configurations may go short.  Salaries
    step by $1, $50 or $100; the band reaches up to 200 steps either side of
    the total of the configuration's first players.
    """
    counts = draw(st.sampled_from(FLEX_COUNTS))
    positions = [p for p, k in counts.items() for _ in range(k)]
    positions += draw(st.lists(st.sampled_from(POSITIONS), max_size=12))
    positions = draw(st.permutations(positions))
    unit = draw(st.sampled_from([1, 50, 100]))
    salary = [draw(st.integers(20, 100)) * unit for _ in positions]
    pool = [Player(f"P{i:02d}", p, s, 1.0) for i, (p, s) in enumerate(zip(positions, salary))]
    total = sum(
        sum(sorted(c.salary for c in pool if c.position == p)[:k]) for p, k in counts.items()
    )
    low = total - draw(st.integers(0, 200)) * unit
    high = total + draw(st.integers(0, 200)) * unit
    return pool, max(low, 0), high, draw(st.integers(1, 300)), draw(st.integers(0, 2**32))


def test_random_rows_always_pass_the_recount():
    """On any pool and band, every drawn row recounts as a legal in-band
    lineup.  A band the sampler cannot hit is a NoFeasibleSampleError, and
    it may not happen often enough to make the check vacuous."""
    drawn = []

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(pools_and_bands())
    def check(case):
        pool, min_salary, cap, count, seed = case
        try:
            rows = sample(pool, cap, count, min_salary, seed)
        except NoFeasibleSampleError:
            drawn.append(0)
            return
        assert rows.shape == (count, 9)
        assert all(random_rows_ok(pool, rows, min_salary, cap))
        drawn.append(count)

    check()
    assert sum(n > 0 for n in drawn) >= 0.9 * len(drawn)


class TestDescriptive:
    def test_boxplot_hand_example(self):
        x = [1.0, 2.0, 3.0, 4.0, 100.0]  # 100 is an outlier beyond 1.5 IQR
        b = boxplot_stats(x)
        q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75])
        assert b["q1"] == q1 and b["median"] == med and b["q3"] == q3
        assert b["whisker_low"] == 1.0
        assert b["whisker_high"] == 4.0  # outlier excluded
        assert b["mean"] == pytest.approx(22.0)
        assert b["n"] == 5

    def test_histogram_alignment_and_counts(self):
        rng = np.random.default_rng(15)
        x = rng.normal(20, 5, 300)
        edges, counts = histogram_bins(x, bin_width=2.0)
        assert np.allclose(edges % 2.0, 0.0)
        assert counts.sum() == 300
        assert edges[0] <= x.min() and edges[-1] >= x.max()
        assert np.allclose(np.diff(edges), 2.0)

    def test_histogram_degenerate_sample(self):
        edges, counts = histogram_bins([6.0, 6.0], bin_width=2.0)
        assert counts.sum() == 2

    @pytest.mark.parametrize(
        "samples, width",
        [
            ([3.0, 25.0], 1e-300),  # numpy refused the array's size
            ([3.0, 25.0], 1e-320),  # the division overflowed
            ([25.0, 25.0], 1e-300),  # edges not distinct: an empty histogram
            ([0.0], 5e-324),  # half a width underflows to 0: one edge
            ([3.0, 25.0], 1.2e308),  # the last edge plus half a width overflowed
            ([-3.0, 25.0], 8e307),  # the edges' reach overflowed
        ],
    )
    def test_histogram_refuses_a_tiny_width(self, samples, width):
        with pytest.raises(ConfigError, match=r"report\.histogram_bin_width"):
            histogram_bins(samples, bin_width=width)

    def test_histogram_bin_cap_is_on_the_sample_range(self):
        edges, counts = histogram_bins([3.0, 25.0], bin_width=22.0 / MAX_HISTOGRAM_BINS)
        assert counts.sum() == 2 and len(counts) <= MAX_HISTOGRAM_BINS + 2
        with pytest.raises(ConfigError):
            histogram_bins([3.0, 25.0], bin_width=22.0 / (MAX_HISTOGRAM_BINS + 1))
        # One bin is fine as long as its edges fit in the float range.
        edges, counts = histogram_bins([3.0, 25.0], bin_width=1e308)
        assert edges.tolist() == [0.0, 1e308] and counts.tolist() == [2]


class TestReportingPipeline:
    def test_summarize_population_is_the_report_entry(self):
        rng = np.random.default_rng(16)
        scores = rng.normal(100, 12, 4000)
        summary = stats.summarize_population(scores, 130.0, 2000, 0.95, 5, "random")
        lo, hi = bootstrap_ci(130.0, scores, resamples=2000, level=0.95, seed=5)
        ks = ks_normality(scores)
        assert summary == {
            "label": "random",
            "n": 4000,
            "mean_fpts": float(scores.mean()),
            "percentile": percentile(130.0, scores),
            "percentile_ci": [lo, hi],
            "ks_statistic": ks.statistic,
            "ks_p_value": ks.p_value,
            "boxplot": boxplot_stats(scores),
        }
        assert summary["percentile"] > 97.0
        assert type(summary["n"]) is int

    def test_compare_populations_battery(self):
        rng = np.random.default_rng(16)
        random_scores = rng.normal(100, 12, 4000)
        real_scores = rng.normal(120, 18, 1500)
        report = compare_populations(random_scores, real_scores)
        assert set(report) == {"welch_t", "cohens_d"}
        assert report["welch_t"]["statistic"] > 0  # real scores higher than random
        assert report["welch_t"]["p_value"] < 1e-6
        assert report["cohens_d"] > 1.0
        want = welch_t_test(real_scores, random_scores)
        assert report["welch_t"] == {
            "statistic": want.statistic, "p_value": want.p_value, "df": want.df
        }
        assert report["cohens_d"] == cohens_d(real_scores, random_scores)

    def test_load_contest_results(self, tmp_path, contest_csv):
        scores = load_contest_results(contest_csv)
        assert scores.dtype == np.float64
        assert len(scores) > 2000
        assert np.all(scores != 0.0)  # zero scores dropped
        bad = tmp_path / "bad.csv"
        bad.write_text("rank,points\n1,100\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_contest_results(bad)
        mangled = tmp_path / "mangled.csv"
        mangled.write_text("user_rank,fpts\n1,abc\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_contest_results(mangled)
        assert exc.value.line == 2
        for extra in ("1,120.5,junk", "1"):
            mangled.write_text(f"user_rank,fpts\n2,99.0\n{extra}\n", encoding="utf-8")
            with pytest.raises(SchemaError) as exc:
                load_contest_results(mangled)
            assert exc.value.line == 3

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_load_contest_results_rejects_non_finite(self, tmp_path, raw):
        path = tmp_path / "contest.csv"
        path.write_text(f"user_rank,fpts\n1,120.5\n2,{raw}\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_contest_results(path)
        assert exc.value.line == 3
        assert exc.value.column == "fpts"

    @pytest.mark.parametrize("raw", ["1_0", "\u0661\u0662"])
    def test_load_contest_results_rejects_non_ascii_number(self, tmp_path, raw):
        # float() takes "1_0" as 10.0 and Arabic-Indic "\u0661\u0662" as 12.0.
        path = tmp_path / "contest.csv"
        path.write_text(f"user_rank,fpts\n1,120.5\n2,{raw}\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_contest_results(path)
        assert exc.value.line == 3
        assert exc.value.column == "fpts"

    @pytest.mark.parametrize("bad, column", [("4,abc", "fpts"), ("4", None)])
    def test_load_contest_results_names_the_file_line(self, tmp_path, bad, column):
        """After a quoted user_rank that spans lines 2 and 3, a bad score or
        a short row on line 5 is named by that file line."""
        path = tmp_path / "contest.csv"
        path.write_text(f'user_rank,fpts\n"1\n",120.5\n3,99.0\n{bad}\n', encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_contest_results(path)
        assert (exc.value.line, exc.value.column) == (5, column)

    def test_load_contest_results_bounds_a_lineup_score(self, tmp_path):
        """A contest score lies within LINEUP_SIZE times the season's fpts
        bounds: both ends load, and a score just past either is refused."""
        low, high = LINEUP_SIZE * RULES["fpts"].low, LINEUP_SIZE * RULES["fpts"].high
        path = tmp_path / "contest.csv"
        rows = ["user_rank,fpts", *(f"{r},{100.0 + r}" for r in range(1, 5))]
        path.write_text("\n".join([*rows, f"5,{low}", f"6,{high}"]) + "\n", encoding="utf-8")
        assert load_contest_results(path)[-2:].tolist() == [low, high]
        for past in (low - 0.5, high + 0.5):
            path.write_text("\n".join([*rows, f"5,{past}"]) + "\n", encoding="utf-8")
            with pytest.raises(SchemaError) as exc:
                load_contest_results(path)
            assert (exc.value.line, exc.value.column) == (6, "fpts")

    @pytest.mark.parametrize("nonzero", [0, 3, 4])
    def test_load_contest_results_needs_five_nonzero_scores(self, tmp_path, nonzero):
        path = tmp_path / "short.csv"
        rows = [f"{r},{100.0 + r}" for r in range(1, nonzero + 1)] + ["9,0", "10,0.0"]
        path.write_text("\n".join(["user_rank,fpts", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="short.csv") as exc:
            load_contest_results(path)
        assert f"{nonzero} nonzero" in str(exc.value)
        assert "real-world population" in str(exc.value)
        # Topped up to exactly five nonzero scores, the file loads.
        rows += [f"{r},{r + 0.5}" for r in range(11, 16 - nonzero)]
        path.write_text("\n".join(["user_rank,fpts", *rows]) + "\n", encoding="utf-8")
        assert len(load_contest_results(path)) == 5

    @pytest.mark.parametrize("score", ["100", "0.1"])
    def test_load_contest_results_rejects_equal_scores(self, tmp_path, score):
        # Six equal 0.1s have a sample variance of about 1e-34, not zero.
        path = tmp_path / "flat.csv"
        rows = [f"{r},{score}" for r in range(1, 7)] + ["7,0"]
        path.write_text("\n".join(["user_rank,fpts", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="flat.csv") as exc:
            load_contest_results(path)
        assert f"all 6 nonzero fpts scores are {float(score)!r}" in str(exc.value)
        assert "real-world population needs at least two distinct scores" in str(exc.value)
