"""Exact-solver correctness against brute force, tie rules, and validation."""

from __future__ import annotations

from collections import Counter
from math import fsum, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfslineup import optimizer
from dfslineup.data import POSITIONS
from dfslineup.errors import InfeasibleLineupError
from dfslineup.optimizer import (
    LINEUP_SIZE,
    MAX_COUNTS,
    Lineup,
    Pool,
    Tables,
    assign_slots,
    blocks,
    modal_lineup,
    optimize_all_flex,
    solve_flex_configs,
)

from .conftest import (
    Player,
    columns,
    make_pool,
    make_pool_with,
    make_shuffled_pool,
    pool_and_row,
)
from .oracles import (
    FLEX_COUNTS,
    brute_force_all_flex,
    brute_force_config,
    validate_lineup,
)


def lineup_positions(lineup, pool):
    pos = {c.player_id: c.position for c in pool}
    return Counter(pos[p] for p in lineup.players)


class TestCandidates:
    def test_rejects_bad_position_and_salary(self, salary_cap):
        pool = make_pool(np.random.default_rng(0), 14)
        bad_entries = [
            pool[3]._replace(position="K"),
            pool[3]._replace(salary=0),
            pool[3]._replace(salary=-100),
            pool[3]._replace(salary=True),
            pool[3]._replace(salary=5000.0),
        ]
        for bad in bad_entries:
            with pytest.raises(ValueError, match="position|salary"):
                pool_and_row(pool[:3] + [bad] + pool[4:], salary_cap)
        ids, position, _, _ = columns(pool)
        with pytest.raises(ValueError, match="salary"):
            Pool(ids, position, np.ones(len(pool), dtype=bool), salary_cap)

    def test_rejects_columns_of_different_lengths(self, salary_cap):
        ids, position, salary, _ = columns(make_pool(np.random.default_rng(0), 14))
        for cols in (
            (ids[:-1], position, salary),
            (ids, position[:-1], salary),
            (ids, position, salary[:-1]),
        ):
            with pytest.raises(ValueError, match="differ in length"):
                Pool(*cols, salary_cap)

    def test_rejects_a_row_of_the_wrong_length(self, salary_cap):
        ids, position, salary, fpts = columns(make_pool(np.random.default_rng(0), 14))
        pool = Pool(ids, position, salary, salary_cap)
        for row in (fpts[:-1], fpts + [1.0], []):
            with pytest.raises(ValueError, match=f"has {len(row)} entries for a pool of 14"):
                Tables(pool, [row])

    def test_array_columns_match_list_columns(self, salary_cap):
        rng = np.random.default_rng(59)
        for trial in range(10):
            pool = make_shuffled_pool(rng, 20, tie_heavy=trial % 2 == 0)
            want = solve_flex_configs(*pool_and_row(pool, salary_cap))
            ids, position, salary, fpts = map(np.asarray, columns(pool))
            got = solve_flex_configs(Tables(Pool(ids, position, salary, salary_cap), [fpts]), 0)
            assert got == want
            for lineup in got:
                assert lineup is None or all(type(p) is str for p in lineup.players)

    def test_rules_reject_unknown_flex_config(self, salary_cap):
        pool = make_pool(np.random.default_rng(56), 16)
        lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
        lineup.flex_config = (3, 4, 1)
        salary = {c.player_id: c.salary for c in pool}
        position = {c.player_id: c.position for c in pool}
        problems = validate_lineup(lineup, salary_cap, salary, position)
        assert problems == ["unknown flex configuration (3, 4, 1)"]

    def test_duplicate_ids_rejected(self, salary_cap):
        pool = make_pool(np.random.default_rng(0), 14)
        pool.append(pool[0])
        with pytest.raises(ValueError, match="duplicate"):
            pool_and_row(pool, salary_cap)


class TestBruteForceAgreement:
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_matches_oracle_objective_and_identity(self, salary_cap, tie_heavy):
        rng = np.random.default_rng(42 if tie_heavy else 43)
        for trial in range(40):
            pool = make_pool(rng, int(rng.integers(13, 17)), tie_heavy=tie_heavy)
            lineups = solve_flex_configs(*pool_and_row(pool, salary_cap))
            assert len(lineups) == len(FLEX_COUNTS)
            for counts, lineup in zip(FLEX_COUNTS, lineups):
                want = brute_force_config(pool, counts, salary_cap)
                if want is None:
                    assert lineup is None
                else:
                    assert lineup.flex_config == (counts["RB"], counts["WR"], counts["TE"])
                    assert lineup.predicted_fpts == pytest.approx(want[0], abs=1e-9)
                    assert lineup.players == want[1]

    def test_all_flex_matches_oracle(self, salary_cap):
        rng = np.random.default_rng(44)
        for trial in range(30):
            pool = make_pool(rng, 15, tie_heavy=(trial % 2 == 0))
            want = brute_force_all_flex(pool, salary_cap)
            try:
                lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
                got = (lineup.predicted_fpts, lineup.players)
            except InfeasibleLineupError:
                got = None
            if want is None:
                assert got is None
            else:
                assert got[0] == pytest.approx(want[0], abs=1e-9)
                assert got[1] == want[1]

    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_shuffled_ids_match_oracle(self, tie_heavy):
        # Ids permuted across positions, so id order interleaves the
        # positions; a binding cap makes cross-position ties.
        rng = np.random.default_rng(60 if tie_heavy else 61)
        for trial in range(200):
            pool = make_shuffled_pool(rng, int(rng.integers(13, 17)), tie_heavy=tie_heavy)
            salary_cap = int(rng.integers(250, 480)) * 100
            lineups = solve_flex_configs(*pool_and_row(pool, salary_cap))
            for counts, lineup in zip(FLEX_COUNTS, lineups):
                want = brute_force_config(pool, counts, salary_cap)
                if want is None:
                    assert lineup is None
                else:
                    assert lineup.predicted_fpts == pytest.approx(want[0], abs=1e-9)
                    assert lineup.players == want[1]
            want = brute_force_all_flex(pool, salary_cap)
            if want is not None:
                lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
                assert lineup.predicted_fpts == pytest.approx(want[0], abs=1e-9)
                assert lineup.players == want[1]

    @staticmethod
    def _two_pair_pool(a_fpts):
        # Seven $5,000 starters leave $15,000 for one RB and one WR: either
        # (RB B $9,000, WR C $6,000) or (RB D $6,000, WR A $9,000), each
        # worth 30 when A scores 20.
        return [
            Player("A", "WR", 9000, a_fpts),
            Player("B", "RB", 9000, 20.0),
            Player("C", "WR", 6000, 10.0),
            Player("D", "RB", 6000, 10.0),
            Player("QB1", "QB", 5000, 30.0),
            Player("DST1", "DST", 5000, 30.0),
            Player("TE1", "TE", 5000, 30.0),
            Player("TE2", "TE", 5000, 30.0),
            Player("RB1", "RB", 5000, 30.0),
            Player("WR1", "WR", 5000, 30.0),
            Player("WR2", "WR", 5000, 30.0),
        ]

    def test_exact_tie_reaches_the_id_order_solve(self, salary_cap):
        # The two pairs tie exactly; the lexicographic minimum holds A, which
        # the id-order read-back takes first.
        pool = self._two_pair_pool(20.0)
        want = brute_force_config(pool, FLEX_COUNTS[0], salary_cap)
        assert {"A", "D"} <= set(want[1])
        assert solve_flex_configs(*pool_and_row(pool, salary_cap))[0].players == want[1]

    def test_near_tie_goes_to_the_better_lineup(self, salary_cap):
        # A scores a hair under 20, so (B, C) is strictly better than the
        # lexicographically smaller (A, D): the take test has no tolerance.
        pool = self._two_pair_pool(20.0 - 1e-10)
        want = brute_force_config(pool, FLEX_COUNTS[0], salary_cap)
        assert {"B", "C"} <= set(want[1]) and "A" not in want[1]
        for lineup in (
            solve_flex_configs(*pool_and_row(pool, salary_cap))[0],
            optimize_all_flex(*pool_and_row(pool, salary_cap)),
        ):
            assert lineup.players == want[1]
            assert lineup.predicted_fpts == want[0]

    def test_predicted_fpts_is_summed_left_to_right(self, salary_cap):
        # The only feasible lineup: nine players scoring 0.1 each.  Left to
        # right they sum to 0.8999999999999999; a compensated sum (math.fsum,
        # or sum() from Python 3.12 on) gives 0.9.
        pool = [
            Player(f"P{i}", pos, 5000, 0.1)
            for i, pos in enumerate(["QB", "RB", "RB", "RB", "WR", "WR", "WR", "TE", "DST"])
        ]
        left_to_right = 0.0
        for c in pool:
            left_to_right += c.predicted_fpts
        assert left_to_right != fsum(c.predicted_fpts for c in pool)
        lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
        assert lineup.flex_config == (3, 3, 1)
        assert lineup.predicted_fpts == left_to_right

    def test_config_short_a_position_is_skipped(self, salary_cap):
        # Exactly three WR: 2-4-1 is infeasible, the other two still compete.
        rng = np.random.default_rng(57)
        shape = {"QB": 2, "RB": 4, "WR": 3, "TE": 3, "DST": 2}
        for trial in range(20):
            pool = make_pool_with(rng, shape, tie_heavy=(trial % 2 == 0))
            lineups = solve_flex_configs(*pool_and_row(pool, salary_cap))
            assert lineups[1] is None
            want = brute_force_all_flex(pool, salary_cap)
            try:
                lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
                got = (lineup.predicted_fpts, lineup.players)
            except InfeasibleLineupError:
                got = None
            if want is None:
                assert got is None
            else:
                assert lineup.flex_config in ((2, 3, 2), (3, 3, 1))
                assert got[0] == pytest.approx(want[0], abs=1e-9)
                assert got[1] == want[1]

    def test_no_config_coverable(self, salary_cap):
        pool = make_pool_with(
            np.random.default_rng(58), {"QB": 2, "RB": 2, "WR": 3, "TE": 1, "DST": 2}
        )
        assert solve_flex_configs(*pool_and_row(pool, salary_cap)) == [None, None, None]
        with pytest.raises(InfeasibleLineupError) as exc:
            optimize_all_flex(*pool_and_row(pool, salary_cap))
        message = str(exc.value)
        assert "position TE: need 2 candidates, have 1" in message
        assert "position WR: need 4 candidates, have 3" in message
        assert "position RB: need 3 candidates, have 2" in message


def assert_matches_oracle(pool, salary_cap):
    """Every configuration's optimum, and the best over them, equal brute force."""
    for counts, lineup in zip(FLEX_COUNTS, solve_flex_configs(*pool_and_row(pool, salary_cap))):
        want = brute_force_config(pool, counts, salary_cap)
        if want is None:
            assert lineup is None
        else:
            assert lineup.predicted_fpts == pytest.approx(want[0], abs=1e-9)
            assert lineup.players == want[1]
    want = brute_force_all_flex(pool, salary_cap)
    if want is None:
        with pytest.raises(InfeasibleLineupError):
            optimize_all_flex(*pool_and_row(pool, salary_cap))
    else:
        lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
        assert lineup.predicted_fpts == pytest.approx(want[0], abs=1e-9)
        assert lineup.players == want[1]


# Nine players at the position floors of the 2-3-2 configuration, $43,000 in
# all; the other two configurations need a $5,000 WR or RB in place of the
# $4,000 TE, so their cheapest lineup costs $44,000.
_FLOOR_POOL = [
    Player("QB1", "QB", 5000, 20.0),
    Player("QB2", "QB", 7100, 25.0),
    Player("RB1", "RB", 5000, 14.0),
    Player("RB2", "RB", 5000, 13.0),
    Player("RB3", "RB", 5000, 12.0),
    Player("RB4", "RB", 6300, 19.0),
    Player("WR1", "WR", 5000, 11.0),
    Player("WR2", "WR", 5000, 10.0),
    Player("WR3", "WR", 5000, 9.0),
    Player("WR4", "WR", 5000, 8.0),
    Player("WR5", "WR", 8800, 22.0),
    Player("TE1", "TE", 4000, 7.0),
    Player("TE2", "TE", 4000, 6.0),
    Player("TE3", "TE", 6100, 9.5),
    Player("DST1", "DST", 5000, 5.0),
    Player("DST2", "DST", 5500, 7.5),
]


class TestFloorShift:
    """The budget axis starts at each position's salary floor."""

    def test_cheapest_lineup_at_exactly_the_cap(self):
        # Root u = 0 for 2-3-2: feasible, and the only lineup is the floors.
        lineups = solve_flex_configs(*pool_and_row(_FLOOR_POOL, 43_000))
        assert lineups[1] is None and lineups[2] is None
        salary = {c.player_id: c.salary for c in _FLOOR_POOL}
        assert sum(salary[p] for p in lineups[0].players) == 43_000
        assert lineups[0].players == tuple(
            sorted(["QB1", "RB1", "RB2", "WR1", "WR2", "WR3", "TE1", "TE2", "DST1"])
        )
        assert_matches_oracle(_FLOOR_POOL, 43_000)
        for cap in (43_099, 44_000, 44_100, 50_000):
            assert_matches_oracle(_FLOOR_POOL, cap)

    def test_floors_above_the_cap(self):
        # Every root is negative: the floors alone exceed the cap.
        salary_cap = 42_900
        assert solve_flex_configs(*pool_and_row(_FLOOR_POOL, salary_cap)) == [None, None, None]
        with pytest.raises(InfeasibleLineupError) as exc:
            optimize_all_flex(*pool_and_row(_FLOOR_POOL, salary_cap))
        assert str(exc.value) == "all flex configurations infeasible: " + "; ".join(
            f"{config}: no lineup fits the $42,900 salary cap"
            for config in ((2, 3, 2), (2, 4, 1), (3, 3, 1))
        )
        assert brute_force_all_flex(_FLOOR_POOL, salary_cap) is None

    @pytest.mark.parametrize("unit", [50, 1])
    def test_salary_gcd(self, unit):
        # Salaries in steps of $50 or $1, so the salary unit is 50 or 1.  Cap
        # and salaries scale with the unit, which keeps the budget axis short.
        rng = np.random.default_rng(70 + unit)
        for trial in range(30):
            base = make_shuffled_pool(rng, int(rng.integers(13, 16)), tie_heavy=(trial % 2 == 0))
            salaries = rng.integers(40, 192, size=len(base)) * unit
            pool = [
                Player(c.player_id, c.position, int(s), c.predicted_fpts)
                for c, s in zip(base, salaries)
            ]
            assert gcd(*(c.salary for c in pool)) == unit
            assert_matches_oracle(pool, int(rng.integers(500, 1040)) * unit)

    def test_dominated_player_off_the_unit(self):
        # TE9 at $6,150 is dominated by all three TEs, yet it halves the
        # pool's unit: the tables read the $100-step players on a $50 axis
        # and return the same lineups, bit for bit.
        pool = _FLOOR_POOL + [Player("TE9", "TE", 6150, 1.0)]
        for cap in (43_000, 44_000, 46_950, 50_000):
            tables, r = pool_and_row(pool, cap)
            assert tables.pool.unit == 50
            assert solve_flex_configs(tables, r) == solve_flex_configs(
                *pool_and_row(_FLOOR_POOL, cap)
            )
            assert_matches_oracle(pool, cap)

    def test_position_with_a_single_player(self, salary_cap):
        # One QB, one DST and one TE: each floor is that player's salary, its
        # shifted weight 0, and 2-3-2 cannot be filled.
        rng = np.random.default_rng(71)
        shape = {"QB": 1, "RB": 5, "WR": 6, "TE": 1, "DST": 1}
        for trial in range(20):
            pool = make_pool_with(rng, shape, tie_heavy=(trial % 2 == 0))
            assert solve_flex_configs(*pool_and_row(pool, salary_cap))[0] is None
            assert_matches_oracle(pool, salary_cap)

    def test_player_beyond_every_root_is_never_taken(self):
        # WR9 costs $9,000 <= the cap, but its $4,000 above the WR floor
        # exceeds every root ($3,900 at most): no lineup can hold the player,
        # however many points it projects.
        salary_cap = 46_900
        pool = _FLOOR_POOL + [Player("WR9", "WR", 9000, 500.0)]
        for lineup in solve_flex_configs(*pool_and_row(pool, salary_cap)):
            assert lineup is None or "WR9" not in lineup.players
        assert "WR9" not in optimize_all_flex(*pool_and_row(pool, salary_cap)).players
        assert_matches_oracle(pool, salary_cap)
        # One unit more and it fits the 2-3-2 root exactly.
        assert "WR9" in optimize_all_flex(*pool_and_row(pool, salary_cap + 100)).players


# Each position's largest count over the flex configurations: a pool holding
# exactly these can fill every configuration.
_FULL_SHAPE = ["QB", "RB", "RB", "RB", "WR", "WR", "WR", "WR", "TE", "TE", "DST"]


@st.composite
def pools_and_caps(draw):
    """A small pool with ids shuffled across positions, a cap, and the pool
    less its dominated extra player (None when it has none).

    The pool is ``_FULL_SHAPE`` less up to two players (so a configuration
    can go short) plus up to four of any position.  Salaries step by $1, $50
    or $100, so the salary unit varies; a tie-heavy pool draws FPTS from four
    values and salaries from a narrow band.  On a $50 or $100 step the pool
    may also hold an extra player that every rival of its position
    dominates, priced half a step above the dearest of them: the whole
    pool's salary unit is then finer than the other players' gcd.
    """
    positions = list(_FULL_SHAPE)
    for i in sorted(draw(st.sets(st.integers(0, len(positions) - 1), max_size=2)), reverse=True):
        del positions[i]
    positions += draw(st.lists(st.sampled_from(POSITIONS), max_size=4))
    tie_heavy = draw(st.booleans())
    unit = draw(st.sampled_from([1, 50, 100]))
    salary = st.integers(40, 80 if tie_heavy else 191).map(lambda k: k * unit)
    fpts = st.integers(5, 8).map(float) if tie_heavy else st.floats(1.0, 30.0)
    rows = [(pos, draw(salary), draw(fpts)) for pos in positions]
    extra = False
    if unit > 1 and draw(st.booleans()):
        pos = draw(st.sampled_from(sorted(set(positions))))
        rivals = [s for p, s, _ in rows if p == pos]
        if len(rivals) >= MAX_COUNTS[pos]:
            rows.append((pos, max(rivals) + unit // 2, min(f for *_, f in rows) - 1.0))
            extra = True
    ids = draw(st.permutations([f"P{i:02d}" for i in range(len(rows))]))
    pool = [Player(pid, *row) for pid, row in zip(ids, rows)]
    return pool, draw(st.integers(550, 1300)) * unit, pool[:-1] if extra else None


def assert_block_matches_oracle(pool, rows, salary_cap):
    """Every FPTS row of one block over ``pool`` gives the lineups of its own
    one-row block, and the best of them equals brute force."""
    ids, position, salary, _ = columns(pool)
    block = Tables(Pool(ids, position, salary, salary_cap), rows)
    for r, row in enumerate(rows):
        repriced = [c._replace(predicted_fpts=f) for c, f in zip(pool, row)]
        assert solve_flex_configs(block, r) == solve_flex_configs(
            *pool_and_row(repriced, salary_cap)
        )
        want = brute_force_all_flex(repriced, salary_cap)
        if want is None:
            with pytest.raises(InfeasibleLineupError):
                optimize_all_flex(block, r)
        else:
            lineup = optimize_all_flex(block, r)
            assert lineup.predicted_fpts == pytest.approx(want[0], abs=1e-9)
            assert lineup.players == want[1]


def fpts_rows(n: int):
    """One FPTS row of ``n`` entries, tie-heavy (four integer values, whose
    sums are exact) or not; never both, since lineups of equal real value
    can then round apart by summation order."""
    return st.lists(st.integers(5, 8).map(float), min_size=n, max_size=n) | st.lists(
        st.floats(1.0, 30.0), min_size=n, max_size=n
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(pools_and_caps(), st.data())
def test_random_pools_match_oracle(case, data):
    pool, salary_cap, without_extra = case
    assert_matches_oracle(pool, salary_cap)
    # Caps no lineup reaches, the second one far beyond any budget axis.
    caps = (salary_cap, sum(c.salary for c in pool), 10**30)
    for cap in caps[1:]:
        assert_matches_oracle(pool, cap)
    want = solve_flex_configs(*pool_and_row(pool, salary_cap))
    # Any joint permutation of the columns and the row: the same lineups.
    shuffled = data.draw(st.permutations(pool))
    assert solve_flex_configs(*pool_and_row(shuffled, salary_cap)) == want
    if without_extra is not None:
        assert pool_and_row(pool, salary_cap)[0].pool.unit < gcd(
            *(c.salary for c in without_extra)
        )
        assert solve_flex_configs(*pool_and_row(without_extra, salary_cap)) == want
    # The pool's own row and more in one block, at every cap.
    rows = [[c.predicted_fpts for c in pool]]
    rows += data.draw(st.lists(fpts_rows(len(pool)), min_size=1, max_size=2))
    for cap in caps:
        assert_block_matches_oracle(pool, rows, cap)


# A row over a ``_FULL_SHAPE`` pool that mixes repeated integer FPTS with
# fractional ones.  P05 and P07 are both 5.0 WRs, and the best lineups with
# either one are of equal real value, yet their float sums differ in the last
# bit, so brute force, which adds in another order, may keep the other one.
_MIXED_ROW = [
    8.852021327466865, 26.0, 8.574258975581289, 8.989301565504915, 8.0, 5.0,
    5.563236125747741, 5.0, 26.0, 8.0, 5.0,
]


def test_mixed_rows_match_the_oracle_value():
    """Ties are decided on the computed float sums: on mixed rows each lineup
    is valid and worth brute force's best within 1e-9, whichever ids it holds."""
    rng = np.random.default_rng(37)
    cap = 50_000
    pool = [Player(f"P{i:02d}", pos, 40, 0.0) for i, pos in enumerate(_FULL_SHAPE)]
    rows = [_MIXED_ROW]
    for _ in range(300):
        whole = rng.choice([5.0, 8.0, 26.0], size=len(pool))
        rows.append(np.where(rng.random(len(pool)) < 0.5, whole, rng.uniform(5.0, 9.0, len(pool))))
    ids, position, salary, _ = columns(pool)
    block = Tables(Pool(ids, position, salary, cap), rows)
    salary_by_id, position_by_id = dict(zip(ids, salary)), dict(zip(ids, position))
    for r, row in enumerate(rows):
        lineup = optimize_all_flex(block, r)
        assert validate_lineup(lineup, cap, salary_by_id, position_by_id) == []
        fpts = dict(zip(ids, row))
        assert lineup.predicted_fpts == pytest.approx(sum(fpts[p] for p in lineup.players))
        want = brute_force_all_flex([c._replace(predicted_fpts=f) for c, f in zip(pool, row)], cap)
        assert lineup.predicted_fpts == pytest.approx(want[0], abs=1e-9)


@pytest.fixture(scope="module")
def week8_rows(week8_pool):
    """200 FPTS rows over fixture week 8, one per model: the actual FPTS
    plus noise, the even rows rounded to half points so that lineups tie."""
    actual = np.array([c.predicted_fpts for c in week8_pool])
    rows = actual + np.random.default_rng(8).normal(0.0, 4.0, (200, len(actual)))
    rows[::2] = np.round(rows[::2] * 2) / 2
    return rows


class TestBlocks:
    def test_block_size_never_changes_a_lineup(self, week8_pool, week8_rows, salary_cap,
                                                monkeypatch):
        ids, position, salary, _ = columns(week8_pool)
        pool = Pool(ids, position, salary, salary_cap)
        solved = []
        for size in (1, 7, 200):
            monkeypatch.setattr(optimizer, "TAKE_BYTES", size * pool.row_bytes)
            sizes, lineups = [], []
            for tables in blocks(pool, week8_rows):
                sizes.append(len(tables.fpts))
                lineups += [optimize_all_flex(tables, r) for r in range(len(tables.fpts))]
            assert sizes == [size] * (200 // size) + [200 % size] * (200 % size > 0)
            solved.append(lineups)
        assert solved[0] == solved[1] == solved[2]

    def test_id_order_never_changes_a_lineup(self, week8_pool, week8_rows, salary_cap):
        # Every id renamed to P plus a shuffled number, so id order
        # interleaves the positions.  The odd rows are not rounded, so no
        # two lineups tie and the tie rule, which reads ids, never decides.
        rows = week8_rows[1::2]
        ids, position, salary, _ = columns(week8_pool)
        renamed = [f"P{k:04d}" for k in np.random.default_rng(9).permutation(len(ids))]
        original = dict(zip(renamed, ids))

        def solve(names):
            pool = Pool(names, position, salary, salary_cap)
            return [
                optimize_all_flex(tables, r)
                for tables in blocks(pool, rows)
                for r in range(len(tables.fpts))
            ]

        for want, got in zip(solve(ids), solve(renamed)):
            assert tuple(sorted(original[p] for p in got.players)) == want.players
            assert got.flex_config == want.flex_config
            # Summed in the other id order: equal up to rounding.
            assert got.predicted_fpts == pytest.approx(want.predicted_fpts, rel=1e-12)


class TestStructure:
    def test_lineup_shape_and_slots(self, salary_cap):
        rng = np.random.default_rng(46)
        pool = make_pool(rng, 16)
        lineup = solve_flex_configs(*pool_and_row(pool, salary_cap))[0]
        assert lineup.flex_config == (2, 3, 2)
        assert len(lineup.players) == LINEUP_SIZE
        assert lineup.players == tuple(sorted(lineup.players))
        by_id = {c.player_id: c for c in pool}
        ids, position, salary, fpts = columns([by_id[p] for p in lineup.players])
        slots = assign_slots(ids, position, fpts, lineup.flex_config)
        labels = [slot for slot, _ in slots]
        assert labels.count("QB") == 1 and labels.count("DST") == 1
        assert labels.count("FLEX") == 1
        assert sorted(pid for _, pid in slots) == sorted(lineup.players)
        assert sum(salary) <= salary_cap

    def test_flex_slot_gets_lowest_projection_of_its_position(self, salary_cap):
        pool = [
            Player("QB1", "QB", 5000, 20.0),
            Player("RB1", "RB", 5000, 15.0),
            Player("RB2", "RB", 5000, 14.0),
            Player("WR1", "WR", 5000, 13.0),
            Player("WR2", "WR", 5000, 12.0),
            Player("WR3", "WR", 5000, 11.0),
            Player("TE1", "TE", 5000, 10.0),
            Player("TE2", "TE", 5000, 9.0),
            Player("DST1", "DST", 5000, 8.0),
        ]
        lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))  # only 2-3-2 fits this pool
        assert lineup.flex_config == (2, 3, 2)
        ids, position, _, fpts = columns(pool)
        slots = assign_slots(ids, position, fpts, lineup.flex_config)
        assert dict(slots)["FLEX"] == "TE2"  # second TE is the flex
        assert dict(slots)["TE"] == "TE1"
        # Input order does not matter.
        assert assign_slots(ids[::-1], position[::-1], fpts[::-1], lineup.flex_config) == slots

    def test_position_shortfall(self, salary_cap):
        pool = [c for c in make_pool(np.random.default_rng(47), 16) if c.position != "DST"]
        with pytest.raises(InfeasibleLineupError, match="position DST: need 1 candidates, have 0"):
            optimize_all_flex(*pool_and_row(pool, salary_cap))

    @pytest.mark.parametrize(
        "shape",
        [
            {"QB": 1, "RB": 2, "WR": 3, "TE": 2, "DST": 1},
            {"QB": 2, "RB": 3, "WR": 4, "TE": 1, "DST": 1},
            {"QB": 1, "RB": 2, "WR": 3, "TE": 1, "DST": 1},
            {"QB": 0, "RB": 3, "WR": 4, "TE": 2, "DST": 0},
            {"QB": 1, "RB": 1, "WR": 5, "TE": 0, "DST": 1},
        ],
    )
    def test_shortfalls_match_the_oracle_counts(self, shape):
        # Recounted from the oracle's own configurations; a configuration
        # without a shortfall has a lineup once the cap cannot bind.
        pool = make_pool_with(np.random.default_rng(49), shape)
        want = []
        for counts in FLEX_COUNTS:
            short = []
            for pos, needed in counts.items():
                have = sum(1 for c in pool if c.position == pos)
                if have < needed:
                    short.append(f"position {pos}: need {needed} candidates, have {have}")
            want.append(short)
            assert (brute_force_config(pool, counts, 10**9) is None) == bool(short)
        assert optimizer.shortfalls(Counter(c.position for c in pool)) == want

    def test_infeasible_when_cap_too_tight(self):
        pool = make_pool(np.random.default_rng(48), 16)
        with pytest.raises(InfeasibleLineupError):
            optimize_all_flex(*pool_and_row(pool, 10_000))

    def test_monotone_in_cap(self, salary_cap):
        rng = np.random.default_rng(49)
        for _ in range(10):
            pool = make_pool(rng, 15)
            try:
                tight = optimize_all_flex(*pool_and_row(pool, 50_000))
            except InfeasibleLineupError:
                continue
            loose = optimize_all_flex(*pool_and_row(pool, 60_000))
            assert loose.predicted_fpts >= tight.predicted_fpts - 1e-12

    def test_adding_a_candidate_never_hurts(self, salary_cap):
        rng = np.random.default_rng(50)
        for _ in range(10):
            pool = make_pool(rng, 15)
            base = optimize_all_flex(*pool_and_row(pool, salary_cap))
            bigger = pool + [Player("ZZZ", "WR", 3000, float(rng.uniform(1, 30)))]
            again = optimize_all_flex(*pool_and_row(bigger, salary_cap))
            assert again.predicted_fpts >= base.predicted_fpts - 1e-12

    def test_scaling_projections_preserves_identity(self, salary_cap):
        rng = np.random.default_rng(51)
        pool = make_pool(rng, 16)
        base = optimize_all_flex(*pool_and_row(pool, salary_cap))
        scaled = [
            Player(c.player_id, c.position, c.salary, 2.0 * c.predicted_fpts)
            for c in pool
        ]
        again = optimize_all_flex(*pool_and_row(scaled, salary_cap))
        assert again.players == base.players


class TestModalAndScoring:
    def lineup(self, ids, fpts=100.0):
        players = tuple(sorted(ids))
        return Lineup(players=players, flex_config=(2, 3, 2), predicted_fpts=fpts)

    def test_modal_picks_most_frequent(self):
        a, b = self.lineup("ABCDEFGHI"), self.lineup("ABCDEFGHJ")
        assert modal_lineup([a, b, b, a, b]).players == b.players

    def test_modal_tie_breaks_lexicographically(self):
        a, b = self.lineup("ABCDEFGHJ"), self.lineup("ABCDEFGHI")
        assert modal_lineup([a, b]).players == b.players

    def test_modal_empty_rejected(self):
        with pytest.raises(ValueError):
            modal_lineup([])


class TestValidator:
    def test_accepts_solver_output(self, salary_cap):
        pool = make_pool(np.random.default_rng(52), 16)
        lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
        salary = {c.player_id: c.salary for c in pool}
        position = {c.player_id: c.position for c in pool}
        assert validate_lineup(lineup, salary_cap, salary, position) == []

    def test_flags_violations(self, salary_cap):
        pool = make_pool(np.random.default_rng(53), 16)
        lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
        position = {c.player_id: c.position for c in pool}
        # Inflated salaries push the honest total over the cap.
        salary = {c.player_id: 40_000 for c in pool}
        problems = validate_lineup(lineup, salary_cap, salary, position)
        assert any("exceeds cap" in p for p in problems)
        # Corrupt a position so the counts no longer match.
        position[lineup.players[0]] = "QB" if position[lineup.players[0]] != "QB" else "RB"
        salary = {c.player_id: c.salary for c in pool}
        problems = validate_lineup(lineup, salary_cap, salary, position)
        assert any(p.startswith("position") for p in problems)

    def test_flags_min_salary(self, salary_cap):
        pool = make_pool(np.random.default_rng(54), 16)
        lineup = optimize_all_flex(*pool_and_row(pool, salary_cap))
        salary = {c.player_id: c.salary for c in pool}
        position = {c.player_id: c.position for c in pool}
        problems = validate_lineup(lineup, salary_cap, salary, position, min_salary=60_000)
        assert any("below minimum" in p for p in problems)
