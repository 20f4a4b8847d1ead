"""Exact salary-capped lineup optimization over per-position knapsack tables.

The solver maximizes predicted FPTS subject to the salary cap and the exact
position counts of each of the three flex configurations.  Salaries are
reduced by their gcd, and a player's weight is its salary in those units
above its position's floor, the cheapest salary of that position in the
pool.  The optimum has a zero optimality gap by construction.

A ``Pool`` holds the candidates, checked and scaled once for every FPTS row
solved over it.  ``Tables`` solves a block of FPTS rows over a pool at once.
Per position, a suffix DP over its players in id order gives, for every
row, the best total of exactly ``k`` players (``k`` up to the position's
largest count) whose weights sum to exactly ``b``, and a take bit per
player and cell.  Exact-weight (max,+)-convolution then builds
``X = QB ⊕ DST``, ``F_t = X ⊕ TE_t`` and ``G_rw = RB_r ⊕ WR_w``, and a
configuration's optimum is the best ``F[bF] + G[bG]`` with ``bF + bG`` at
most its root.  ``blocks`` cuts the rows into blocks whose take bits fit
``TAKE_BYTES``; ``solve_flex_configs`` and ``optimize_all_flex`` read one
row's lineups back from its block.  A ``Lineup`` is its sorted ids, flex
configuration and predicted total; ``assign_slots`` labels one lineup.

Tie rule.  A split of a configuration's budget over its five positions is
tied when every sum on the way down equals its table entry bit for bit:
``F[bF] + G[bG]`` the optimum, ``X[bX] + TE_t[bF - bX] == F[bF]``,
``QB[bQ] + DST[bX - bQ] == X[bX]`` and ``RB_r[bR] + WR_w[bG - bR] ==
G[bG]``.  In each position's cell the read-back walks the players in id
order and takes each whose take bit (take >= skip) is set, which gives the
cell's lexicographically smallest set.  The lineup is the smallest sorted
id tuple over all tied splits.  In exact arithmetic every optimal lineup
lies on a tied split, so exact ties resolve to the lexicographically
smallest sorted id tuple; the comparison has no tolerance, so a lineup
better by any margin, however small, wins over a smaller id tuple.  Ties are
decided on the computed float sums: where a row mixes integer FPTS with
fractional ones, two lineups of equal real value can sum a last bit apart,
and the larger float wins whatever its ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .data import POSITION_INDEX, POSITIONS
from .errors import InfeasibleLineupError

# Slots per position of the three flex configurations: the one place the
# lineup's shape is written down.  A lineup names its configuration by the
# (RB, WR, TE) counts, so these tuples index FLEX_CONFIGS in table order.
POSITION_COUNTS = (
    {"QB": 1, "RB": 2, "WR": 3, "TE": 2, "DST": 1},
    {"QB": 1, "RB": 2, "WR": 4, "TE": 1, "DST": 1},
    {"QB": 1, "RB": 3, "WR": 3, "TE": 1, "DST": 1},
)
FLEX_CONFIGS = tuple((c["RB"], c["WR"], c["TE"]) for c in POSITION_COUNTS)
_COUNTS_BY_CONFIG = dict(zip(FLEX_CONFIGS, POSITION_COUNTS))
LINEUP_SIZE = sum(POSITION_COUNTS[0].values())

# Slots every configuration has, and the most any configuration needs.
_FIXED_SLOTS = {p: min(c[p] for c in POSITION_COUNTS) for p in POSITIONS}
MAX_COUNTS = {p: max(c[p] for c in POSITION_COUNTS) for p in POSITIONS}


def shortfalls(have) -> list[list[str]]:
    """Per flex configuration, in FLEX_CONFIGS order, the positions that
    ``have`` (players per position; a Counter, say) cannot fill, in the
    words of every error that names them; empty for a configuration the
    pool fills.  Ingest, the solver and the random sampler serve a pool
    while one of these lists is empty."""
    return [
        [f"position {p}: need {k} candidates, have {have[p]}" for p, k in c.items() if have[p] < k]
        for c in POSITION_COUNTS
    ]


def shortfall_list(short, fills: str = "") -> str:
    """``shortfalls``' lists as every refusal words them, in FLEX_CONFIGS
    order; a configuration with none reads ``fills``."""
    return "; ".join(f"{config}: {', '.join(s) or fills}" for config, s in zip(FLEX_CONFIGS, short))


@dataclass
class Lineup:
    players: tuple[str, ...]  # sorted player ids; the lineup's identity
    flex_config: tuple[int, int, int]
    predicted_fpts: float


def assign_slots(players, position, fpts, config) -> list[tuple[str, str]]:
    """(slot label, player_id) per player of one lineup, grouped by position.

    The three sequences are parallel, in any order.  Within a position the
    higher projection (then the smaller id) takes the lower slot number; the
    flex position's extra player, its lowest projection, is the FLEX slot.
    """
    counts = _COUNTS_BY_CONFIG[config]
    flex_pos = next(p for p in POSITIONS if counts[p] > _FIXED_SLOTS[p])
    slots = []
    for pos in POSITIONS:
        chosen = sorted((-f, pid) for pid, p, f in zip(players, position, fpts) if p == pos)
        base = _FIXED_SLOTS[pos]
        for k, (_, pid) in enumerate(chosen):
            if pos == flex_pos and k == base:
                label = "FLEX"
            elif base == 1:
                label = pos
            else:
                label = f"{pos}{k + 1}"
            slots.append((label, pid))
    return slots


class Pool:
    """The candidates that every FPTS row of one optimize run is solved over.

    ``ids``, ``position`` and ``salary`` are parallel columns in any order;
    columns of different lengths, an unknown position, a salary that is not
    a positive integer (a bool included) or a repeated id raise ValueError.
    The pool keeps them in player-id order (``order[k]`` is the caller's
    index of the k-th) with what the tables need besides the FPTS rows: the
    salary ``unit``, each flex configuration's ``roots``, and per position,
    in POSITIONS order, ``groups``: its players' indices, their weights and
    the last cell of its budget axis.  ``row_bytes`` is the size of one
    row's take bits.
    """

    def __init__(self, ids, position, salary, salary_cap: int):
        columns = (ids, position, salary)
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"pool columns differ in length: {[len(c) for c in columns]}")
        for pid, pos, s in zip(ids, position, salary):
            if pos not in POSITIONS:
                raise ValueError(f"unknown position {pos!r} for {pid}")
            if isinstance(s, (bool, np.bool_)) or not isinstance(s, (int, np.integer)) or s <= 0:
                raise ValueError(f"salary must be a positive integer, got {s!r} for {pid}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        for a, b in zip(order, order[1:]):
            if ids[a] == ids[b]:
                raise ValueError(f"duplicate candidate id {ids[b]!r}")
        self.order = np.array(order, dtype=np.intp)
        self.ids = [str(ids[j]) for j in order]
        self.position = np.array([str(position[j]) for j in order], dtype=str)
        self.salary = np.array([int(salary[j]) for j in order], dtype=np.int64)
        self.salary_cap = salary_cap
        self.unit = gcd(*self.salary.tolist())
        axes = [POSITION_INDEX[p] for p in self.position.tolist()]
        units = [s // self.unit for s in self.salary.tolist()]
        # Cheapest unit salary per position axis; 0 for a position the pool lacks.
        floor = [
            min((w for a, w in zip(axes, units) if a == i), default=0)
            for i in POSITION_INDEX.values()
        ]
        weights = [w - floor[a] for a, w in zip(axes, units)]
        budget_max = salary_cap // self.unit if self.unit else 0
        # A root stops at what its counts can spend, the counts[p] largest
        # weights of each position: from there on the cap cannot bind, and
        # any larger root reads back the same lineup.
        dearest = [
            sorted((w for a, w in zip(axes, weights) if a == i), reverse=True)
            for i in POSITION_INDEX.values()
        ]
        self.roots = [
            min(
                budget_max - sum(k * floor[POSITION_INDEX[p]] for p, k in counts.items()),
                sum(sum(dearest[POSITION_INDEX[p]][:k]) for p, k in counts.items()),
            )
            for counts in POSITION_COUNTS
        ]
        # A position's budget axis stops at what its largest count can spend
        # or at the largest root, whichever is less: no root reads past it.
        top = max(self.roots)
        self.groups = []
        for i, k in enumerate(MAX_COUNTS.values()):
            members = [j for j, a in enumerate(axes) if a == i]
            budget = max(0, min(top, sum(dearest[i][:k])))
            self.groups.append((members, [weights[j] for j in members], budget))
        self.row_bytes = sum(
            len(members) * k * (budget + 1)
            for (members, _, budget), k in zip(self.groups, MAX_COUNTS.values())
        )


def _position_table(fpts, members, weights, count: int, budget: int):
    """Suffix DP over one position's players, from the last id back, for
    every row of ``fpts`` (rows, pool in id order).

    Returns ``(value, take)``.  ``value[row, k, b]`` is the best total of
    exactly ``k`` of the players whose weights sum to exactly ``b``, -inf
    where no set does.  ``take[i, row, k - 1, b]`` is set where, among the
    players from the i-th on, taking the i-th into a set of ``k`` with
    weight ``b`` is at least as good as skipping it; it is clear where the
    player's weight exceeds ``b``.  A player heavier than the axis is never
    taken.  Each step touches only the counts its suffix can fill.
    """
    value = np.full((len(fpts), count + 1, budget + 1), -np.inf)
    value[:, 0, 0] = 0.0
    take = np.zeros((len(members), len(fpts), count, budget + 1), dtype=bool)
    live = 0  # largest count the suffix can fill
    for i in range(len(members) - 1, -1, -1):
        w = weights[i]
        if w > budget:
            continue
        live = min(live + 1, count)
        gain = fpts[:, members[i], None, None] + value[:, :live, : budget + 1 - w]
        dest = value[:, 1 : live + 1, w:]
        np.greater_equal(gain, dest, out=take[i, :, :live, w:])
        np.maximum(dest, gain, out=dest)
    return value, take


def _maxplus(a, b, length: int):
    """Exact-weight (max,+)-convolution of two tables stacked on a row axis,
    cut at ``length`` budget cells: ``out[:, s]`` is the best ``a[:, i] +
    b[:, s - i]``.  The loop runs over the finite columns of the shorter."""
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    out = np.full((len(a), min(a.shape[1] + b.shape[1] - 1, length)), -np.inf)
    for i in np.flatnonzero(np.isfinite(a[:, : out.shape[1]]).any(axis=0)).tolist():
        part = out[:, i : i + b.shape[1]]
        np.maximum(part, a[:, i, None] + b[:, : part.shape[1]], out=part)
    return out


# Each configuration's two halves, (QB ⊕ DST) ⊕ TE and RB ⊕ WR, as trees
# whose leaves are (position, count).
_HALVES = [
    (((("QB", c["QB"]), ("DST", c["DST"])), ("TE", c["TE"])), (("RB", c["RB"]), ("WR", c["WR"])))
    for c in POSITION_COUNTS
]

# Take bits one block of rows may hold.  A block takes as many rows as fit,
# at least one.
TAKE_BYTES = 4 << 20


class Tables:
    """The knapsack tables of a block of FPTS rows over one pool.

    ``rows`` is 2-D, one FPTS row per model in the order of the columns the
    pool was built from; a row of another length raises ValueError.
    ``table`` maps a leaf (position, count) to that count's slice of the
    position's value table, and an inner node (left, right) of ``_HALVES``
    to the (max,+)-convolution of its children; every table is stacked on
    the row axis.  ``take`` holds each position's take bits.
    """

    def __init__(self, pool: Pool, rows):
        fpts = np.asarray(rows, dtype=float)
        if fpts.ndim != 2 or fpts.shape[1] != len(pool.ids):
            raise ValueError(
                f"FPTS row has {fpts.shape[-1]} entries for a pool of {len(pool.ids)}"
            )
        self.pool = pool
        self.fpts = fpts[:, pool.order]
        self.table, self.take = {}, {}
        for (pos, count), (members, weights, budget) in zip(MAX_COUNTS.items(), pool.groups):
            value, self.take[pos] = _position_table(self.fpts, members, weights, count, budget)
            for k in range(1, count + 1):
                self.table[pos, k] = value[:, k]
        length = max(0, *pool.roots) + 1
        self.reach = {}  # prefix max of each right half: its best within a budget
        for left, right in _HALVES:
            self._build(left, length)
            self.reach[right] = np.maximum.accumulate(self._build(right, length), axis=1)

    def _build(self, node, length: int):
        """The table of ``node``, convolved from its children's on first use."""
        if node not in self.table:
            self.table[node] = _maxplus(
                self._build(node[0], length), self._build(node[1], length), length
            )
        return self.table[node]

    def chosen(self, r: int, halves, root: int, memo: dict) -> Optional[tuple]:
        """Row ``r``'s lineup of one configuration as sorted pool indices, or
        None when no lineup fits: the smallest over the tied splits.
        ``memo`` caches the row's cell read-backs across configurations."""
        if root < 0:
            return None
        left, right = halves
        f, g = self.table[left][r], self.table[right][r]
        n = min(len(f), root + 1)
        # Rounding is monotone, so every bF with a tied bG reaches the best.
        totals = f[:n] + self.reach[right][r][np.minimum(root - np.arange(n), len(g) - 1)]
        best = totals.max()
        if not np.isfinite(best):
            return None
        return min(
            tuple(sorted(self._read(r, left, bf, memo) + self._read(r, right, bg, memo)))
            for bf in np.flatnonzero(totals == best).tolist()
            for bg in np.flatnonzero(f[bf] + g[: root - bf + 1] == best).tolist()
        )

    def _read(self, r: int, node, b: int, memo: dict) -> tuple:
        """Smallest sorted pool-index tuple over the tied splits of ``node``'s
        cell ``b`` in row ``r``, whose value is finite."""
        key = node, b
        if key not in memo:
            if isinstance(node[0], str):
                memo[key] = self._walk(r, *node, b)
            else:
                left, right = node
                lt, rt = self.table[left][r], self.table[right][r]
                lo, hi = max(0, b - len(rt) + 1), min(b, len(lt) - 1)
                sums = lt[lo : hi + 1] + rt[b - hi : b - lo + 1][::-1]
                tied = lo + np.flatnonzero(sums == self.table[node][r][b])
                memo[key] = min(
                    tuple(sorted(self._read(r, left, i, memo) + self._read(r, right, b - i, memo)))
                    for i in tied.tolist()
                )
        return memo[key]

    def _walk(self, r: int, pos: str, k: int, b: int) -> tuple:
        """The smallest set of cell (k, b) of ``pos`` in row ``r``: walk the
        players in id order, jumping to the next set take bit."""
        members, weights, _ = self.pool.groups[POSITION_INDEX[pos]]
        take = self.take[pos]
        chosen, i = [], 0
        while k:
            i += int(np.argmax(take[i:, r, k - 1, b]))
            chosen.append(members[i])
            b, k, i = b - weights[i], k - 1, i + 1
        return tuple(chosen)


def blocks(pool: Pool, rows):
    """``Tables`` over consecutive blocks of ``rows`` (2-D, one FPTS row per
    model), each of as many rows as ``TAKE_BYTES`` of take bits hold."""
    step = max(1, TAKE_BYTES // max(1, pool.row_bytes))
    for start in range(0, len(rows), step):
        yield Tables(pool, rows[start : start + step])


def lineup_total(fpts) -> float:
    """The sum of ``fpts``, added left to right: sum() compensates its float
    additions from Python 3.12 on, which would move a total's last bits."""
    total = 0.0
    for value in fpts:
        total += value
    return total


def solve_flex_configs(tables: Tables, r: int) -> list[Optional[Lineup]]:
    """Provably optimal lineup of each flex configuration for row ``r`` of
    ``tables``, in FLEX_CONFIGS order; an infeasible one is None.  Exact
    objective ties resolve to the lexicographically smallest sorted
    player-id tuple."""
    pool, memo = tables.pool, {}
    fpts = tables.fpts[r].tolist()
    lineups = []
    for config, halves, root in zip(FLEX_CONFIGS, _HALVES, pool.roots):
        chosen = tables.chosen(r, halves, root, memo)
        if chosen is None:
            lineups.append(None)
            continue
        # Chosen indices are in id order, so predicted_fpts is summed in id
        # order: it decides the cross-configuration choice down to its last bit.
        total = lineup_total(fpts[j] for j in chosen)
        lineups.append(Lineup(tuple(pool.ids[j] for j in chosen), config, total))
    return lineups


def optimize_all_flex(tables: Tables, r: int) -> Lineup:
    """The best of ``solve_flex_configs(tables, r)``; exact objective ties
    resolve to the lexicographically smallest sorted player-id tuple."""
    results = [lu for lu in solve_flex_configs(tables, r) if lu]
    if results:
        return min(results, key=lambda lu: (-lu.predicted_fpts, lu.players))
    short = shortfalls(Counter(tables.pool.position.tolist()))
    cap = f"no lineup fits the ${tables.pool.salary_cap:,} salary cap"
    raise InfeasibleLineupError("all flex configurations infeasible: " + shortfall_list(short, cap))


def modal_lineup(lineups: list[Lineup]) -> Lineup:
    """Most frequent lineup identity (set of 9 ids, flex assignment ignored).

    Frequency ties resolve to the lexicographically smallest id tuple.
    """
    if not lineups:
        raise ValueError("empty lineup list")
    counts = Counter(lu.players for lu in lineups)
    winner = min(counts, key=lambda ident: (-counts[ident], ident))
    return next(lu for lu in lineups if lu.players == winner)

