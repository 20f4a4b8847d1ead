"""Exact salary-capped lineup optimization via dynamic programming.

The solver maximizes predicted FPTS subject to the salary cap and the exact
position counts of each of the three flex configurations; one DP, whose
needed counts run up to each position's largest count, serves all three.
Salaries are reduced by their gcd so the DP runs over a small grid of
salary units, and the optimum has a zero optimality gap by construction.

A ``Pool`` holds the candidates, checked and scaled once for every FPTS row
solved over it.  A ``Lineup`` is its sorted ids, flex configuration and
predicted total; ``assign_slots`` labels one lineup.

Ties among equal-objective lineups resolve to the lexicographically
smallest sorted player-id tuple.  The DP reads the candidates in player-id
order and its read-back takes a candidate whenever taking is at least as
good as skipping, so among all optimal lineups it picks the one whose
smallest differing id is smallest.  The comparison is exact: a lineup
better by any margin, however small, wins over a smaller id tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .data import POSITIONS
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
_POS_INDEX = {p: i for i, p in enumerate(POSITIONS)}


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


def undominated(pool: Pool, fpts: np.ndarray) -> np.ndarray:
    """Mask of the pool's players that can appear in the lex-min optimal lineup.

    ``fpts`` is a float array in the pool's player-id order.  A rival of the
    same position that costs no more and has higher FPTS, or equal FPTS and
    a smaller id, is a dominator.  With at least as many dominators as the
    position's largest count, any lineup using the player can swap one in,
    so the player is safe to drop.  Equal-FPTS rivals with larger ids are
    not dominators: swapping them in could break the lexicographic tie rule.
    """
    keep = np.zeros(len(fpts), dtype=bool)
    for g, k, cheaper, earlier in pool.rivals:
        f = fpts[g]
        # [i, o]: player o dominates player i; index order is id order.
        better = (f > f[:, None]) | ((f == f[:, None]) & earlier)
        keep[g[(cheaper & better).sum(axis=1) < k]] = True
    return keep


class Pool:
    """The candidates that every FPTS row of one optimize run is solved over.

    ``ids``, ``position`` and ``salary`` are parallel columns in any order;
    columns of different lengths, an unknown position, a salary that is not
    a positive integer (a bool included) or a repeated id raise ValueError.
    The pool keeps them in player-id order (``order[k]`` is the caller's
    index of the k-th) with what the DP needs besides the row: the salary
    ``unit``, each player's position ``axes`` and ``weights`` above its
    position's floor, and each flex configuration's ``roots``; and, per
    position, the masks ``undominated`` reads besides the row (``rivals``).
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
        self.axes = [_POS_INDEX[p] for p in self.position.tolist()]
        units = [s // self.unit for s in self.salary.tolist()]
        # Cheapest unit salary per position axis; 0 for a position the pool lacks.
        floor = [
            min((w for a, w in zip(self.axes, units) if a == i), default=0)
            for i in _POS_INDEX.values()
        ]
        self.weights = [w - floor[a] for a, w in zip(self.axes, units)]
        budget_max = salary_cap // self.unit if self.unit else 0
        # A root stops at what its counts can spend, the counts[p] largest
        # weights of each position: from there on the cap cannot bind, and
        # any larger root reads back the same lineup.
        dearest = [
            sorted((w for a, w in zip(self.axes, self.weights) if a == i), reverse=True)
            for i in _POS_INDEX.values()
        ]
        self.roots = [
            min(
                budget_max - sum(k * floor[_POS_INDEX[p]] for p, k in counts.items()),
                sum(sum(dearest[_POS_INDEX[p]][:k]) for p, k in counts.items()),
            )
            for counts in POSITION_COUNTS
        ]
        # Per position for ``undominated``: its pool indices, its largest
        # count, and which rivals cost no more or have a smaller id.
        self.rivals = []
        for pos, k in MAX_COUNTS.items():
            g = np.flatnonzero(self.position == pos)
            s = self.salary[g]
            self.rivals.append((g, k, s <= s[:, None], np.tri(len(g), k=-1, dtype=bool)))


def _dp_solve(pool: Pool, kept, fpts) -> list[Optional[list[int]]]:
    """Suffix DP over (needed counts, budget above the floors); one chosen set per config.

    ``kept`` lists the pool indices the DP may take, ascending, and ``fpts``
    is the FPTS row in the pool's id order; a chosen set is a sorted list
    of pool indices.  The needed counts run up to the largest count of each
    position over the flex configurations, so every configuration is a
    root of the same grid.  The budget axis is floor-indexed: a cell with
    needed counts ``n`` and budget ``b`` salary units sits at
    ``u = b - sum(n[p] * floor[p])``, where ``floor[p]`` is the cheapest
    unit salary of position ``p`` in the pool, and a take moves ``u`` down
    by the candidate's salary less its floor, which is never negative.
    Configuration ``c`` is read back from the root
    ``cap // unit - sum(counts_c[p] * floor[p])``, or from the most its
    counts can spend above the floors where that is less; the axis runs to
    the largest root.  Every cell a read-back from the smaller root reaches
    has at least the budget its remaining picks can spend, so its take bit
    is that of the cell the larger root would reach.  A negative root, or
    one whose value is not finite (pool short a position, or nothing fits
    the cap), yields None.  A take still
    reads the cell it read on an axis from zero, so every kept cell, and its
    take bit, equal those of that axis.

    The unit and floors are the whole pool's.  ``undominated`` keeps each
    position's best cheapest player, so the kept players have the same
    floors; a unit finer than their gcd leaves the sets that fit the cap,
    and so every value read back, unchanged.

    Each step touches only the needed counts its suffix can fill: the rest
    of the grid stays -inf.  Per candidate, over the cells it can fill, a
    take bit (take >= skip) is stored; the value grid rolls.
    Reconstruction walks the candidates in id order and takes each one
    whose take bit is set, so the chosen set is the lexicographically
    smallest sorted id tuple among all optimal lineups.
    """
    top = max(pool.roots)
    if top < 0:  # the floors alone exceed the cap
        return [None] * len(POSITION_COUNTS)
    axes = [pool.axes[j] for j in kept]
    weights = [pool.weights[j] for j in kept]
    shape = tuple(MAX_COUNTS[p] + 1 for p in POSITIONS) + (top + 1,)

    # value[needed counts, budget above the floors]: best completion from the suffix.
    value = np.full(shape, -np.inf)
    value[(0,) * len(POSITIONS)] = 0.0
    live = [0] * len(POSITIONS)  # largest needed count the suffix can fill
    take_bits = [None] * len(axes)
    for i in range(len(axes) - 1, -1, -1):
        axis, w = axes[i], weights[i]
        if w > top:
            continue
        live[axis] = min(live[axis] + 1, shape[axis] - 1)
        grid = value[tuple(slice(0, k + 1) for k in live)]
        take_view = [slice(None)] * len(shape)
        take_view[axis] = slice(1, None)
        take_view[-1] = slice(w, None)
        src_view = [slice(None)] * len(shape)
        src_view[axis] = slice(0, -1)
        src_view[-1] = slice(0, top + 1 - w)
        take_vals = fpts[kept[i]] + grid[tuple(src_view)]
        dest = grid[tuple(take_view)]
        take_bits[i] = take_vals >= dest
        np.maximum(dest, take_vals, out=dest)

    solutions = []
    for counts, root in zip(POSITION_COUNTS, pool.roots):
        need = [counts[p] for p in POSITIONS]
        if root < 0 or not np.isfinite(value[tuple(need) + (root,)]):
            solutions.append(None)
            continue
        chosen = []
        budget = root
        for i, (axis, w) in enumerate(zip(axes, weights)):
            if need[axis] == 0 or w > budget:
                continue
            cell = list(need) + [budget - w]
            cell[axis] -= 1
            if take_bits[i][tuple(cell)]:
                chosen.append(kept[i])
                need[axis] -= 1
                budget -= w
                if not any(need):
                    break
        solutions.append(chosen)
    return solutions


def solve_flex_configs(pool: Pool, fpts) -> list[Optional[Lineup]]:
    """Provably optimal lineup of each flex configuration, in FLEX_CONFIGS order.

    ``fpts`` is one FPTS row in the order of the columns the pool was built
    from; a row of another length raises ValueError.  Only the
    ``undominated`` players of the row go to the DP, which serves all three
    configurations; an infeasible one is None.  Exact objective ties
    resolve to the lexicographically smallest sorted player-id tuple.
    """
    if len(fpts) != len(pool.ids):
        raise ValueError(f"FPTS row has {len(fpts)} entries for a pool of {len(pool.ids)}")
    row = np.asarray(fpts, dtype=float)[pool.order]
    kept = np.flatnonzero(undominated(pool, row)).tolist()
    fpts = row.tolist()
    # Chosen indices are in id order, so predicted_fpts is summed in id
    # order: it decides the cross-configuration choice down to its last bit.
    return [
        None if chosen is None
        else Lineup(tuple(pool.ids[j] for j in chosen), config, sum(fpts[j] for j in chosen))
        for config, chosen in zip(FLEX_CONFIGS, _dp_solve(pool, kept, fpts))
    ]


def optimize_all_flex(pool: Pool, fpts) -> Lineup:
    """The best of ``solve_flex_configs(pool, fpts)``; exact objective ties
    resolve to the lexicographically smallest sorted player-id tuple."""
    results = [lu for lu in solve_flex_configs(pool, fpts) if lu]
    if results:
        return min(results, key=lambda lu: (-lu.predicted_fpts, lu.players))
    available = Counter(pool.position.tolist())
    reasons = []
    for config, counts in zip(FLEX_CONFIGS, POSITION_COUNTS):
        short = [
            f"position {p}: need {k} candidates, have {available[p]}"
            for p, k in counts.items()
            if available[p] < k
        ]
        reason = ", ".join(short) or f"no lineup fits the ${pool.salary_cap:,} salary cap"
        reasons.append(f"{config}: {reason}")
    raise InfeasibleLineupError("all flex configurations infeasible: " + "; ".join(reasons))


def modal_lineup(lineups: list[Lineup]) -> Lineup:
    """Most frequent lineup identity (set of 9 ids, flex assignment ignored).

    Frequency ties resolve to the lexicographically smallest id tuple.
    """
    if not lineups:
        raise ValueError("empty lineup list")
    counts = Counter(lu.players for lu in lineups)
    winner = min(counts, key=lambda ident: (-counts[ident], ident))
    return next(lu for lu in lineups if lu.players == winner)

