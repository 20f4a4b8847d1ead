"""Exact salary-capped lineup optimization via dynamic programming.

The solver maximizes predicted FPTS subject to the salary cap and the exact
position counts of each of the three flex configurations; one DP, whose
needed counts run up to each position's largest count, serves all three.
Salaries are reduced by their gcd so the DP runs over a small grid of
salary units, and the optimum has a zero optimality gap by construction.

The pool is four parallel columns: player ids, positions, salaries and
predicted FPTS.  The solver checks them and sorts them by id once per call,
then works on index lists.  A ``Lineup`` is its sorted ids, flex
configuration and predicted total; ``assign_slots`` labels one lineup.

Every lineup has exactly nine players, so the budget axis starts above each
position's salary floor, its cheapest player in the pool: a cell that needs
``n[p]`` more players of each position is stored at its budget less
``sum(n[p] * floor[p])``, and a player takes ``salary - floor[p]`` units.  The
cells this drops are those below the floors, which no set of players can
fill, and those above every configuration's root, which no read-back
reaches.  Every kept cell holds the same sum of the same floats as on an
axis from zero, so the take bits, and with them every lineup, are
unchanged.  On fixture week 8 ($100 units) the axis is 240 units long, not
501.

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
from .errors import InfeasibleLineupError, PositionShortfallError

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
_MAX_COUNTS = {p: max(c[p] for c in POSITION_COUNTS) for p in POSITIONS}
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


def undominated(position, salary, fpts) -> np.ndarray:
    """Mask of the players that can appear in the lex-min optimal lineup.

    The arrays are in player_id order.  A rival of the same position that
    costs no more and has higher FPTS, or equal FPTS and a smaller id, is a
    dominator.  With at least as many dominators as the position's largest
    count, any lineup using the player can swap one in, so the player is
    safe to drop.  Equal-FPTS rivals with larger ids are not dominators:
    swapping them in could break the lexicographic tie rule.
    """
    position, salary = np.asarray(position), np.asarray(salary)
    fpts = np.asarray(fpts, dtype=float)
    keep = np.zeros(len(fpts), dtype=bool)
    for pos, k in _MAX_COUNTS.items():
        g = np.flatnonzero(position == pos)
        s, f = salary[g], fpts[g]
        # dominates[i, o]: player o dominates player i; index order is id order.
        better = (f > f[:, None]) | ((f == f[:, None]) & np.tri(len(g), k=-1, dtype=bool))
        dominates = (s <= s[:, None]) & better
        keep[g[dominates.sum(axis=1) < k]] = True
    return keep


def _dp_solve(position, salary, fpts, cap: int) -> list[Optional[list[int]]]:
    """Suffix DP over (needed counts, budget above the floors); one chosen set per config.

    The columns are in player_id order, and the DP reads the candidates in
    that order; a chosen set is a sorted list of indices into the columns.
    The needed counts run up to the largest count of each position over the
    flex configurations, so every configuration is a root of the same grid.
    The budget axis is floor-indexed: a cell with needed counts ``n`` and
    budget ``b`` salary units sits at ``u = b - sum(n[p] * floor[p])``, where
    ``floor[p]`` is the cheapest unit salary of position ``p`` in the pool,
    and a take moves ``u`` down by the candidate's salary less its floor,
    which is never negative.  Configuration ``c`` is read back from the root
    ``cap // unit - sum(counts_c[p] * floor[p])``; the axis runs to the
    largest root.  A negative root, or one whose value is not finite (pool
    short a position, or nothing fits the cap), yields None.  A take still
    reads the cell it read on an axis from zero, so every kept cell, and its
    take bit, equal those of that axis.

    Each step touches only the needed counts its suffix can fill: the rest
    of the grid stays -inf.  Per candidate, over the cells it can fill, a
    take bit (take >= skip) is stored; the value grid rolls.
    Reconstruction walks the candidates in id order and takes each one
    whose take bit is set, so the chosen set is the lexicographically
    smallest sorted id tuple among all optimal lineups.
    """
    unit = gcd(*salary)
    budget_max = cap // unit if unit else 0
    axes = [_POS_INDEX[p] for p in position]
    units = [s // unit for s in salary]
    # Cheapest unit salary per position axis; 0 for a position the pool lacks.
    floor = [min((w for a, w in zip(axes, units) if a == i), default=0) for i in _POS_INDEX.values()]
    weights = [w - floor[a] for a, w in zip(axes, units)]
    roots = [
        budget_max - sum(k * floor[_POS_INDEX[p]] for p, k in counts.items())
        for counts in POSITION_COUNTS
    ]
    top = max(roots)
    if top < 0:  # the floors alone exceed the cap
        return [None] * len(POSITION_COUNTS)
    shape = tuple(_MAX_COUNTS[p] + 1 for p in POSITIONS) + (top + 1,)

    # value[needed counts, budget above the floors]: best completion from the suffix.
    value = np.full(shape, -np.inf)
    value[(0,) * len(POSITIONS)] = 0.0
    live = [0] * len(POSITIONS)  # largest needed count the suffix can fill
    take_bits = [None] * len(axes)
    for j in range(len(axes) - 1, -1, -1):
        axis, w = axes[j], weights[j]
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
        take_vals = fpts[j] + grid[tuple(src_view)]
        dest = grid[tuple(take_view)]
        take_bits[j] = take_vals >= dest
        np.maximum(dest, take_vals, out=dest)

    solutions = []
    for counts, root in zip(POSITION_COUNTS, roots):
        need = [counts[p] for p in POSITIONS]
        if root < 0 or not np.isfinite(value[tuple(need) + (root,)]):
            solutions.append(None)
            continue
        chosen = []
        budget = root
        for j, (axis, w) in enumerate(zip(axes, weights)):
            if need[axis] == 0 or w > budget:
                continue
            cell = list(need) + [budget - w]
            cell[axis] -= 1
            if take_bits[j][tuple(cell)]:
                chosen.append(j)
                need[axis] -= 1
                budget -= w
                if not any(need):
                    break
        solutions.append(chosen)
    return solutions


def solve_flex_configs(ids, position, salary, fpts, salary_cap: int) -> list[Optional[Lineup]]:
    """Provably optimal lineup of each flex configuration, in FLEX_CONFIGS order.

    The pool is four parallel columns in any order: player ids, positions,
    salaries and predicted FPTS.  Columns of different lengths, an unknown
    position, a salary that is not a positive integer (a bool included) or
    a repeated id raise ValueError.  One DP serves all three configurations;
    an infeasible one is None.  Exact objective ties resolve to the
    lexicographically smallest sorted player-id tuple.  The DP is exact on
    any pool; it does not prune, so callers that want a small pool pass
    only the ``undominated`` players.
    """
    columns = (ids, position, salary, fpts)
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
    # From here on, plain lists in id order.
    kinds = (str, str, int, float)
    ids, position, salary, fpts = ([kind(c[j]) for j in order] for kind, c in zip(kinds, columns))
    # Chosen indices are in id order, so predicted_fpts is summed in id
    # order: it decides the cross-configuration choice down to its last bit.
    solutions = _dp_solve(position, salary, fpts, salary_cap)
    return [
        None if chosen is None
        else Lineup(tuple(ids[j] for j in chosen), config, sum(fpts[j] for j in chosen))
        for config, chosen in zip(FLEX_CONFIGS, solutions)
    ]


def optimize_all_flex(ids, position, salary, fpts, salary_cap: int) -> Lineup:
    """Best lineup over the three flex configurations of the pool's columns.

    Exact objective ties resolve to the lexicographically smallest sorted
    player-id tuple.
    """
    results = [lu for lu in solve_flex_configs(ids, position, salary, fpts, salary_cap) if lu]
    if results:
        return min(results, key=lambda lu: (-lu.predicted_fpts, lu.players))
    available = Counter(position)
    reasons = []
    for config, counts in zip(FLEX_CONFIGS, POSITION_COUNTS):
        short = [
            str(PositionShortfallError(p, k, available[p]))
            for p, k in counts.items()
            if available[p] < k
        ]
        reason = ", ".join(short) or f"no lineup fits the ${salary_cap:,} salary cap"
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

