"""Exact salary-capped lineup optimization via dynamic programming.

The solver maximizes predicted FPTS subject to the salary cap and the exact
position counts of each of the three flex configurations; one DP, whose
needed counts run up to each position's largest count, serves all three.
Salaries are reduced by their gcd so the DP runs over a small grid of
salary units; the optimum has a zero optimality gap by construction.  Ties among equal-objective lineups resolve to the
lexicographically smallest sorted player-id tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .data import POSITIONS
from .errors import InfeasibleLineupError, MissingActualError, PositionShortfallError

SALARY_CAP_DEFAULT = 50_000

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


@dataclass(frozen=True)
class ContestRules:
    salary_cap: int = SALARY_CAP_DEFAULT


@dataclass(frozen=True)
class Candidate:
    player_id: str
    position: str
    salary: int
    predicted_fpts: float

    def __post_init__(self):
        if self.position not in POSITIONS:
            raise ValueError(f"unknown position {self.position!r}")
        if not isinstance(self.salary, (int, np.integer)) or self.salary <= 0:
            raise ValueError(
                f"salary must be a positive integer, got {self.salary!r} "
                f"for {self.player_id}"
            )


@dataclass
class Lineup:
    players: tuple[str, ...]  # sorted player ids; the lineup's identity
    slots: list[tuple[str, str]]  # (slot label, player_id)
    flex_config: tuple[int, int, int]
    total_salary: int
    predicted_fpts: float
    actual_fpts: Optional[float] = None


def _assign_slots(by_position: dict[str, list[Candidate]], config) -> list[tuple[str, str]]:
    counts = _COUNTS_BY_CONFIG[config]
    flex_pos = next(p for p in POSITIONS if counts[p] > _FIXED_SLOTS[p])
    slots = []
    for pos in POSITIONS:
        chosen = sorted(by_position[pos], key=lambda c: (-c.predicted_fpts, c.player_id))
        base = _FIXED_SLOTS[pos]
        for k, cand in enumerate(chosen):
            if pos == flex_pos and k == base:
                label = "FLEX"
            elif base == 1:
                label = pos
            else:
                label = f"{pos}{k + 1}"
            slots.append((label, cand.player_id))
    return slots


def _build_lineup(chosen: list[Candidate], config) -> Lineup:
    by_position = {p: [] for p in POSITIONS}
    for cand in chosen:
        by_position[cand.position].append(cand)
    return Lineup(
        players=tuple(sorted(c.player_id for c in chosen)),
        slots=_assign_slots(by_position, config),
        flex_config=config,
        total_salary=sum(c.salary for c in chosen),
        predicted_fpts=float(sum(c.predicted_fpts for c in chosen)),
    )


def _prune_dominated(cands: list[Candidate], required: dict[str, int]) -> list[Candidate]:
    """Drop candidates that can never appear in the lex-min optimal lineup.

    A rival weakly better in both salary and FPTS (strictly better in FPTS,
    or equal FPTS with a smaller id) is a dominator; with at least k_p
    dominators, any lineup using the candidate can swap one in, so the
    candidate is safe to drop.  Equal-FPTS rivals with larger ids are not
    dominators: swapping them in could break the lexicographic tie rule.
    """
    by_pos: dict[str, list[Candidate]] = {}
    for c in cands:
        by_pos.setdefault(c.position, []).append(c)
    keep = []
    for pos, group in by_pos.items():
        k = required[pos]
        for c in group:
            dominators = 0
            for o in group:
                if o is c or o.salary > c.salary:
                    continue
                if o.predicted_fpts > c.predicted_fpts or (
                    o.predicted_fpts == c.predicted_fpts and o.player_id < c.player_id
                ):
                    dominators += 1
                    if dominators >= k:
                        break
            if dominators < k:
                keep.append(c)
    keep.sort(key=lambda c: c.player_id)
    return keep


def _dp_solve(cands: list[Candidate], cap: int) -> list[Optional[list[Candidate]]]:
    """Suffix DP over (needed counts, salary budget); one chosen set per config.

    Candidates must be sorted by player_id.  The needed counts run up to the
    largest count of each position over the flex configurations, so every
    configuration is a root of the same grid; a root whose value is not
    finite (pool short a position, or nothing fits the cap) yields None.
    Only each candidate's take-decision bits over the cells it can fill are
    stored; the value grid rolls.  Reconstruction walks forward preferring
    to take, which yields the lexicographically smallest sorted id tuple
    among all optimal lineups.
    """
    unit = 0
    for c in cands:
        unit = gcd(unit, c.salary)
    budget_max = cap // unit if unit else 0
    weights = [c.salary // unit for c in cands] if unit else []
    shape = tuple(_MAX_COUNTS[p] + 1 for p in POSITIONS) + (budget_max + 1,)

    # value[needed counts, budget]: best completion from the suffix.
    value = np.full(shape, -np.inf)
    value[(0,) * len(POSITIONS)] = 0.0
    take_bits = [None] * len(cands)

    for j in range(len(cands) - 1, -1, -1):
        cand, w = cands[j], weights[j]
        if w > budget_max:
            continue
        axis = _POS_INDEX[cand.position]
        take_view = [slice(None)] * len(shape)
        take_view[axis] = slice(1, None)
        take_view[-1] = slice(w, None)
        src_view = [slice(None)] * len(shape)
        src_view[axis] = slice(0, -1)
        src_view[-1] = slice(0, budget_max + 1 - w)
        take_vals = cand.predicted_fpts + value[tuple(src_view)]
        dest = value[tuple(take_view)]
        take_bits[j] = take_vals >= dest
        np.maximum(dest, take_vals, out=dest)

    solutions = []
    for counts in POSITION_COUNTS:
        need = [counts[p] for p in POSITIONS]
        if not np.isfinite(value[tuple(need) + (budget_max,)]):
            solutions.append(None)
            continue
        chosen = []
        budget = budget_max
        for j, cand in enumerate(cands):
            axis = _POS_INDEX[cand.position]
            w = weights[j]
            if need[axis] == 0 or w > budget:
                continue
            cell = list(need) + [budget - w]
            cell[axis] -= 1
            if take_bits[j][tuple(cell)]:
                chosen.append(cand)
                need[axis] -= 1
                budget -= w
                if not any(need):
                    break
        solutions.append(chosen)
    return solutions


def solve_flex_configs(candidates: list[Candidate], rules: ContestRules) -> list[Optional[Lineup]]:
    """Provably optimal lineup of each flex configuration, in FLEX_CONFIGS order.

    One DP serves all three configurations; an infeasible one is None.
    Exact objective ties resolve to the lexicographically smallest sorted
    player-id tuple.
    """
    cands = sorted(candidates, key=lambda c: c.player_id)
    for prev, cand in zip(cands, cands[1:]):
        if prev.player_id == cand.player_id:
            raise ValueError(f"duplicate candidate id {cand.player_id!r}")
    pool = _prune_dominated(cands, _MAX_COUNTS)
    return [
        None if chosen is None else _build_lineup(chosen, config)
        for config, chosen in zip(FLEX_CONFIGS, _dp_solve(pool, rules.salary_cap))
    ]


def optimize_all_flex(candidates: list[Candidate], rules: ContestRules) -> Lineup:
    """Best lineup over the three flex configurations.

    Exact objective ties resolve to the lexicographically smallest sorted
    player-id tuple.
    """
    results = [lu for lu in solve_flex_configs(candidates, rules) if lu is not None]
    if results:
        return min(results, key=lambda lu: (-lu.predicted_fpts, lu.players))
    available = Counter(c.position for c in candidates)
    reasons = []
    for config, counts in zip(FLEX_CONFIGS, POSITION_COUNTS):
        short = [
            str(PositionShortfallError(p, k, available[p]))
            for p, k in counts.items()
            if available[p] < k
        ]
        reason = ", ".join(short) or f"no lineup fits the ${rules.salary_cap:,} salary cap"
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


def score_lineup(lineup: Lineup, actuals: dict[str, float]) -> float:
    """Sum of the lineup's actual FPTS; raises if any player is missing."""
    total = 0.0
    for pid in lineup.players:
        if pid not in actuals:
            raise MissingActualError(pid)
        total += actuals[pid]
    return total


def validate_lineup(
    lineup: Lineup,
    rules: ContestRules,
    salary_by_id: dict[str, int],
    position_by_id: dict[str, str],
    min_salary: int = 0,
) -> list[str]:
    """Independent constraint check; returns a list of violations (empty = valid).

    Deliberately recounts everything from the raw player data rather than
    trusting any field the solver filled in; the required position counts
    are those of the lineup's flex configuration.
    """
    problems = []
    if len(set(lineup.players)) != LINEUP_SIZE:
        problems.append(f"expected {LINEUP_SIZE} distinct players, got {lineup.players}")
        return problems
    required = _COUNTS_BY_CONFIG.get(tuple(lineup.flex_config))
    if required is None:
        problems.append(f"unknown flex configuration {tuple(lineup.flex_config)}")
    else:
        counts = Counter(position_by_id[pid] for pid in lineup.players)
        for pos, needed in required.items():
            if counts[pos] != needed:
                problems.append(f"position {pos}: have {counts[pos]}, need {needed}")
    total = sum(salary_by_id[pid] for pid in lineup.players)
    if total > rules.salary_cap:
        problems.append(f"salary {total} exceeds cap {rules.salary_cap}")
    if total < min_salary:
        problems.append(f"salary {total} below minimum {min_salary}")
    return problems
