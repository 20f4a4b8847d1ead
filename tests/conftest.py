"""Shared fixtures: the committed season, candidate pools, and pool builders."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from dfslineup.data import POSITIONS, load_player_weeks
from dfslineup.optimizer import Pool, Tables


class Player(NamedTuple):
    """One pool entry; the oracles read exactly these four attributes."""

    player_id: str
    position: str
    salary: int
    predicted_fpts: float


def columns(pool):
    """The pool as the solver's and sampler's parallel columns: (ids,
    positions, salaries, predicted FPTS)."""
    return (
        [c.player_id for c in pool],
        [c.position for c in pool],
        [c.salary for c in pool],
        [c.predicted_fpts for c in pool],
    )


def pool_and_row(pool, salary_cap):
    """The pool's FPTS row as a one-row block of the solver's ``Tables``,
    and the row's index in it."""
    ids, position, salary, fpts = columns(pool)
    return Tables(Pool(ids, position, salary, salary_cap), [fpts]), 0


FIXTURES = Path(__file__).parent / "fixtures"

# Smallest pool that can cover every flex configuration.
_BASE_POSITIONS = [
    "QB", "QB",
    "RB", "RB", "RB",
    "WR", "WR", "WR", "WR",
    "TE", "TE",
    "DST", "DST",
]


@pytest.fixture(scope="session")
def season_csv() -> Path:
    return FIXTURES / "season.csv"


@pytest.fixture(scope="session")
def contest_csv() -> Path:
    return FIXTURES / "contest_results.csv"


@pytest.fixture(scope="session")
def season_table(season_csv):
    return load_player_weeks(season_csv)


@pytest.fixture(scope="session")
def week8_pool(season_table):
    """Week-8 draftable players with positive actual FPTS, in id order."""
    week = season_table.at_week(8)
    return [
        Player(pid, week["position"][j], int(week["salary"][j]), float(week["fpts"][j]))
        for j, pid in enumerate(season_table.player_ids())
        if week["draftable"][j] and week["fpts"][j] > 0
    ]


@pytest.fixture
def salary_cap() -> int:
    return 50_000


def _candidate(rng: np.random.Generator, i: int, pos: str, tie_heavy: bool) -> Player:
    if tie_heavy:
        fpts = float(rng.integers(5, 12))
        salary = int(rng.integers(20, 60)) * 100
    else:
        fpts = float(rng.uniform(1.0, 30.0))
        salary = int(rng.integers(20, 96)) * 100
    return Player(f"P{i:03d}", pos, salary, fpts)


def make_pool(rng: np.random.Generator, n: int, tie_heavy: bool = False):
    """Random candidate pool guaranteed to cover all five positions."""
    pool = []
    for i in range(n):
        pos = _BASE_POSITIONS[i] if i < len(_BASE_POSITIONS) else POSITIONS[rng.integers(0, 5)]
        pool.append(_candidate(rng, i, pos, tie_heavy))
    return pool


def make_shuffled_pool(rng: np.random.Generator, n: int, tie_heavy: bool = False):
    """``make_pool`` with its ids permuted across positions, so id order and
    position order disagree."""
    pool = make_pool(rng, n, tie_heavy)
    ids = [pool[i].player_id for i in rng.permutation(n)]
    return [c._replace(player_id=pid) for pid, c in zip(ids, pool)]


def make_pool_with(rng: np.random.Generator, shape: dict, tie_heavy: bool = False):
    """Random candidate pool with exactly ``shape[pos]`` players per position."""
    positions = [pos for pos, n in shape.items() for _ in range(n)]
    return [_candidate(rng, i, pos, tie_heavy) for i, pos in enumerate(positions)]
