"""Season CSV ingestion, eligibility rules, and four-week window assembly."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    DuplicateKeyError,
    InsufficientHistoryError,
    SchemaError,
    WindowRangeError,
)

log = logging.getLogger(__name__)

POSITIONS = ("QB", "RB", "WR", "TE", "DST")

N_FEATURES = 43
FIRST_WEEK = 1
LAST_WEEK = 17
N_WINDOWS = 14
LOOKBACK_WEEKS = 6
MIN_GAMES_PLAYED = 4

CSV_COLUMNS = [
    "player_id",
    "week",
    "position",
    "salary",
    "fpts",
    "point_diff",
    "team_off_rank",
    "team_def_rank",
    "opp_off_rank",
    "opp_def_rank",
    "home",
    "spread",
    "over_under",
    "latitude",
    "longitude",
    "draftable",
]

# Feature layout (0-based slices into the 43-entry vector): one-hot position,
# then per-game history blocks, then the four-game pre-game blocks.
POS_SLICE = slice(0, 5)
FPTS_SLICE = slice(5, 8)
PDIFF_SLICE = slice(8, 11)
TEAM_OFF_SLICE = slice(11, 14)
TEAM_DEF_SLICE = slice(14, 17)
OPP_OFF_SLICE = slice(17, 20)
OPP_DEF_SLICE = slice(20, 23)
HOME_SLICE = slice(23, 27)
SPREAD_SLICE = slice(27, 31)
OVER_UNDER_SLICE = slice(31, 35)
LAT_SLICE = slice(35, 39)
LON_SLICE = slice(39, 43)


@dataclass(frozen=True)
class PlayerWeekRecord:
    """One player's observed data for one week."""

    player_id: str
    week: int
    position: str
    salary: int
    fpts: Optional[float]
    point_diff: Optional[int]
    team_off_rank: Optional[int]
    team_def_rank: Optional[int]
    opp_off_rank: Optional[int]
    opp_def_rank: Optional[int]
    home: bool
    spread: Optional[float]
    over_under: Optional[float]
    latitude: Optional[float]
    longitude: Optional[float]
    draftable: bool

    @property
    def played(self) -> bool:
        return self.fpts is not None


@dataclass
class WindowDataset:
    """Feature rows for one four-week window, one row per player."""

    window_index: int
    player_ids: list[str]
    features: np.ndarray  # (n_players, 43)
    targets: Optional[np.ndarray]  # (n_players,) when has_targets
    has_targets: bool

    def __len__(self):
        return len(self.player_ids)


class PlayerWeekTable:
    """Immutable lookup over (player_id, week) records."""

    def __init__(self, records: list[PlayerWeekRecord]):
        self._by_key: dict[tuple[str, int], PlayerWeekRecord] = {}
        for rec in records:
            key = (rec.player_id, rec.week)
            if key in self._by_key:
                raise DuplicateKeyError(f"duplicate (player_id, week) = {key}")
            self._by_key[key] = rec

    def __len__(self):
        return len(self._by_key)

    def __iter__(self) -> Iterator[PlayerWeekRecord]:
        return iter(self._by_key.values())

    def get(self, player_id: str, week: int) -> Optional[PlayerWeekRecord]:
        return self._by_key.get((player_id, week))

    def player_ids(self) -> list[str]:
        return sorted({pid for pid, _ in self._by_key})


def _parse_field(raw, column, line, kind, optional=False):
    raw = raw.strip()
    if raw == "":
        if optional:
            return None
        raise SchemaError(f"empty value for required field", line=line, column=column)
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if not math.isfinite(value):
                raise SchemaError(f"non-finite value {raw!r}", line=line, column=column)
            return value
        if kind is bool:
            if raw not in ("0", "1"):
                raise ValueError
            return raw == "1"
    except ValueError:
        raise SchemaError(f"cannot parse {raw!r}", line=line, column=column) from None
    raise AssertionError(kind)


def _parse_rank(raw, column, line):
    rank = _parse_field(raw, column, line, int, optional=True)
    if rank is not None and not 1 <= rank <= 32:
        raise SchemaError(f"rank {rank} outside [1, 32]", line=line, column=column)
    return rank


def parse_row(row: dict, line: int) -> PlayerWeekRecord:
    player_id = row["player_id"].strip()
    if not player_id:
        raise SchemaError("empty player_id", line=line, column="player_id")
    week = _parse_field(row["week"], "week", line, int)
    if not FIRST_WEEK <= week <= LAST_WEEK:
        raise SchemaError(f"week {week} outside [1, 17]", line=line, column="week")
    position = row["position"].strip()
    if position not in POSITIONS:
        raise SchemaError(
            f"position {position!r} not one of {POSITIONS}", line=line, column="position"
        )
    salary = _parse_field(row["salary"], "salary", line, int)
    if salary < 0:
        raise SchemaError(f"negative salary {salary}", line=line, column="salary")
    draftable = _parse_field(row["draftable"], "draftable", line, bool)
    if draftable and salary <= 0:
        raise SchemaError("draftable player with salary 0", line=line, column="salary")
    latitude = _parse_field(row["latitude"], "latitude", line, float, optional=True)
    if latitude is not None and not -90.0 <= latitude <= 90.0:
        raise SchemaError(f"latitude {latitude} out of range", line=line, column="latitude")
    longitude = _parse_field(row["longitude"], "longitude", line, float, optional=True)
    if longitude is not None and not -180.0 <= longitude <= 180.0:
        raise SchemaError(f"longitude {longitude} out of range", line=line, column="longitude")

    return PlayerWeekRecord(
        player_id=player_id,
        week=week,
        position=position,
        salary=salary,
        fpts=_parse_field(row["fpts"], "fpts", line, float, optional=True),
        point_diff=_parse_field(row["point_diff"], "point_diff", line, int, optional=True),
        team_off_rank=_parse_rank(row["team_off_rank"], "team_off_rank", line),
        team_def_rank=_parse_rank(row["team_def_rank"], "team_def_rank", line),
        opp_off_rank=_parse_rank(row["opp_off_rank"], "opp_off_rank", line),
        opp_def_rank=_parse_rank(row["opp_def_rank"], "opp_def_rank", line),
        home=_parse_field(row["home"], "home", line, bool),
        spread=_parse_field(row["spread"], "spread", line, float, optional=True),
        over_under=_parse_field(row["over_under"], "over_under", line, float, optional=True),
        latitude=latitude,
        longitude=longitude,
        draftable=draftable,
    )


def load_player_weeks(csv_path) -> PlayerWeekTable:
    """Load a season table from ``players.csv``.

    Rows with an empty ``fpts`` field are retained as did-not-play weeks.
    Raises SchemaError with file position on malformed rows and
    DuplicateKeyError on a repeated (player_id, week).
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("file is empty", line=1) from None
        if header != CSV_COLUMNS:
            raise SchemaError(
                f"header {header} does not match expected schema {CSV_COLUMNS}", line=1
            )
        records = []
        for line, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(CSV_COLUMNS):
                raise SchemaError(
                    f"expected {len(CSV_COLUMNS)} fields, got {len(raw)}", line=line
                )
            records.append(parse_row(dict(zip(CSV_COLUMNS, raw)), line))
    return PlayerWeekTable(records)


def load_exclusions(path) -> set[str]:
    """One player_id per line; blank lines and '#' comments ignored."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            pid = line.strip()
            if pid and not pid.startswith("#"):
                out.add(pid)
    return out


def encode_position(position: str) -> list[int]:
    """One-hot encode a position in the fixed QB, RB, WR, TE, DST order."""
    if position not in POSITIONS:
        raise ValueError(f"unknown position {position!r}")
    return [1 if p == position else 0 for p in POSITIONS]


def lookback_weeks(target_week: int) -> range:
    """The up-to-six weeks preceding target_week, clipped at week 1."""
    return range(max(FIRST_WEEK, target_week - LOOKBACK_WEEKS), target_week)


def _eligible(
    table: PlayerWeekTable,
    target_week: int,
    require_target_fpts: bool,
    min_played: int,
) -> list[str]:
    out = []
    for pid in table.player_ids():
        target_rec = table.get(pid, target_week)
        if target_rec is None or not target_rec.draftable:
            continue
        if require_target_fpts and not target_rec.played:
            continue
        played = sum(
            1
            for wk in lookback_weeks(target_week)
            if (rec := table.get(pid, wk)) is not None and rec.played
        )
        if played >= min_played:
            out.append(pid)
    return out


def eligible_players(
    table: PlayerWeekTable, target_week: int, require_target_fpts: bool = False
) -> list[str]:
    """Players draftable in target_week with >=4 played games in the prior six weeks.

    With require_target_fpts (training-window use) the player must also have
    earned FPTS in target_week itself.
    """
    if target_week < FIRST_WEEK + MIN_GAMES_PLAYED:
        raise InsufficientHistoryError(
            f"target week {target_week} needs at least four prior weeks of games"
        )
    return _eligible(table, target_week, require_target_fpts, MIN_GAMES_PLAYED)


def _history_weeks(table: PlayerWeekTable, pid: str, game4_week: int) -> Optional[list[int]]:
    """Three most recent played weeks before game 4, within the six-week lookback."""
    played = [
        wk
        for wk in lookback_weeks(game4_week)
        if (rec := table.get(pid, wk)) is not None and rec.played
    ]
    if len(played) < 3:
        return None
    return played[-3:]


def _feature_row(table: PlayerWeekTable, pid: str, game4_week: int) -> Optional[np.ndarray]:
    history = _history_weeks(table, pid, game4_week)
    if history is None:
        return None
    recs = [table.get(pid, wk) for wk in history]
    rec4 = table.get(pid, game4_week)
    assert rec4 is not None  # eligibility guarantees a target-week record

    vec = np.empty(N_FEATURES, dtype=np.float64)
    vec[POS_SLICE] = encode_position(rec4.position)

    per_game = [
        (FPTS_SLICE, [r.fpts for r in recs]),
        (PDIFF_SLICE, [r.point_diff for r in recs]),
        (TEAM_OFF_SLICE, [r.team_off_rank for r in recs]),
        (TEAM_DEF_SLICE, [r.team_def_rank for r in recs]),
        (OPP_OFF_SLICE, [r.opp_off_rank for r in recs]),
        (OPP_DEF_SLICE, [r.opp_def_rank for r in recs]),
        (HOME_SLICE, [float(r.home) for r in recs] + [float(rec4.home)]),
        (SPREAD_SLICE, [r.spread for r in recs] + [rec4.spread]),
        (OVER_UNDER_SLICE, [r.over_under for r in recs] + [rec4.over_under]),
        (LAT_SLICE, [r.latitude for r in recs] + [rec4.latitude]),
        (LON_SLICE, [r.longitude for r in recs] + [rec4.longitude]),
    ]
    for sl, vals in per_game:
        if any(v is None for v in vals):
            return None
        vec[sl] = vals
    return vec


def build_window(table: PlayerWeekTable, window_index: int, mode: str) -> WindowDataset:
    """Assemble the feature matrix for one window.

    Window w spans weeks w..w+3; game 4 is week w+3.  In train mode the
    game-4 FPTS becomes the target; in predict mode only the pre-game
    game-4 fields (home, spread, over/under, location) are used.
    """
    if mode not in ("train", "predict"):
        raise ValueError(f"mode must be 'train' or 'predict', got {mode!r}")
    if not 1 <= window_index <= N_WINDOWS:
        raise WindowRangeError(f"window index {window_index} outside [1, {N_WINDOWS}]")
    game4_week = window_index + 3
    train = mode == "train"

    # Window 1 has only three prior weeks; played games 1-3 plus the game-4
    # FPTS still make four games, so the requirement relaxes there.
    min_played = min(MIN_GAMES_PLAYED, game4_week - FIRST_WEEK)
    ids, rows, targets = [], [], []
    for pid in _eligible(table, game4_week, train, min_played):
        vec = _feature_row(table, pid, game4_week)
        if vec is None:
            log.warning(
                "window %d: player %s dropped (missing history or pre-game fields)",
                window_index,
                pid,
            )
            continue
        ids.append(pid)
        rows.append(vec)
        if train:
            targets.append(table.get(pid, game4_week).fpts)

    features = (
        np.vstack(rows) if rows else np.empty((0, N_FEATURES), dtype=np.float64)
    )
    return WindowDataset(
        window_index=window_index,
        player_ids=ids,
        features=features,
        targets=np.asarray(targets, dtype=np.float64) if train else None,
        has_targets=train,
    )
