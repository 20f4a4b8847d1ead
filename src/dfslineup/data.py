"""Season CSV ingestion, eligibility rules, and four-week window assembly."""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DuplicateKeyError, SchemaError, WindowRangeError, not_utf8

log = logging.getLogger(__name__)

POSITIONS = ("QB", "RB", "WR", "TE", "DST")

N_FEATURES = 43
FIRST_WEEK = 1
LAST_WEEK = 17
N_WINDOWS = 14
LOOKBACK_WEEKS = 6
MIN_GAMES_PLAYED = 4
HISTORY_GAMES = 3

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

# The float grids, in CSV order: the per-game fields read from the history
# games, then the pre-game fields read from the history games and game 4.
VALUE_COLUMNS = CSV_COLUMNS[4:15]
N_PER_GAME = 6

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


@dataclass
class WindowDataset:
    """Feature rows for one four-week window, one row per player."""

    window_index: int
    player_ids: list[str]
    features: np.ndarray  # (n_players, 43)
    targets: Optional[np.ndarray]  # (n_players,) for a training window, else None

    def __len__(self):
        return len(self.player_ids)


class PlayerWeekTable:
    """The season as (n_players, 18) grids: row i is ``player_ids()[i]``,
    column w is week w (column 0 stays empty).

    ``present`` marks the rows the CSV holds, ``position`` is an index into
    POSITIONS, ``salary`` an int and ``draftable`` a bool.  ``values``
    stacks one float grid per VALUE_COLUMNS entry; an empty field or a
    missing row is NaN there.
    """

    def __init__(self, names, player, week, position, salary, values, draftable):
        """``names`` holds each player's id once; the other arguments hold
        one entry per CSV row, at most one per (player_id, week): ``player``
        an index into ``names``, ``position`` indices into POSITIONS and
        ``values`` a (len(VALUE_COLUMNS), n_rows) float array."""
        order = sorted(range(len(names)), key=names.__getitem__)
        self._ids = [names[i] for i in order]
        self._index = {pid: i for i, pid in enumerate(self._ids)}
        shape = (len(self._ids), LAST_WEEK + 1)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        at = (rank[np.asarray(player, dtype=np.intp)], np.asarray(week, dtype=np.intp))
        self.present = np.zeros(shape, dtype=bool)
        self.present[at] = True
        self.position = np.zeros(shape, dtype=np.int8)
        self.position[at] = position
        self.salary = np.zeros(shape, dtype=np.int64)
        self.salary[at] = salary
        self.draftable = np.zeros(shape, dtype=bool)
        self.draftable[at] = draftable
        self.values = np.full((len(VALUE_COLUMNS), *shape), np.nan)
        self.values[(slice(None), *at)] = values
        self._n_rows = len(player)

    def __len__(self):
        return self._n_rows

    def player_ids(self) -> list[str]:
        return list(self._ids)

    def at_week(self, week: int, player_ids=None) -> dict:
        """One week's fields by CSV column name, plus ``present``, one entry
        per player of ``player_ids`` (default: every player, in id order).
        Position comes as a list of str.  A missing row reads present and
        draftable False and NaN in the float fields."""
        rows = slice(None) if player_ids is None else [self._index[p] for p in player_ids]
        out = {name: grid[rows, week] for name, grid in zip(VALUE_COLUMNS, self.values)}
        out.update(
            present=self.present[rows, week],
            position=[POSITIONS[c] for c in self.position[rows, week]],
            salary=self.salary[rows, week],
            draftable=self.draftable[rows, week],
        )
        return out


def parse_field(raw, column, line, kind, optional=False):
    """One CSV field as ``kind`` (int, float or bool); None for an empty
    optional field.  SchemaError names the line and column otherwise."""
    raw = raw.strip()
    if raw == "":
        if optional:
            return None
        raise SchemaError(f"empty value for required field", line=line, column=column)
    if kind is bool:
        if raw not in ("0", "1"):
            raise SchemaError(f"cannot parse {raw!r}", line=line, column=column)
        return raw == "1"
    # A number is ASCII: a sign, digits, at most one dot and an exponent.
    # On ASCII text without "_", that is exactly what int() and float()
    # read, besides "nan" and "inf", which fail the finite check, and ints
    # beyond the float range, which cannot be checked; outside it they also
    # take digit-group underscores and non-ASCII digits.
    try:
        if not raw.isascii() or "_" in raw:
            raise ValueError
        value = kind(raw)
        finite = math.isfinite(value)
    except (ValueError, OverflowError):
        raise SchemaError(f"cannot parse {raw!r}", line=line, column=column) from None
    if not finite:
        raise SchemaError(f"non-finite value {raw!r}", line=line, column=column)
    return value


def _parse_rank(raw, column, line):
    rank = parse_field(raw, column, line, int, optional=True)
    if rank is not None and not 1 <= rank <= 32:
        raise SchemaError(f"rank {rank} outside [1, 32]", line=line, column=column)
    return rank


def parse_row(row: dict, line: int) -> tuple:
    """Validate one CSV row: its fields in CSV_COLUMNS order, parsed, with
    None for an empty optional field."""
    player_id = row["player_id"].strip()
    if not player_id:
        raise SchemaError("empty player_id", line=line, column="player_id")
    week = parse_field(row["week"], "week", line, int)
    if not FIRST_WEEK <= week <= LAST_WEEK:
        raise SchemaError(f"week {week} outside [1, 17]", line=line, column="week")
    position = row["position"].strip()
    if position not in POSITIONS:
        raise SchemaError(
            f"position {position!r} not one of {POSITIONS}", line=line, column="position"
        )
    salary = parse_field(row["salary"], "salary", line, int)
    if salary < 0:
        raise SchemaError(f"negative salary {salary}", line=line, column="salary")
    if salary >= 2**63:  # the table's salary grid is int64
        raise SchemaError(f"salary {salary} beyond the int64 range", line=line, column="salary")
    draftable = parse_field(row["draftable"], "draftable", line, bool)
    if draftable and salary <= 0:
        raise SchemaError("draftable player with salary 0", line=line, column="salary")
    latitude = parse_field(row["latitude"], "latitude", line, float, optional=True)
    if latitude is not None and not -90.0 <= latitude <= 90.0:
        raise SchemaError(f"latitude {latitude} out of range", line=line, column="latitude")
    longitude = parse_field(row["longitude"], "longitude", line, float, optional=True)
    if longitude is not None and not -180.0 <= longitude <= 180.0:
        raise SchemaError(f"longitude {longitude} out of range", line=line, column="longitude")

    return (
        player_id,
        week,
        position,
        salary,
        parse_field(row["fpts"], "fpts", line, float, optional=True),
        parse_field(row["point_diff"], "point_diff", line, int, optional=True),
        _parse_rank(row["team_off_rank"], "team_off_rank", line),
        _parse_rank(row["team_def_rank"], "team_def_rank", line),
        _parse_rank(row["opp_off_rank"], "opp_off_rank", line),
        _parse_rank(row["opp_def_rank"], "opp_def_rank", line),
        parse_field(row["home"], "home", line, bool),
        parse_field(row["spread"], "spread", line, float, optional=True),
        parse_field(row["over_under"], "over_under", line, float, optional=True),
        latitude,
        longitude,
        draftable,
    )


def names_file(load):
    """Decorate a loader of one CSV so a SchemaError it raises names the file."""

    @functools.wraps(load)
    def loader(path):
        try:
            return load(path)
        except SchemaError as exc:
            exc.path = path
            raise

    return loader


def read_csv(path):
    """The rows of a UTF-8 CSV file, each a list of fields.

    A row the csv module refuses (a field over its size limit, say) raises
    SchemaError naming the file and line; bytes that are not UTF-8 raise
    SchemaError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except csv.Error as exc:
            raise SchemaError(str(exc), line=reader.line_num, path=path) from None
        except UnicodeDecodeError as exc:
            raise SchemaError(not_utf8(exc), path=path) from None


# Records per parse block.  Only one block of text is held at a time.
BLOCK_ROWS = 2048

_POSITION_INDEX = {p: i for i, p in enumerate(POSITIONS)}
_RANK_COLUMNS = CSV_COLUMNS[6:10]
_KINDS = dict.fromkeys(VALUE_COLUMNS, float) | dict.fromkeys(("point_diff", *_RANK_COLUMNS), int)


def _blocks(records, size):
    """Lists of up to ``size`` records.  A read error comes after the block
    of the records before it, so an earlier bad row is still found first."""
    block = []
    try:
        for record in records:
            block.append(record)
            if len(block) == size:
                yield block
                block = []
    except SchemaError:
        if block:
            yield block
        raise
    if block:
        yield block


def _numbers(column, kind):
    """A number column as floats, NaN for an empty field.

    ValueError, which sends the block to parse_row, unless the column's
    text is ASCII without "_" (for an int column, also without a dot or an
    exponent) and every non-empty field converts to a finite float.  Fields
    float() reads are exactly those parse_field reads, to the same value;
    it strips only some of the whitespace parse_field strips, and the rest
    goes to parse_row.
    """
    text = "".join(column)
    if not text.isascii() or "_" in text or kind is int and any(c in text for c in ".eE"):
        raise ValueError
    blanks = column.count("")
    values = np.array(
        [float(x) if x else math.nan for x in column] if blanks else list(map(float, column))
    )
    if np.isinf(values).any() or np.isnan(values).sum() != blanks:
        raise ValueError
    # int("-0") is 0, float("-0") is -0.0; adding 0.0 gives +0.0.
    return values + 0.0 if kind is int else values


def _flags(column):
    """A 0/1 column as bools; ValueError on any other text."""
    if not set(column) <= {"0", "1"}:
        raise ValueError
    return np.array(column) == "1"


def _columnar(records):
    """A block's columns, each converted and checked at once: (ids, week,
    position, salary, values, draftable).  ValueError where any field needs
    parse_row, which then reads the block row by row."""
    if set(map(len, records)) != {len(CSV_COLUMNS)}:
        raise ValueError
    ids, week, position, salary, *values, draftable = zip(*records)
    ids = list(map(str.strip, ids))
    if "" in ids or not set(position) <= _POSITION_INDEX.keys():
        raise ValueError
    week, salary = _numbers(week, int), _numbers(salary, int)
    draftable = _flags(draftable)
    values = np.stack([
        _flags(col) if name == "home" else _numbers(col, _KINDS[name])
        for name, col in zip(VALUE_COLUMNS, values)
    ])
    value = dict(zip(VALUE_COLUMNS, values))
    # A NaN fails the required week and salary tests and passes the
    # optional-field tests, which are written as "not outside".
    ok = (week >= FIRST_WEEK) & (week <= LAST_WEEK) & (salary >= 0) & (salary < 2**53)
    ok &= ~draftable | (salary > 0)
    for name in _RANK_COLUMNS:
        ok &= ~((value[name] < 1) | (value[name] > 32))
    ok &= ~((value["latitude"] < -90.0) | (value["latitude"] > 90.0))
    ok &= ~((value["longitude"] < -180.0) | (value["longitude"] > 180.0))
    if not ok.all():
        raise ValueError
    position = list(map(_POSITION_INDEX.__getitem__, position))
    return ids, week.astype(np.int64), position, salary.astype(np.int64), values, draftable


class _Keys:
    """The (player_id, week) keys read so far, as a week grid per player:
    the line each key was first read on, 0 for none yet.  Each player's id
    is held once, as the first string read for it."""

    def __init__(self):
        self.players: dict[str, int] = {}  # id -> its row of the grid
        self.lines = np.zeros((64, LAST_WEEK + 1), dtype=np.int64)

    def add(self, ids, weeks, lines) -> np.ndarray:
        """Record a block's keys; their players' rows.  DuplicateKeyError
        names the first key that repeats, in file order."""
        players = self.players
        rows = np.array([players.setdefault(pid, len(players)) for pid in ids], dtype=np.intp)
        while len(self.lines) < len(players):
            self.lines = np.concatenate([self.lines, np.zeros_like(self.lines)])
        cells = rows * (LAST_WEEK + 1) + np.asarray(weeks, dtype=np.intp)
        lines = np.asarray(lines, dtype=np.int64)
        grid = self.lines.reshape(-1)
        if not grid[cells].any():
            grid[cells] = lines
            # A key repeated within the block keeps only one of its lines.
            if (grid[cells] == lines).all():
                return rows
            grid[cells] = 0
        for pid, week, cell, line in zip(ids, weeks, cells.tolist(), lines.tolist()):
            if grid[cell]:
                raise DuplicateKeyError(
                    f"duplicate (player_id, week) = {(pid, int(week))}: "
                    f"line {line} repeats line {grid[cell]}"
                )
            grid[cell] = line
        return rows


def _row_by_row(lines, records, keys):
    """parse_row over a block, row by row, then the key check of the rows
    before the first bad one, so the first error in file order raises; the
    block's columns otherwise, players as rows of ``keys``."""
    rows, error = [], None
    for line, record in zip(lines, records):
        try:
            if len(record) != len(CSV_COLUMNS):
                raise SchemaError(
                    f"expected {len(CSV_COLUMNS)} fields, got {len(record)}", line=line
                )
            rows.append(parse_row(dict(zip(CSV_COLUMNS, record)), line))
        except SchemaError as exc:
            error = exc
            break
    player = keys.add([r[0] for r in rows], [r[1] for r in rows], lines[: len(rows)])
    if error:
        raise error
    _, week, position, salary, *values, draftable = zip(*rows)
    position = [_POSITION_INDEX[p] for p in position]
    # An empty optional field is None, which float64 reads as NaN.
    return player, week, position, salary, np.array(values, dtype=np.float64), draftable


@names_file
def load_player_weeks(csv_path) -> PlayerWeekTable:
    """Load a season table from ``players.csv``.

    Rows with an empty ``fpts`` field are retained as did-not-play weeks.
    The file is read in blocks of BLOCK_ROWS records, each checked and
    converted column by column; a block the column checks refuse goes
    through parse_row, so errors name the file, line and column of the
    first bad row.  A repeated (player_id, week) raises DuplicateKeyError
    naming both lines.
    """
    reader = read_csv(csv_path)
    header = next(reader, None)
    if header is None:
        raise SchemaError("file is empty", line=1)
    if header != CSV_COLUMNS:
        raise SchemaError(
            f"header {header} does not match expected schema {CSV_COLUMNS}", line=1
        )
    columns, keys, start = [], _Keys(), 2
    for block in _blocks(reader, BLOCK_ROWS):
        lines = range(start, start + len(block))
        start += len(block)
        if not all(block):  # blank records are skipped
            lines = [n for n, record in zip(lines, block) if record]
            block = [record for record in block if record]
            if not block:
                continue
        try:
            ids, *cols = _columnar(block)
        except ValueError:
            columns.append(_row_by_row(lines, block, keys))
        else:
            columns.append((keys.add(ids, cols[0], lines), *cols))
    if not columns:
        return PlayerWeekTable([], [], [], [], [], np.empty((len(VALUE_COLUMNS), 0)), [])
    player, week, position, salary, values, draftable = zip(*columns)
    return PlayerWeekTable(
        list(keys.players),
        np.concatenate(player),
        np.concatenate(week),
        np.concatenate(position),
        np.concatenate(salary),
        np.concatenate(values, axis=1),
        np.concatenate(draftable),
    )


def load_exclusions(path) -> set[str]:
    """One player_id per line; blank lines and '#' comments ignored.  Bytes
    that are not UTF-8 raise SchemaError naming the file."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                pid = line.strip()
                if pid and not pid.startswith("#"):
                    out.add(pid)
        except UnicodeDecodeError as exc:
            raise SchemaError(not_utf8(exc), path=path) from None
    return out


def lookback_weeks(target_week: int) -> range:
    """The up-to-six weeks preceding target_week, clipped at week 1."""
    return range(max(FIRST_WEEK, target_week - LOOKBACK_WEEKS), target_week)


def build_window(table: PlayerWeekTable, window_index: int, mode: str) -> WindowDataset:
    """Assemble the feature matrix for one window.

    Window w spans weeks w..w+3; game 4 is week w+3.  A player is eligible
    when draftable in game 4 with at least four played games in the six
    weeks before it; the three most recent of those are the history games.
    In train mode the game-4 FPTS becomes the target and must exist; in
    predict mode only the pre-game game-4 fields (home, spread, over/under,
    location) are used.  A player missing a used field is dropped.
    """
    if mode not in ("train", "predict"):
        raise ValueError(f"mode must be 'train' or 'predict', got {mode!r}")
    if not 1 <= window_index <= N_WINDOWS:
        raise WindowRangeError(f"window index {window_index} outside [1, {N_WINDOWS}]")
    game4 = window_index + 3
    train = mode == "train"
    fpts = table.values[0]
    lookback = lookback_weeks(game4)
    played = ~np.isnan(fpts[:, lookback.start : lookback.stop])

    # Window 1 has only three prior weeks; played games 1-3 plus the game-4
    # FPTS still make four games, so the requirement relaxes there.
    min_played = min(MIN_GAMES_PLAYED, game4 - FIRST_WEEK)
    eligible = table.draftable[:, game4] & (played.sum(axis=1) >= min_played)
    if train:
        eligible &= ~np.isnan(fpts[:, game4])
    rows = np.flatnonzero(eligible)

    # A history game has at most three played weeks from it to the end of
    # the lookback.  Every eligible row has at least three played weeks, so
    # it keeps exactly three, in week order.
    played = played[rows]
    from_end = np.cumsum(played[:, ::-1], axis=1)[:, ::-1]
    history = np.nonzero(played & (from_end <= HISTORY_GAMES))[1].reshape(-1, HISTORY_GAMES)
    history += lookback.start
    games = np.column_stack([history, np.full(len(rows), game4)])
    at = rows[:, None]
    features = np.hstack(
        [
            np.eye(len(POSITIONS))[table.position[rows, game4]],
            *table.values[:N_PER_GAME, at, history],
            *table.values[N_PER_GAME:, at, games],
        ]
    )

    complete = ~np.isnan(features).any(axis=1)
    if not complete.all():
        dropped = [table._ids[i] for i in rows[~complete]]
        log.warning(
            "window %d: %d player(s) dropped (missing history or pre-game fields)",
            window_index,
            len(dropped),
        )
        log.debug("window %d: dropped %s", window_index, ", ".join(dropped))
    rows = rows[complete]
    return WindowDataset(
        window_index=window_index,
        player_ids=[table._ids[i] for i in rows],
        features=features[complete],
        targets=fpts[rows, game4] if train else None,
    )
