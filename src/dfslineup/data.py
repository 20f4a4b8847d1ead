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

INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Rule:
    """How one number field reads: as ``kind`` (int, float or bool), None
    when ``blank`` and the field is empty, and within [low, high]."""

    kind: type
    blank: bool
    low: float
    high: float

    def read(self, fields):
        """The fields as ``parse`` reads them: float64 with NaN for an empty
        field, or bools.  ValueError, which sends the column to ``parse``,
        unless its text is ASCII without "_" (an int rule's also without a
        dot or an exponent) and every field converts with float() to a value
        inside the rule.  On that text float() reads exactly what ``parse``
        reads, and float64 holds every int up to 2**53 - 1 exactly; ``parse``
        reads larger ones, and strips whitespace float() does not."""
        if self.kind is bool:
            if not set(fields) <= {"0", "1"}:
                raise ValueError
            return np.array(fields) == "1"
        text = "".join(fields)
        if not text.isascii() or "_" in text or self.kind is int and any(c in text for c in ".eE"):
            raise ValueError
        blanks = fields.count("")
        if blanks and not self.blank:
            raise ValueError
        values = np.array(
            [float(x) if x else math.nan for x in fields] if blanks else list(map(float, fields))
        )
        blank = np.isnan(values)
        cap = 2**53 - 1 if self.kind is int else math.inf
        inside = (values >= max(self.low, -cap)) & (values <= min(self.high, cap))
        if np.isinf(values).any() or blank.sum() != blanks or not (inside | blank).all():
            raise ValueError
        # int("-0") is 0, float("-0") is -0.0; adding 0.0 gives +0.0.
        return values + 0.0 if self.kind is int else values

    def parse(self, raw, column, line):
        """The field's value, None for an empty field the rule lets be
        blank; SchemaError names the line and column of a field it refuses."""
        raw = raw.strip()
        if raw == "":
            if self.blank:
                return None
            raise SchemaError("empty value for required field", line=line, column=column)
        if self.kind is bool:
            if raw not in ("0", "1"):
                raise SchemaError(f"cannot parse {raw!r}", line=line, column=column)
            value = raw == "1"
        else:
            # A number is ASCII: a sign, digits, at most one dot and an
            # exponent.  On ASCII text without "_", that is exactly what
            # int() and float() read, besides "nan" and "inf", which fail the
            # finite check, and ints beyond the float range, which cannot be
            # checked; outside it they also take digit-group underscores and
            # non-ASCII digits.
            try:
                if not raw.isascii() or "_" in raw:
                    raise ValueError
                value = self.kind(raw)
                finite = math.isfinite(value)
            except (ValueError, OverflowError):
                raise SchemaError(f"cannot parse {raw!r}", line=line, column=column) from None
            if not finite:
                raise SchemaError(f"non-finite value {raw!r}", line=line, column=column)
        if not self.low <= value <= self.high:
            huge = self.high == INT64_MAX and value > self.high
            where = "beyond the int64 range" if huge else f"outside [{self.low}, {self.high}]"
            raise SchemaError(f"{column} {value} {where}", line=line, column=column)
        return value


# The rule of every season number column; player_id is text that must not
# be blank and position one of POSITIONS.  Salary fills an int64 grid.  The
# bounds on fpts, point_diff, spread and over_under are plausibility bounds,
# far inside what float32 training and the float64 statistics hold; FPTS
# may be negative, since a defense or a player can score below 0.
RULES = {
    "week": Rule(int, False, FIRST_WEEK, LAST_WEEK),
    "salary": Rule(int, False, 0, INT64_MAX),
    "fpts": Rule(float, True, -50.0, 150.0),
    "point_diff": Rule(int, True, -100, 100),
    "team_off_rank": Rule(int, True, 1, 32),
    "team_def_rank": Rule(int, True, 1, 32),
    "opp_off_rank": Rule(int, True, 1, 32),
    "opp_def_rank": Rule(int, True, 1, 32),
    "home": Rule(bool, False, 0, 1),
    "spread": Rule(float, True, -50.0, 50.0),
    "over_under": Rule(float, True, 0.0, 100.0),
    "latitude": Rule(float, True, -90.0, 90.0),
    "longitude": Rule(float, True, -180.0, 180.0),
    "draftable": Rule(bool, False, 0, 1),
}

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

    def __init__(self, ids, *, present, position, salary, draftable, values):
        """``ids`` holds each player's id once, in sorted order."""
        self._ids = ids
        self._index = {pid: i for i, pid in enumerate(ids)}
        self.present, self.position, self.salary = present, position, salary
        self.draftable, self.values = draftable, values

    def __len__(self):
        """The number of CSV rows: each is one present cell."""
        return int(self.present.sum())

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


POSITION_INDEX = {p: i for i, p in enumerate(POSITIONS)}


class _PlayerIdRule:
    """player_id: text, stripped, that must not be blank."""

    def read(self, fields):
        ids = list(map(str.strip, fields))
        if "" in ids:
            raise ValueError
        return ids

    def parse(self, raw, column, line):
        pid = raw.strip()
        if not pid:
            raise SchemaError("empty player_id", line=line, column=column)
        return pid


class _PositionRule:
    """position: one of POSITIONS, read as its index there."""

    def read(self, fields):
        if not set(fields) <= POSITION_INDEX.keys():
            raise ValueError
        return list(map(POSITION_INDEX.__getitem__, fields))

    def parse(self, raw, column, line):
        text = raw.strip()
        if text not in POSITION_INDEX:
            raise SchemaError(f"position {text!r} not one of {POSITIONS}", line=line, column=column)
        return POSITION_INDEX[text]


# Every season column with its rule, in CSV order.
_TEXT_RULES = {"player_id": _PlayerIdRule(), "position": _PositionRule()}
_COLUMN_RULES = {c: RULES[c] if c in RULES else _TEXT_RULES[c] for c in CSV_COLUMNS}


def read_column(rule, column, fields, lines):
    """One column of a block, its fields read on ``lines``: (values, None),
    or the values before its first refused field and that field's
    SchemaError.  ``rule.read`` takes the whole column at once; only a
    column it refuses is read field by field with ``rule.parse``, which
    gives None for an empty field the rule lets be blank."""
    try:
        return rule.read(fields), None
    except ValueError:
        pass
    values = []
    for raw, line in zip(fields, lines):
        try:
            values.append(rule.parse(raw, column, line))
        except SchemaError as exc:
            return values, exc
    return values, None


def names_file(load):
    """Decorate a loader of one file so a SchemaError it raises names the file."""

    @functools.wraps(load)
    def loader(path, *args):
        try:
            return load(path, *args)
        except SchemaError as exc:
            exc.path = path
            raise

    return loader


# Records per block of read_csv.  The season loader drops each block before
# it reads the next and keeps only the season grids between blocks, so the
# parse holds players x weeks plus one block, however many rows the file has.
BLOCK_ROWS = 2048


def read_csv(path, columns):
    """The records of a UTF-8 CSV file with header ``columns``, in blocks of
    up to BLOCK_ROWS: (lines, records), each record a list of len(columns)
    fields read on the file line of ``lines`` where it starts.  Blank
    records are skipped.

    An empty file, a different header, a record with another field count
    or one the csv module refuses (a field over its size limit, say) raises
    SchemaError naming its line; bytes that are not UTF-8 raise SchemaError
    naming the file.  The error comes after the block of the records before
    it, so an earlier bad row is still found first.
    """
    lines, records, error, start = [], [], None, 1
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("file is empty", line=1)
            if header != columns:
                raise SchemaError(
                    f"header {header} does not match expected schema {columns}", line=1
                )
            start = reader.line_num + 1
            for record in reader:
                if record:
                    if len(record) != len(columns):
                        raise SchemaError(
                            f"expected {len(columns)} fields, got {len(record)}", line=start
                        )
                    lines.append(start)
                    records.append(record)
                    if len(records) == BLOCK_ROWS:
                        yield lines, records
                        lines, records = [], []
                start = reader.line_num + 1
        except SchemaError as exc:
            error = exc
        except csv.Error as exc:
            error = SchemaError(str(exc), line=start, path=path)
        except UnicodeDecodeError as exc:
            error = SchemaError(not_utf8(exc), path=path)
    if records:
        yield lines, records
    if error:
        raise error


def _grids(players):
    """Empty week grids for ``players`` players: PlayerWeekTable's, with
    ``lines``, the line each (player_id, week) key was read on (0 for none
    yet), in place of ``present``."""
    shape = (players, LAST_WEEK + 1)
    return {
        "lines": np.zeros(shape, dtype=np.int64),
        "position": np.zeros(shape, dtype=np.int8),
        "salary": np.zeros(shape, dtype=np.int64),
        "draftable": np.zeros(shape, dtype=bool),
        "values": np.full((len(VALUE_COLUMNS), *shape), np.nan),
    }


class _Season:
    """The season read so far, as week grids with a row per player in the
    order first read; the grids double when a player needs a row they lack.
    Each player's id is held once, as the first string read for it."""

    def __init__(self):
        self.players: dict[str, int] = {}  # id -> its row of the grids
        self.grids = _grids(64)

    def read(self, lines, records):
        """Add a block of read_csv's records, read on ``lines``, column by
        column with read_column.  The block's error is its first refused
        field by row, then CSV column order; a draftable row's salary of 0
        is its row's error after every field.  The rows before the error are
        added first, so that DuplicateKeyError names the first key that
        repeats in file order, before any field of the block is written."""
        columns, errors = {}, []
        for (name, rule), fields in zip(_COLUMN_RULES.items(), zip(*records)):
            columns[name], error = read_column(rule, name, fields, lines)
            if error:
                errors.append((len(columns[name]), error))
        n, error = min(errors, key=lambda e: e[0], default=(len(lines), None))
        draftable = np.asarray(columns["draftable"][:n], dtype=bool)
        unpaid = np.flatnonzero(draftable & (np.asarray(columns["salary"][:n]) == 0))
        if unpaid.size:
            n = int(unpaid[0])
            error = SchemaError("draftable player with salary 0", line=lines[n], column="salary")
        lines, columns = lines[:n], {name: values[:n] for name, values in columns.items()}

        players, ids = self.players, columns["player_id"]
        rows = np.array([players.setdefault(pid, len(players)) for pid in ids], dtype=np.intp)
        if len(players) > len(self.grids["lines"]):
            self._grow(len(players))
        weeks = np.asarray(columns["week"], dtype=np.intp)
        cells = rows * (LAST_WEEK + 1) + weeks
        grid = self.grids["lines"].reshape(-1)
        ordered = np.sort(cells)
        if grid[cells].any() or (ordered[1:] == ordered[:-1]).any():
            # A key read before, or twice in this block: its first repeat raises.
            for pid, week, cell, line in zip(ids, weeks.tolist(), cells.tolist(), lines):
                if grid[cell]:
                    raise DuplicateKeyError(
                        f"duplicate (player_id, week) = {(pid, week)}: "
                        f"line {line} repeats line {grid[cell]}",
                        line=line,
                        column=("player_id", "week"),
                    )
                grid[cell] = line
        grid[cells] = lines
        at = (rows, weeks)
        for name in ("position", "salary", "draftable"):
            self.grids[name][at] = columns[name]
        # Rule.parse reads an empty optional field as None, which is NaN here.
        values = np.array([columns[name] for name in VALUE_COLUMNS], dtype=np.float64)
        self.grids["values"][(slice(None), *at)] = values
        if error:
            raise error

    def _grow(self, players):
        """Double the grids until they have a row for each of ``players``."""
        size = len(self.grids["lines"])
        while size < players:
            size *= 2
        grown = _grids(size)
        for name, grid in self.grids.items():
            grown[name][..., : grid.shape[-2], :] = grid
        self.grids = grown

    def table(self) -> PlayerWeekTable:
        """The season in sorted-id order.  The grids are cut to the players
        and reordered one at a time, so only one is ever held twice."""
        ids = sorted(self.players)
        order = np.array([self.players[pid] for pid in ids], dtype=np.intp)
        grids = self.grids
        grids["present"] = grids.pop("lines") > 0
        for name in grids:
            grids[name] = grids[name][..., order, :]
        return PlayerWeekTable(ids, **grids)


@names_file
def load_player_weeks(csv_path) -> PlayerWeekTable:
    """Load a season table from ``players.csv``.

    Rows with an empty ``fpts`` field are retained as did-not-play weeks.
    read_csv yields the file in blocks of BLOCK_ROWS records, each read
    column by column and written straight into the season's grids; a
    column its rule's vector check refuses is read field by field, so
    errors name the file, line and column of the first bad field.  A
    repeated (player_id, week) raises DuplicateKeyError naming both lines.
    """
    season = _Season()
    for lines, records in read_csv(csv_path, CSV_COLUMNS):
        season.read(lines, records)
        del lines, records  # dropped before read_csv reads the next block
    return season.table()


@names_file
def load_exclusions(path, player_ids) -> set[str]:
    """One player_id per line, each one of ``player_ids``; blank lines and
    '#' comments ignored.  An id that names no player, or bytes that are not
    UTF-8, raise SchemaError naming the file."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        try:
            for line, text in enumerate(fh, 1):
                pid = text.strip()
                if pid and not pid.startswith("#"):
                    if pid not in player_ids:
                        raise SchemaError(f"player_id {pid!r} names no season player", line=line)
                    out.add(pid)
        except UnicodeDecodeError as exc:
            raise SchemaError(not_utf8(exc)) from None
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
