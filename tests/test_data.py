"""CSV ingestion, eligibility, and window-assembly semantics."""

from __future__ import annotations

import csv
import subprocess
import sys
from pathlib import Path

import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfslineup import data
from dfslineup.config import RunConfig
from dfslineup.data import (
    CSV_COLUMNS,
    FPTS_SLICE,
    HOME_SLICE,
    LAT_SLICE,
    LON_SLICE,
    N_FEATURES,
    N_WINDOWS,
    OVER_UNDER_SLICE,
    POS_SLICE,
    POSITIONS,
    SPREAD_SLICE,
    build_window,
    load_exclusions,
    load_player_weeks,
    lookback_weeks,
    parse_field,
    parse_row,
)
from dfslineup.errors import ConfigError, DuplicateKeyError, SchemaError, WindowRangeError

from .oracles import NUMBER, reference_season, reference_window

HEADER = ",".join(CSV_COLUMNS)
GOOD_ROW = "QB001,1,QB,5000,18.2,7,3,10,22,15,1,-3.5,47.0,40.0,-75.0,1"


def write_csv(tmp_path, *rows):
    path = tmp_path / "players.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def row(pid="X1", week=1, position="WR", salary=5000, fpts=10.0, **overrides):
    """A fully populated CSV row; pass None explicitly to blank a field."""
    values = dict(
        player_id=pid,
        week=week,
        position=position,
        salary=salary,
        fpts=fpts,
        point_diff=3,
        team_off_rank=5,
        team_def_rank=10,
        opp_off_rank=15,
        opp_def_rank=20,
        home=True,
        spread=-2.5,
        over_under=44.0,
        latitude=40.0,
        longitude=-75.0,
        draftable=True,
    )
    values.update(overrides)
    text = {None: "", True: "1", False: "0"}
    return ",".join(
        text[v] if v is None or isinstance(v, bool) else str(v)
        for v in (values[c] for c in CSV_COLUMNS)
    )


def load(tmp_path, *rows):
    return load_player_weeks(write_csv(tmp_path, *rows))


def week_fields(table, pid, week):
    """One (player, week) cell of every field of the table."""
    return {name: values[0] for name, values in table.at_week(week, [pid]).items()}


def eligible(table, target_week, require_target_fpts=False):
    """Players eligible for target_week: the window whose game 4 it is."""
    mode = "train" if require_target_fpts else "predict"
    return build_window(table, target_week - 3, mode).player_ids


class TestParsing:
    def test_fixture_loads_completely(self, season_table):
        assert len(season_table) == 5100
        assert len(season_table.player_ids()) == 300
        weeks = {w for w in range(18) if season_table.at_week(w)["present"].any()}
        assert weeks == set(range(1, 18))

    def test_good_row_round_trip(self, tmp_path):
        rec = week_fields(load(tmp_path, GOOD_ROW), "QB001", 1)
        assert rec["position"] == "QB"
        assert rec["salary"] == 5000
        assert rec["fpts"] == pytest.approx(18.2)
        assert rec["home"] == 1.0
        assert rec["present"] and not np.isnan(rec["fpts"])  # played

    def test_missing_fpts_is_did_not_play(self, tmp_path):
        rec = week_fields(load(tmp_path, GOOD_ROW.replace("18.2", "")), "QB001", 1)
        assert rec["present"]  # the row is kept
        assert np.isnan(rec["fpts"])  # as a week not played

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(path)
        assert exc.value.line == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_player_weeks(path)

    @pytest.mark.parametrize(
        "mutation, column",
        [
            (("QB001,1,", "QB001,0,"), "week"),
            (("QB001,1,", "QB001,18,"), "week"),
            ((",QB,", ",K,"), "position"),
            ((",5000,", ",-100,"), "salary"),
            ((",3,10,", ",0,10,"), "team_off_rank"),
            ((",3,10,", ",40,10,"), "team_off_rank"),
            ((",40.0,-75.0,", ",95.0,-75.0,"), "latitude"),
            ((",40.0,-75.0,", ",40.0,-190.0,"), "longitude"),
            ((",1,-3.5,", ",2,-3.5,"), "home"),
        ],
    )
    def test_bad_field_raises_with_location(self, tmp_path, mutation, column):
        old, new = mutation
        row = GOOD_ROW.replace(old, new, 1)
        assert row != GOOD_ROW
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(write_csv(tmp_path, row))
        assert exc.value.line == 2
        assert exc.value.column == column

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["fpts", "spread", "over_under", "latitude", "longitude"])
    def test_non_finite_float_rejected(self, tmp_path, column, raw):
        fields = dict(zip(CSV_COLUMNS, GOOD_ROW.split(",")))
        fields[column] = raw
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(write_csv(tmp_path, ",".join(fields.values())))
        assert exc.value.line == 2
        assert exc.value.column == column

    @pytest.mark.parametrize(
        "column, raw",
        [
            ("week", "1_0"),  # int() reads 10
            ("week", "\u0668"),  # Arabic-Indic eight: int() reads 8
            ("salary", "5_000"),  # int() reads 5000
            ("fpts", "1_8.2"),  # float() reads 18.2
            ("spread", "\uff13.5"),  # fullwidth three: float() reads 3.5
        ],
        ids=["week-underscore", "week-arabic-indic", "salary-underscore",
             "fpts-underscore", "spread-fullwidth"],
    )
    def test_number_outside_ascii_grammar_rejected(self, tmp_path, column, raw):
        fields = dict(zip(CSV_COLUMNS, GOOD_ROW.split(",")))
        fields[column] = raw
        with pytest.raises(SchemaError, match="cannot parse") as exc:
            load_player_weeks(write_csv(tmp_path, ",".join(fields.values())))
        assert exc.value.line == 2
        assert exc.value.column == column

    @pytest.mark.parametrize("raw", ["+7", "-3", "007", "7.", ".5", "-.5", "1e1", "2.5E+1"])
    def test_ascii_number_forms_accepted(self, tmp_path, raw):
        fields = dict(zip(CSV_COLUMNS, GOOD_ROW.split(",")))
        fields["spread"] = raw
        rec = week_fields(load(tmp_path, ",".join(fields.values())), "QB001", 1)
        assert rec["spread"] == float(raw)

    @pytest.mark.parametrize(
        "column, raw, message",
        [
            ("salary", "99999999999999999999", "salary 99999999999999999999 beyond the int64"),
            ("salary", str(2**63), f"salary {2**63} beyond the int64"),
            ("point_diff", "9" * 401, "cannot parse '9{401}'"),
            ("team_off_rank", "-" + "9" * 401, "cannot parse '-9{401}'"),
        ],
        ids=["salary-20-digits", "salary-2**63", "point-diff-401-digits", "rank-401-digits"],
    )
    def test_integer_out_of_range_rejected(self, tmp_path, column, raw, message):
        fields = dict(zip(CSV_COLUMNS, GOOD_ROW.split(",")))
        fields[column] = raw
        with pytest.raises(SchemaError, match=message) as exc:
            load_player_weeks(write_csv(tmp_path, ",".join(fields.values())))
        assert exc.value.line == 2
        assert exc.value.column == column

    def test_salary_at_the_int64_limit_loads(self, tmp_path):
        row = GOOD_ROW.replace(",5000,", f",{2**63 - 1},")
        assert week_fields(load(tmp_path, row), "QB001", 1)["salary"] == 2**63 - 1

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(write_csv(tmp_path, GOOD_ROW + ",9"))
        assert exc.value.line == 2

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(DuplicateKeyError) as exc:
            load_player_weeks(write_csv(tmp_path, GOOD_ROW, GOOD_ROW))
        assert "line 3 repeats line 2" in str(exc.value)

    @pytest.mark.parametrize("rows, message", [
        # The repeat within block 1, then a bad week in block 2.
        ([GOOD_ROW, GOOD_ROW, "", "BAD"], "line 3 repeats line 2"),
        # The repeat across blocks 1 and 2, then a bad week in block 3.
        ([GOOD_ROW, "", GOOD_ROW, "", "BAD"], "line 4 repeats line 2"),
        # The repeat, then a bad week, in block 2, which is read row by row.
        ([GOOD_ROW, "", GOOD_ROW, "BAD"], "line 4 repeats line 2"),
    ])
    def test_duplicate_key_before_a_later_bad_block(self, tmp_path, monkeypatch, rows, message):
        monkeypatch.setattr(data, "BLOCK_ROWS", 2)
        bad = GOOD_ROW.replace("QB001,1,", "QB002,0,", 1)
        path = write_csv(tmp_path, *(bad if r == "BAD" else r for r in rows))
        with pytest.raises(DuplicateKeyError) as exc:
            load_player_weeks(path)
        assert message in str(exc.value)

    def test_draftable_zero_salary_rejected(self, tmp_path):
        row = GOOD_ROW.replace(",5000,", ",0,")
        with pytest.raises(SchemaError):
            load_player_weeks(write_csv(tmp_path, row))

    def test_exclusions_file(self, tmp_path):
        path = tmp_path / "exclude.txt"
        path.write_text("QB001\n\n# comment\n  WR005  \n", encoding="utf-8")
        assert load_exclusions(path) == {"QB001", "WR005"}


# Junk for any field: blanks, non-finite and unparsable numbers, ranks and
# weeks out of range, a bool out of {0, 1}, coordinates off the globe, and
# numbers int()/float() take but the ASCII grammar does not.
_JUNK = ["", " ", "nan", "inf", "-inf", "1e999", "abc", "1.5", "-1", "0", "2", "18",
         "33", "99999", "-190.0", "95.0", "K", "QB", "1_0", "\u0668", "5_000", "1_8.2",
         "\u0661\u0662"]


@st.composite
def csv_rows(draw):
    """GOOD_ROW's sixteen fields with up to four of them replaced by junk or
    arbitrary text."""
    fields = GOOD_ROW.split(",")
    for i in draw(st.sets(st.integers(0, len(fields) - 1), max_size=4)):
        fields[i] = draw(st.one_of(st.sampled_from(_JUNK), st.text(max_size=6)))
    return fields


def test_any_row_parses_or_names_its_line_and_column():
    outcomes = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(csv_rows())
    def check(fields):
        try:
            parsed = parse_row(dict(zip(CSV_COLUMNS, fields)), line=7)
        except SchemaError as exc:
            assert exc.line == 7
            assert exc.column in CSV_COLUMNS
            outcomes.append("rejected")
        else:
            assert isinstance(parsed, tuple) and len(parsed) == len(CSV_COLUMNS) == 16
            outcomes.append("parsed")

    check()
    # Both branches are exercised, so neither half of the property is vacuous.
    assert min(outcomes.count("parsed"), outcomes.count("rejected")) >= 10


def test_number_fields_read_exactly_the_ascii_grammar():
    """An int or float field parses exactly the stripped text that
    oracles.NUMBER matches (ints without dot or exponent) and that is
    finite, and to the value int()/float() gives it."""
    outcomes = []

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        st.one_of(
            st.from_regex(NUMBER, fullmatch=True),
            st.text(alphabet="0123456789+-.eE_ nafiINx\u0668\uff13\u00b2", min_size=1,
                    max_size=7),
        ),
        st.sampled_from([int, float]),
    )
    def check(raw, kind):
        text = raw.strip()
        grammar = NUMBER.fullmatch(text) is not None and (
            kind is float or not any(c in text for c in ".eE")
        )
        try:
            value = parse_field(raw, "spread", 7, kind, optional=True)
        except SchemaError as exc:
            assert (exc.line, exc.column) == (7, "spread")
            assert not grammar or not math.isfinite(kind(text))
            outcomes.append("rejected")
        else:
            if text == "":
                assert value is None
                return
            assert grammar and type(value) is kind and value == kind(text)
            outcomes.append("parsed")

    check()
    assert min(outcomes.count("parsed"), outcomes.count("rejected")) >= 50


@st.composite
def season_files(draw):
    """Records of a season file: GOOD_ROW, one in four from csv_rows(),
    under a few player ids and weeks, some fields padded with spaces, and
    some blank records."""
    records = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            records.append([])
            continue
        fields = draw(csv_rows()) if kind < 4 else GOOD_ROW.split(",")
        if fields[0] == "QB001":
            fields[0] = draw(st.sampled_from(["QB001", "RB002", "WR003"]))
        if fields[1] == "1":
            fields[1] = str(draw(st.integers(1, 3)))
        for i in draw(st.sets(st.integers(0, len(fields) - 1), max_size=2)):
            fields[i] = f" {fields[i]} "
        records.append(fields)
    return records


def test_columnar_parse_matches_row_by_row(tmp_path, monkeypatch):
    """load_player_weeks accepts exactly the files the row-by-row reference
    accepts, raises its error (type, text, line and column) on the others,
    and fills byte-equal grids.  Blocks of 3 records put block edges inside
    the files."""
    monkeypatch.setattr(data, "BLOCK_ROWS", 3)
    row_parse, row_calls = data.parse_row, []

    def counted(*args):
        row_calls.append(args)
        return row_parse(*args)

    monkeypatch.setattr(data, "parse_row", counted)
    path = tmp_path / "season.csv"
    outcomes = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(season_files())
    def check(records):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(records)
        row_calls.clear()
        try:
            table = load_player_weeks(path)
        except (SchemaError, DuplicateKeyError) as exc:
            with pytest.raises(type(exc)) as ref:
                reference_season(path)
            assert str(ref.value) == str(exc)
            if isinstance(exc, SchemaError):
                assert (ref.value.line, ref.value.column) == (exc.line, exc.column)
            outcomes.append("rejected")
            return
        outcomes.append("row by row" if row_calls else "columnar")
        ids, grids = reference_season(path)
        assert table.player_ids() == ids
        for name, grid in grids.items():
            assert getattr(table, name).tobytes() == grid.tobytes(), name

    check()
    # Each path is taken often enough that no part of the property is vacuous.
    assert min(outcomes.count(k) for k in ("rejected", "row by row", "columnar")) >= 10


class TestColumnarParse:
    def test_clean_season_never_calls_parse_row(self, season_csv, season_table, monkeypatch):
        def refuse(*args):
            raise AssertionError("parse_row called on a clean season")

        monkeypatch.setattr(data, "parse_row", refuse)
        table = load_player_weeks(season_csv)
        assert len(table) == len(season_table) == 5100
        assert table.values.tobytes() == season_table.values.tobytes()

    def test_negative_zero_int_reads_as_zero(self, tmp_path):
        table = load(tmp_path, row(point_diff="-0"))
        assert week_fields(table, "X1", 1)["point_diff"].tobytes() == np.float64(0.0).tobytes()

    def test_bad_row_before_a_read_error_is_named(self, tmp_path):
        # Line 3 is a field the csv module refuses; line 2's week comes first.
        path = write_csv(tmp_path, GOOD_ROW.replace("QB001,1,", "QB001,0,", 1), "9" * 140_000)
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(path)
        assert (exc.value.line, exc.value.column) == (2, "week")

    def test_errors_name_the_file(self, tmp_path):
        path = write_csv(tmp_path, GOOD_ROW.replace(",QB,", ",K,"))
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(path)
        assert str(exc.value).startswith(f"{path}: position 'K' not one of")
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(path)
        assert str(exc.value).startswith(f"{path}: header ['a', 'b'] does not match")


class TestEligibility:
    def test_encode_position(self, tmp_path):
        rows = [row(pid, week=w, position=pos) for pid, pos in (("Q1", "QB"), ("D1", "DST"))
                for w in (1, 2, 3, 4, 5)]
        ds = build_window(load(tmp_path, *rows), 2, "predict")
        assert ds.player_ids == ["D1", "Q1"]
        assert list(ds.features[1, POS_SLICE]) == [1, 0, 0, 0, 0]
        assert list(ds.features[0, POS_SLICE]) == [0, 0, 0, 0, 1]
        with pytest.raises(SchemaError) as exc:
            load(tmp_path, row(position="K"))
        assert exc.value.column == "position"

    def test_lookback_window_clips_at_week_one(self):
        assert list(lookback_weeks(8)) == [2, 3, 4, 5, 6, 7]
        assert list(lookback_weeks(4)) == [1, 2, 3]

    def test_requires_four_played_games(self, tmp_path):
        rows = [row(week=w) for w in (1, 2, 3)] + [row(week=5)]
        assert eligible(load(tmp_path, *rows), 5) == []  # only 3 played in lookback
        rows.append(row(week=4))
        assert eligible(load(tmp_path, *rows), 5) == ["X1"]

    def test_not_draftable_excluded(self, tmp_path):
        rows = [row(week=w) for w in (1, 2, 3, 4)]
        rows.append(row(week=5, draftable=False))
        assert eligible(load(tmp_path, *rows), 5) == []

    def test_bye_weeks_do_not_count_as_played(self, tmp_path):
        rows = [row(week=w) for w in (1, 2, 3)]
        rows.append(row(week=4, fpts=None))  # bye
        rows.append(row(week=5))
        assert eligible(load(tmp_path, *rows), 5) == []

    def test_six_week_lookback_boundary(self, tmp_path):
        # Played weeks 2-5 are inside the lookback for week 8; week 1 is not.
        rows = [row(week=w) for w in (1, 2, 3, 4, 5)] + [row(week=8)]
        assert eligible(load(tmp_path, *rows), 8) == ["X1"]
        rows = [row(week=w) for w in (1, 2, 3, 4)] + [row(week=8)]
        assert eligible(load(tmp_path, *rows), 8) == []  # only 3 inside

    def test_require_target_fpts(self, tmp_path):
        rows = [row(week=w) for w in (1, 2, 3, 4)]
        rows.append(row(week=5, fpts=None))
        table = load(tmp_path, *rows)
        assert eligible(table, 5, require_target_fpts=False) == ["X1"]
        assert eligible(table, 5, require_target_fpts=True) == []

    def test_too_early_target_week(self, season_table):
        with pytest.raises(ConfigError):
            RunConfig(target_week=4).validate()
        with pytest.raises(WindowRangeError):  # its training window would be window 0
            build_window(season_table, 4 - 4, "train")


class TestWindows:
    def make_table(self, tmp_path, played_weeks, game4_week=8, game4_fpts=21.0, **game4_overrides):
        rows = [
            row(week=w, fpts=10.0 + w, spread=-float(w), over_under=40.0 + w)
            for w in played_weeks
        ]
        rows.append(row(week=game4_week, fpts=game4_fpts, **game4_overrides))
        return load(tmp_path, *rows)

    def test_window_bounds(self, season_table):
        for bad in (0, 15):
            with pytest.raises(WindowRangeError):
                build_window(season_table, bad, "train")
        with pytest.raises(ValueError):
            build_window(season_table, 3, "rank")

    def test_train_window_features_and_target(self, tmp_path):
        # Window 5 spans weeks 5-8; game 4 is week 8.
        table = self.make_table(tmp_path, [2, 3, 4, 5, 6, 7])
        ds = build_window(table, 5, "train")
        assert ds.player_ids == ["X1"]
        assert ds.targets is not None and ds.targets[0] == pytest.approx(21.0)
        feats = ds.features[0]
        assert feats.shape == (N_FEATURES,)
        assert list(feats[POS_SLICE]) == [0, 0, 1, 0, 0]  # WR
        # Three most recent played games: weeks 5, 6, 7 in chronological order.
        assert list(feats[FPTS_SLICE]) == pytest.approx([15.0, 16.0, 17.0])
        assert list(feats[SPREAD_SLICE]) == pytest.approx([-5.0, -6.0, -7.0, -2.5])
        assert list(feats[OVER_UNDER_SLICE]) == pytest.approx([45.0, 46.0, 47.0, 44.0])

    def test_history_skips_unplayed_weeks(self, tmp_path):
        # Week 6 is a bye: history falls back to weeks 4, 5, 7.
        rows = [
            row(week=w, fpts=10.0 + w) for w in (2, 3, 4, 5, 7)
        ] + [row(week=6, fpts=None), row(week=8)]
        ds = build_window(load(tmp_path, *rows), 5, "train")
        assert list(ds.features[0][FPTS_SLICE]) == pytest.approx([14.0, 15.0, 17.0])

    def test_insufficient_played_history_drops_player(self, tmp_path):
        table = self.make_table(tmp_path, [6, 7])  # only two played games
        assert len(build_window(table, 5, "train")) == 0

    def test_missing_pregame_field_drops_player(self, tmp_path, caplog):
        table = self.make_table(tmp_path, [4, 5, 6, 7], spread=None)
        with caplog.at_level(logging.DEBUG, logger="dfslineup.data"):
            assert len(build_window(table, 5, "train")) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["window 5: 1 player(s) dropped (missing history or pre-game fields)"]
        assert "window 5: dropped X1" in caplog.text

    def test_missing_history_context_drops_player(self, tmp_path):
        rows = [row(week=w, fpts=10.0, point_diff=None) for w in (4, 5, 6, 7)]
        rows.append(row(week=8))
        assert len(build_window(load(tmp_path, *rows), 5, "train")) == 0

    def test_predict_mode_ignores_target_fpts(self, tmp_path):
        table = self.make_table(tmp_path, [4, 5, 6, 7], game4_fpts=None)
        train = build_window(table, 5, "train")
        predict = build_window(table, 5, "predict")
        assert len(train) == 0  # no game-4 FPTS to train on
        assert predict.player_ids == ["X1"]
        assert predict.targets is None

    def test_window_one_relaxes_to_three_played_games(self, tmp_path):
        # Game 4 of window 1 is week 4: only three prior weeks exist.
        rows = [row(week=w) for w in (1, 2, 3, 4)]
        ds = build_window(load(tmp_path, *rows), 1, "train")
        assert ds.player_ids == ["X1"]

    def test_game4_home_flag_and_location_included(self, tmp_path):
        table = self.make_table(
            tmp_path, [4, 5, 6, 7], home=False, latitude=33.0, longitude=-112.0
        )
        feats = build_window(table, 5, "predict").features[0]
        assert feats[HOME_SLICE][3] == 0.0
        assert feats[LAT_SLICE][3] == pytest.approx(33.0)
        assert feats[LON_SLICE][3] == pytest.approx(-112.0)

    def test_all_fourteen_windows_build_on_fixture(self, season_table):
        for w in range(1, 15):
            ds = build_window(season_table, w, "train")
            assert len(ds) > 100
            assert np.all(np.isfinite(ds.features))
            assert np.all(ds.features[:, POS_SLICE].sum(axis=1) == 1.0)
            assert ds.features.shape == (len(ds), N_FEATURES)


def assert_windows_match_reference(table, csv_path):
    """Every window in both modes equals the per-player reference, bit for bit."""
    for w in range(1, N_WINDOWS + 1):
        for mode in ("train", "predict"):
            ds = build_window(table, w, mode)
            ids, features, targets = reference_window(csv_path, w, mode)
            assert ds.player_ids == ids, (w, mode)
            assert ds.features.shape == features.shape, (w, mode)
            assert ds.features.tobytes() == features.tobytes(), (w, mode)
            if targets is None:
                assert ds.targets is None, (w, mode)
            else:
                assert ds.targets.tobytes() == targets.tobytes(), (w, mode)


def random_season(rng: random.Random, n_players: int = 12) -> list[str]:
    """Rows of a small season with missing rows, byes, blank optional fields,
    undraftable weeks and the odd position change."""
    optional = ("point_diff", "team_off_rank", "team_def_rank", "opp_off_rank",
                "opp_def_rank", "spread", "over_under", "latitude", "longitude")
    rows = []
    for i in range(n_players):
        position = rng.choice(POSITIONS)
        for week in range(1, 18):
            if rng.random() < 0.1:
                continue  # no row at all
            draftable = rng.random() > 0.15
            fields = dict(
                position=rng.choice(POSITIONS) if rng.random() < 0.05 else position,
                salary=rng.randrange(30, 95) * 100 if draftable else rng.choice((0, 4000)),
                fpts=None if rng.random() < 0.2 else round(rng.uniform(-2.0, 35.0), 2),
                point_diff=rng.randint(-30, 30),
                team_off_rank=rng.randint(1, 32),
                team_def_rank=rng.randint(1, 32),
                opp_off_rank=rng.randint(1, 32),
                opp_def_rank=rng.randint(1, 32),
                home=rng.random() < 0.5,
                spread=rng.uniform(-14.0, 14.0),
                over_under=round(rng.uniform(35.0, 55.0), 1),
                latitude=rng.uniform(25.0, 48.0),
                longitude=rng.uniform(-123.0, -71.0),
                draftable=draftable,
            )
            for name in optional:
                if rng.random() < 0.03:
                    fields[name] = None
            rows.append(row(f"P{i:02d}", week, **fields))
    rng.shuffle(rows)
    return rows


class TestWindowOracle:
    def test_fixture_windows_match_reference(self, season_table, season_csv):
        assert_windows_match_reference(season_table, season_csv)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_seasons_match_reference(self, tmp_path, seed):
        path = write_csv(tmp_path, *random_season(random.Random(seed)))
        assert_windows_match_reference(load_player_weeks(path), path)


def test_fixture_generator_reproduces_the_committed_fixtures():
    """The one generator of tests/fixtures/ still writes them byte for byte."""
    script = Path(__file__).resolve().parents[1] / "benchmark" / "gen_season.py"
    result = subprocess.run(
        [sys.executable, str(script), "--self-check"], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
