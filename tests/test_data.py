"""CSV ingestion, eligibility, and window-assembly semantics."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfslineup.data import (
    CSV_COLUMNS,
    FPTS_SLICE,
    HOME_SLICE,
    LAT_SLICE,
    LON_SLICE,
    N_FEATURES,
    OVER_UNDER_SLICE,
    POS_SLICE,
    SPREAD_SLICE,
    PlayerWeekRecord,
    PlayerWeekTable,
    build_window,
    eligible_players,
    encode_position,
    load_exclusions,
    load_player_weeks,
    lookback_weeks,
)
from dfslineup.errors import (
    DuplicateKeyError,
    InsufficientHistoryError,
    SchemaError,
    WindowRangeError,
)

HEADER = ",".join(CSV_COLUMNS)
GOOD_ROW = "QB001,1,QB,5000,18.2,7,3,10,22,15,1,-3.5,47.0,40.0,-75.0,1"


def write_csv(tmp_path, *rows):
    path = tmp_path / "players.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def record(pid="X1", week=1, position="WR", salary=5000, fpts=10.0, **overrides):
    """A fully populated record; pass None explicitly to blank a field."""
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
    return PlayerWeekRecord(**values)


class TestParsing:
    def test_fixture_loads_completely(self, season_table):
        assert len(season_table) == 5100
        assert len(season_table.player_ids()) == 300
        assert {rec.week for rec in season_table} == set(range(1, 18))

    def test_good_row_round_trip(self, tmp_path):
        table = load_player_weeks(write_csv(tmp_path, GOOD_ROW))
        rec = table.get("QB001", 1)
        assert rec.position == "QB"
        assert rec.salary == 5000
        assert rec.fpts == pytest.approx(18.2)
        assert rec.home is True
        assert rec.played

    def test_missing_fpts_is_did_not_play(self, tmp_path):
        row = GOOD_ROW.replace("18.2", "")
        rec = load_player_weeks(write_csv(tmp_path, row)).get("QB001", 1)
        assert rec.fpts is None
        assert not rec.played

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

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            load_player_weeks(write_csv(tmp_path, GOOD_ROW + ",9"))
        assert exc.value.line == 2

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(DuplicateKeyError):
            load_player_weeks(write_csv(tmp_path, GOOD_ROW, GOOD_ROW))

    def test_draftable_zero_salary_rejected(self, tmp_path):
        row = GOOD_ROW.replace(",5000,", ",0,")
        with pytest.raises(SchemaError):
            load_player_weeks(write_csv(tmp_path, row))

    def test_exclusions_file(self, tmp_path):
        path = tmp_path / "exclude.txt"
        path.write_text("QB001\n\n# comment\n  WR005  \n", encoding="utf-8")
        assert load_exclusions(path) == {"QB001", "WR005"}


class TestEligibility:
    def test_encode_position(self):
        assert encode_position("QB") == [1, 0, 0, 0, 0]
        assert encode_position("DST") == [0, 0, 0, 0, 1]
        with pytest.raises(ValueError):
            encode_position("K")

    def test_lookback_window_clips_at_week_one(self):
        assert list(lookback_weeks(8)) == [2, 3, 4, 5, 6, 7]
        assert list(lookback_weeks(4)) == [1, 2, 3]

    def test_requires_four_played_games(self):
        recs = [record(week=w) for w in (1, 2, 3)] + [record(week=5)]
        table = PlayerWeekTable(recs)
        assert eligible_players(table, 5) == []  # only 3 played in lookback
        recs.append(record(week=4))
        assert eligible_players(PlayerWeekTable(recs), 5) == ["X1"]

    def test_not_draftable_excluded(self):
        recs = [record(week=w) for w in (1, 2, 3, 4)]
        recs.append(record(week=5, draftable=False))
        assert eligible_players(PlayerWeekTable(recs), 5) == []

    def test_bye_weeks_do_not_count_as_played(self):
        recs = [record(week=w) for w in (1, 2, 3)]
        recs.append(record(week=4, fpts=None))  # bye
        recs.append(record(week=5))
        assert eligible_players(PlayerWeekTable(recs), 5) == []

    def test_six_week_lookback_boundary(self):
        # Played weeks 2-5 are inside the lookback for week 8; week 1 is not.
        recs = [record(week=w) for w in (1, 2, 3, 4, 5)] + [record(week=8)]
        assert eligible_players(PlayerWeekTable(recs), 8) == ["X1"]
        recs = [record(week=w) for w in (1, 2, 3, 4)] + [record(week=8)]
        assert eligible_players(PlayerWeekTable(recs), 8) == []  # only 3 inside

    def test_require_target_fpts(self):
        recs = [record(week=w) for w in (1, 2, 3, 4)]
        recs.append(record(week=5, fpts=None))
        table = PlayerWeekTable(recs)
        assert eligible_players(table, 5, require_target_fpts=False) == ["X1"]
        assert eligible_players(table, 5, require_target_fpts=True) == []

    def test_too_early_target_week(self, season_table):
        with pytest.raises(InsufficientHistoryError):
            eligible_players(season_table, 4)


class TestWindows:
    def make_table(self, played_weeks, game4_week=8, game4_fpts=21.0, **game4_overrides):
        recs = [
            record(week=w, fpts=10.0 + w, spread=-float(w), over_under=40.0 + w)
            for w in played_weeks
        ]
        recs.append(record(week=game4_week, fpts=game4_fpts, **game4_overrides))
        return PlayerWeekTable(recs)

    def test_window_bounds(self, season_table):
        for bad in (0, 15):
            with pytest.raises(WindowRangeError):
                build_window(season_table, bad, "train")
        with pytest.raises(ValueError):
            build_window(season_table, 3, "rank")

    def test_train_window_features_and_target(self):
        # Window 5 spans weeks 5-8; game 4 is week 8.
        table = self.make_table([2, 3, 4, 5, 6, 7])
        ds = build_window(table, 5, "train")
        assert ds.player_ids == ["X1"]
        assert ds.has_targets and ds.targets[0] == pytest.approx(21.0)
        row = ds.features[0]
        assert row.shape == (N_FEATURES,)
        assert list(row[POS_SLICE]) == [0, 0, 1, 0, 0]  # WR
        # Three most recent played games: weeks 5, 6, 7 in chronological order.
        assert list(row[FPTS_SLICE]) == pytest.approx([15.0, 16.0, 17.0])
        assert list(row[SPREAD_SLICE]) == pytest.approx([-5.0, -6.0, -7.0, -2.5])
        assert list(row[OVER_UNDER_SLICE]) == pytest.approx([45.0, 46.0, 47.0, 44.0])

    def test_history_skips_unplayed_weeks(self):
        # Week 6 is a bye: history falls back to weeks 4, 5, 7.
        recs = [
            record(week=w, fpts=10.0 + w) for w in (2, 3, 4, 5, 7)
        ] + [record(week=6, fpts=None), record(week=8)]
        ds = build_window(PlayerWeekTable(recs), 5, "train")
        assert list(ds.features[0][FPTS_SLICE]) == pytest.approx([14.0, 15.0, 17.0])

    def test_insufficient_played_history_drops_player(self):
        table = self.make_table([6, 7])  # only two played games
        assert len(build_window(table, 5, "train")) == 0

    def test_missing_pregame_field_drops_player(self):
        table = self.make_table([4, 5, 6, 7], spread=None)
        assert len(build_window(table, 5, "train")) == 0

    def test_missing_history_context_drops_player(self):
        recs = [record(week=w, fpts=10.0, point_diff=None) for w in (4, 5, 6, 7)]
        recs.append(record(week=8))
        assert len(build_window(PlayerWeekTable(recs), 5, "train")) == 0

    def test_predict_mode_ignores_target_fpts(self):
        table = self.make_table([4, 5, 6, 7], game4_fpts=None)
        train = build_window(table, 5, "train")
        predict = build_window(table, 5, "predict")
        assert len(train) == 0  # no game-4 FPTS to train on
        assert predict.player_ids == ["X1"]
        assert not predict.has_targets and predict.targets is None

    def test_window_one_relaxes_to_three_played_games(self):
        # Game 4 of window 1 is week 4: only three prior weeks exist.
        recs = [record(week=w) for w in (1, 2, 3, 4)]
        ds = build_window(PlayerWeekTable(recs), 1, "train")
        assert ds.player_ids == ["X1"]

    def test_game4_home_flag_and_location_included(self):
        table = self.make_table([4, 5, 6, 7], home=False, latitude=33.0, longitude=-112.0)
        row = build_window(table, 5, "predict").features[0]
        assert row[HOME_SLICE][3] == 0.0
        assert row[LAT_SLICE][3] == pytest.approx(33.0)
        assert row[LON_SLICE][3] == pytest.approx(-112.0)

    def test_all_fourteen_windows_build_on_fixture(self, season_table):
        for w in range(1, 15):
            ds = build_window(season_table, w, "train")
            assert len(ds) > 100
            assert np.all(np.isfinite(ds.features))
            assert np.all(ds.features[:, POS_SLICE].sum(axis=1) == 1.0)
            assert ds.features.shape == (len(ds), N_FEATURES)


def test_fixture_generator_reproduces_the_committed_fixtures():
    """The one generator of tests/fixtures/ still writes them byte for byte."""
    script = Path(__file__).resolve().parents[1] / "benchmark" / "gen_season.py"
    result = subprocess.run(
        [sys.executable, str(script), "--self-check"], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
