"""Metamorphic relations of the whole pipeline: what a week's result must
not depend on.

Each relation edits the fixture season in a way that must leave the week-8
result as it is, runs all five stages through ``cli.main`` and compares the
13 artifacts with those of the unedited season:

- no look-ahead: the results, salaries and pre-game fields of the weeks
  after the target week are redrawn, and a player who plays only then is
  added;
- row order: the season's data rows are shuffled;
- naming and line ends: every id gains a ``P-`` prefix, and every line ends
  with CRLF.

Reversing the id order is not a relation: it reorders the training
window's rows, and with them each member's seeded split.

Background: Chen, Cheung & Yiu, "Metamorphic testing: a new approach for
generating next test cases" (HKUST-CS98-01, 1998); Segura et al., "A survey
on metamorphic testing" (IEEE TSE 42:805, 2016).
"""

from __future__ import annotations

import bisect
import csv
import io
import re

import numpy as np
import pytest
import yaml

from dfslineup.cli import EXIT_OK, main

from .conftest import FIXTURES

TARGET_WEEK = 8
STAGES = ("ingest", "predict", "optimize", "validate", "report")
TEXT_ARTIFACTS = (
    "eligibility.csv",
    "predictions.csv",
    "lineup.csv",
    "lineup.json",
    "validation_report.json",
    "percentiles.csv",
    "histograms.csv",
    "boxplot.csv",
    "report.txt",
)
ARTIFACTS = (
    "season.npz",
    "train_window.npz",
    "predict_window.npz",
    "samples.npz",
    *TEXT_ARTIFACTS,
)
# A prefixed id in a text artifact.
PREFIXED_ID = re.compile(r"\bP-(?=(?:QB|RB|WR|TE|DST)[0-9])")


def read_season():
    """The fixture season's header and data rows, each a list of fields."""
    with open(FIXTURES / "season.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def run_pipeline(tmp_path, header, rows, line_end="\n") -> dict:
    """Every artifact's bytes, by name, of the five stages run on a season
    of ``rows``, with the fixture's contest file."""
    season = tmp_path / "season.csv"
    with open(season, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=line_end).writerows([header, *rows])
    config = tmp_path / "dfslineup.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "players_csv": str(season),
                "contest_results_csv": str(FIXTURES / "contest_results.csv"),
                "output_dir": str(tmp_path / "out"),
                "target_week": TARGET_WEEK,
                "n_models": 20,
                "random_baseline": {"count": 3_000, "min_salary": 45_000},
                "report": {"bootstrap_resamples": 1_000},
            }
        ),
        encoding="utf-8",
    )
    for stage in STAGES:
        assert main([stage, "--config", str(config)]) == EXIT_OK, stage
    return {name: (tmp_path / "out" / name).read_bytes() for name in ARTIFACTS}


def differing(a: dict, b: dict) -> set:
    return {name for name in ARTIFACTS if a[name] != b[name]}


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("metamorphic"), *read_season())


# New values for a future week's fields: its result and salary, and the
# pre-game fields a window reads from game 4.
REDRAW = {
    "salary": lambda rng: str(100 * int(rng.integers(20, 100))),
    "fpts": lambda rng: repr(round(float(rng.uniform(-5.0, 40.0)), 2)),
    "point_diff": lambda rng: str(int(rng.integers(-20, 21))),
    "home": lambda rng: str(int(rng.integers(0, 2))),
    "spread": lambda rng: repr(round(float(rng.uniform(-14.0, 14.0)), 1)),
    "over_under": lambda rng: repr(round(float(rng.uniform(35.0, 55.0)), 1)),
}


def test_no_look_ahead(fixture_run, tmp_path):
    """Weeks 9-17 redrawn and a player added who plays only in them: only
    season.npz, which stamps the CSV's sha256 and every season id, and
    eligibility.csv, which lists every season player, may change."""
    header, rows = read_season()
    col = {name: i for i, name in enumerate(header)}
    after = [r for r in rows if int(r[col["week"]]) > TARGET_WEEK]
    future = [["WR999", *r[1:]] for r in after if r[col["player_id"]] == "WR001"]
    rows += future
    rng = np.random.default_rng(19)
    for r in after + future:
        for name, draw in REDRAW.items():
            if r[col[name]]:  # a blank fpts stays a week not played
                r[col[name]] = draw(rng)
    assert len(future) == 9
    changed = run_pipeline(tmp_path, header, rows)
    assert differing(fixture_run, changed) == {"season.npz", "eligibility.csv"}
    # The future-only player is listed, ineligible in both windows.
    lines = fixture_run["eligibility.csv"].decode().splitlines()
    ids = [line.split(",")[0] for line in lines[1:]]
    lines.insert(1 + bisect.bisect(ids, "WR999"), "WR999,0,0,0")
    assert changed["eligibility.csv"].decode() == "\n".join(lines) + "\n"


def test_row_order(fixture_run, tmp_path):
    """Shuffled data rows: only season.npz, which stamps the CSV's sha256,
    may change."""
    header, rows = read_season()
    rows = [rows[i] for i in np.random.default_rng(23).permutation(len(rows))]
    assert differing(fixture_run, run_pipeline(tmp_path, header, rows)) == {"season.npz"}


def test_id_prefix_and_crlf(fixture_run, tmp_path):
    """Every id prefixed with ``P-`` and every line ended with CRLF: the
    training window keeps its bytes, and every other artifact but
    season.npz reads the same once the prefix is removed."""
    header, rows = read_season()
    changed = run_pipeline(tmp_path, header, [["P-" + r[0], *r[1:]] for r in rows], "\r\n")
    assert changed["train_window.npz"] == fixture_run["train_window.npz"]
    # These two also hold the ids: those read the same without the prefix,
    # and every other array keeps its bytes.
    for name in ("predict_window.npz", "samples.npz"):
        new, old = (np.load(io.BytesIO(run[name])) for run in (changed, fixture_run))
        assert new.files == old.files, name
        for key in old.files:
            if key == "player_ids":
                assert [PREFIXED_ID.sub("", p) for p in new[key].tolist()] == old[key].tolist()
            else:
                assert new[key].tobytes() == old[key].tobytes(), (name, key)
    for name in TEXT_ARTIFACTS:
        text = changed[name].decode()
        assert "P-" in text or name in ("percentiles.csv", "boxplot.csv", "report.txt"), name
        assert PREFIXED_ID.sub("", text) == fixture_run[name].decode(), name
