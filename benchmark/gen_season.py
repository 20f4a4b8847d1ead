#!/usr/bin/env python3
"""Seeded season and contest-results generator for the benchmark workloads.

The season has the shape of the committed fixture (32 teams, 17 weeks, one
bye per team, a handful of underpriced studs) with every team roster
repeated ``depth`` times.  Depth 1 with seed 20180901 reproduces
``tests/fixtures/season.csv`` and ``tests/fixtures/contest_results.csv``
byte for byte; ``--self-check`` verifies that.

``settle_week`` lists every player who did not play in that week as not
draftable, so a lineup picked for that week always has actual FPTS and the
week validates whatever the seed.

    python3 benchmark/gen_season.py --seed 3 --depth 3 --out-dir /tmp/s3
    python3 benchmark/gen_season.py --self-check
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

FIXTURE_SEED = 20180901
N_TEAMS = 32
WEEKS = range(1, 18)
N_CONTEST = 2400

POSITION_BASE = {"QB": 18.0, "RB": 12.0, "WR": 11.0, "TE": 8.0, "DST": 7.0}
TEAM_ROSTER = ["QB", "RB", "RB", "WR", "WR", "WR", "TE", "TE", "DST"]
EXTRA_PLAYERS = ["RB"] * 4 + ["WR"] * 4 + ["TE"] * 4
STUD_ROLES = ["QB", "RB", "RB", "RB", "WR", "WR", "WR", "TE", "DST"]

HEADER = (
    "player_id,week,position,salary,fpts,point_diff,team_off_rank,"
    "team_def_rank,opp_off_rank,opp_def_rank,home,spread,over_under,"
    "latitude,longitude,draftable"
).split(",")


def generate(seed: int, depth: int = 1, settle_week: int | None = None):
    """Return (season_csv_text, contest_csv_text) for one seed and depth."""
    rng = np.random.default_rng(seed)
    lat = rng.uniform(25.0, 48.0, N_TEAMS).round(4)
    lon = rng.uniform(-122.5, -71.0, N_TEAMS).round(4)
    byes = rng.integers(4, 13, N_TEAMS)

    strength_off = rng.normal(0, 1, N_TEAMS)
    strength_def = rng.normal(0, 1, N_TEAMS)
    off_rank, def_rank = {}, {}
    for wk in WEEKS:
        strength_off += rng.normal(0, 0.25, N_TEAMS)
        strength_def += rng.normal(0, 0.25, N_TEAMS)
        off_rank[wk] = np.argsort(np.argsort(-strength_off)) + 1
        def_rank[wk] = np.argsort(np.argsort(-strength_def)) + 1

    schedule = {}
    for wk in WEEKS:
        active = [t for t in range(N_TEAMS) if byes[t] != wk]
        order = rng.permutation(len(active))
        for i in range(0, len(active) - 1, 2):
            a, b = active[order[i]], active[order[i + 1]]
            edge = strength_off[a] - strength_off[b] + strength_def[b] - strength_def[a]
            spread = float(np.round(-1.5 * edge + rng.normal(0, 1.5), 1))
            total = float(np.round(rng.normal(45.5, 3.5), 1))
            diff = int(np.round(-spread * 1.2 + rng.normal(0, 9)))
            schedule[(a, wk)] = (b, 1, spread, total, diff)
            schedule[(b, wk)] = (a, 0, -spread, total, -diff)

    safe_teams = [t for t in range(N_TEAMS) if byes[t] not in (5, 6, 7, 8)]
    stud_team = {team: STUD_ROLES[i] for i, team in enumerate(safe_teams[: len(STUD_ROLES)])}

    players = []
    stud_ids: set[str] = set()
    counter: dict[str, int] = {}
    for team in range(N_TEAMS):
        roster = TEAM_ROSTER * depth
        if team < len(EXTRA_PLAYERS):
            roster = roster + [EXTRA_PLAYERS[team]]
        stud_pos = stud_team.get(team)
        for pos in roster:
            counter[pos] = counter.get(pos, 0) + 1
            pid = f"{pos}{counter[pos]:03d}"
            if pos == stud_pos:
                stud_pos = None
                stud_ids.add(pid)
                skill = 6.0 + float(rng.uniform(0.0, 2.0))
                misprice = -int(1500 + rng.integers(0, 4) * 100)
            else:
                skill = float(rng.normal(0, 3.0))
                misprice = int(rng.integers(-8, 9)) * 100
            players.append((pid, team, pos, skill, misprice))

    rows = []
    recent = {pid: [] for pid, *_ in players}
    for wk in WEEKS:
        for pid, team, pos, skill, misprice in players:
            game = schedule.get((team, wk))
            base = POSITION_BASE[pos] + skill
            if game is None:
                rows.append([pid, wk, pos, 4000, "", "", "", "", "", "", 0, "", "", "", "", 0])
                continue
            opp, home, spread, total, diff = game
            form = float(np.mean(recent[pid][-3:])) if recent[pid] else base
            fpts = (
                0.55 * base
                + 0.40 * form
                + 1.6 * home
                - 0.30 * spread
                + 0.10 * (total - 45.0)
                + rng.normal(0, 1.2)
            )
            fpts = round(max(0.0, fpts), 2)
            recent[pid].append(fpts)

            missed = rng.random() < 0.04 and pid not in stud_ids
            salary = int(np.clip(round((2500 + 380 * (base - 4)) / 100) * 100, 2000, 9500))
            salary += misprice + int(rng.integers(-1, 2)) * 100
            draftable = 0 if missed and rng.random() < 0.5 else 1
            if missed and wk == settle_week:
                draftable = 0
            rows.append(
                [
                    pid, wk, pos, max(salary, 2000), "" if missed else fpts, diff,
                    off_rank[wk][team], def_rank[wk][team],
                    off_rank[wk][opp], def_rank[wk][opp],
                    home, spread, total,
                    lat[opp if home == 0 else team], lon[opp if home == 0 else team],
                    draftable,
                ]
            )

    user_scores = rng.normal(138.0, 32.0, N_CONTEST).clip(min=0.0).round(2)
    user_scores[rng.random(N_CONTEST) < 0.02] = 0.0
    order = np.argsort(-user_scores)

    season = io.StringIO(newline="")
    writer = csv.writer(season)
    writer.writerow(HEADER)
    writer.writerows(rows)
    contest = io.StringIO(newline="")
    writer = csv.writer(contest)
    writer.writerow(["user_rank", "fpts"])
    for rank, idx in enumerate(order, start=1):
        writer.writerow([rank, user_scores[idx]])
    return season.getvalue(), contest.getvalue()


def write_inputs(out_dir: Path, seed: int, depth: int, settle_week: int | None):
    """Write season.csv and contest_results.csv; returns their paths."""
    season, contest = generate(seed, depth, settle_week)
    out_dir.mkdir(parents=True, exist_ok=True)
    season_path = out_dir / "season.csv"
    contest_path = out_dir / "contest_results.csv"
    season_path.write_bytes(season.encode("utf-8"))
    contest_path.write_bytes(contest.encode("utf-8"))
    return season_path, contest_path


def self_check(fixtures: Path) -> bool:
    """True when depth 1, seed 20180901 reproduces the committed fixtures."""
    season, contest = generate(FIXTURE_SEED, depth=1)
    ok = True
    for name, text in (("season.csv", season), ("contest_results.csv", contest)):
        same = (fixtures / name).read_bytes() == text.encode("utf-8")
        print(f"{name}: {'identical' if same else 'DIFFERS'}")
        ok = ok and same
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=FIXTURE_SEED)
    parser.add_argument("--depth", type=int, default=1, help="roster repeats per team")
    parser.add_argument("--settle-week", type=int, help="week whose inactive players are undraftable")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument(
        "--self-check", action="store_true", help="compare depth 1 / seed 20180901 with tests/fixtures"
    )
    args = parser.parse_args(argv)
    if args.self_check:
        fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
        return 0 if self_check(fixtures) else 1
    season, contest = write_inputs(args.out_dir, args.seed, args.depth, args.settle_week)
    print(f"wrote {season} and {contest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
