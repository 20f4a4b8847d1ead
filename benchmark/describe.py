#!/usr/bin/env python3
"""Print each workload's make-up for one seed.

Run from the repository root:

    python3 benchmark/describe.py --seed 1

For every workload: players and season rows, and per target week the
training and prediction window rows (from ``dfslineup.data.build_window``),
the draftable random-lineup pool, and the salary band's acceptance rate
under the benchmark's own uniform-then-reject sampler.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from gen_season import write_inputs  # noqa: E402
from run import WORKLOADS  # noqa: E402

ACCEPTANCE_DRAWS = 20_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    from dfslineup.data import build_window, load_player_weeks

    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            season_csv, _ = write_inputs(Path(tmp), args.seed, wl.depth, wl.settle_week)
            table = load_player_weeks(season_csv)
            players = len(table.player_ids())
            print(f"{name} (seed {args.seed}): {players} players, {len(table)} rows, "
                  f"{wl.n_models} models, {wl.random_count} random lineups in "
                  f"[{wl.min_salary}, {checks.SALARY_CAP}], {wl.resamples} resamples")
            print("  week  train_rows  predict_rows  random_pool  band_acceptance")
            for week in wl.weeks:
                train = build_window(table, week - 4, "train")
                pred = build_window(table, week - 3, "predict")
                pool = checks.Season(season_csv, week).pool()
                accepted, attempts = checks.uniform_band_sample(
                    pool, wl.min_salary, ACCEPTANCE_DRAWS, args.seed
                )
                print(f"  {week:4d}  {len(train):10d}  {len(pred):12d}  {len(pool):11d}  "
                      f"{len(accepted) / attempts:15.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
