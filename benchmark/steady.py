#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code must agree.

Run from the repository root:

    python3 benchmark/steady.py --seeds 10

Each of the two sets runs every workload in BENCHMARK.json once per seed
(seeds 1..N, interleaving workloads).  Per workload and end-to-end metric it
reports each set's median and its spread, the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  The sets agree when every spread is within the metric's bound in
BENCHMARK.json, the second median is not worse than the first by more than
the bound, every run is correct, and the share of failed operations is the
same.  Exit status 0 means every row agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT = 180
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="compare two sets of benchmark runs")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload per set")
    args = parser.parse_args(argv)

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                start = time.perf_counter()
                out = run_once(w, seed, spec["run_seconds"], 0)
                results[w][s].append(out)
                print(f"set {s + 1} {w} seed {seed}: {time.perf_counter() - start:.1f} s, "
                      f"correct={out['correct']} failed={out['failed']}/{out['attempted']}",
                      file=sys.stderr, flush=True)

    agree = True
    rows = []
    print(f"{'workload':14} {'metric':12} " + " ".join(
        f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}" for s in range(SETS)
    ) + f" {'bound':>6} {'verdict':>8}")
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = (meds[1] - meds[0]) / meds[0]
            if metric["better"] == "higher":
                worse = -worse
            ok = (correct and len(set(shares)) == 1 and all(sp <= bound for sp in spreads)
                  and worse <= bound)
            agree = agree and ok
            rows.append({"workload": w, "metric": name, "medians": meds, "spreads": spreads,
                         "bound": bound, "failed_share": shares, "agree": ok})
            print(f"{w:14} {name:12} " + " ".join(
                f"{m:10.4f} {sp:8.3f}" for m, sp in zip(meds, spreads)
            ) + f" {bound:6.2f} {'agree' if ok else 'DISAGREE':>8}")
    out = Path(".bench_work") / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"rows": rows, "runs": results}, indent=1))
    print(f"details: {out}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
