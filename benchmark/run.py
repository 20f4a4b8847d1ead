#!/usr/bin/env python3
"""Stage-by-stage benchmark of the weekly dfslineup pipeline.

Run from the repository root:

    python3 benchmark/run.py --workload week-default --seed 1 --seconds 25 --trace 0

The benchmark generates the workload's season from ``--seed``, runs the five
CLI stages (ingest, predict, optimize, validate, report) as separate
processes for each target week, times each from outside (scaled to a
reference machine speed, see ``speed.py``), and checks every output against
a computation of its own (see ``checks.py``).  With
``--trace 1`` it instead runs the stages in process twice, once plain and
once traced, and reports per-layer metrics (see ``tracing.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything else about
the run (versions, per-check details, artifact hashes) goes to a record
under ``.bench_work/records/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from gen_season import write_inputs  # noqa: E402
from launcher import Launcher  # noqa: E402
from speed import Speedometer  # noqa: E402

STAGES = tracing.STAGES
# A `config-init` invocation into a scratch path: interpreter start, imports
# and argument parsing, with no stage work.  `setup_s` is its median.
SETUP = "setup"
IMPORT_REPS = 3


@dataclass(frozen=True)
class Workload:
    depth: int  # roster repeats per team
    weeks: tuple[int, ...]
    settle_week: int | None  # week whose inactive players are undraftable
    n_models: int
    random_count: int
    min_salary: int
    resamples: int
    contest: bool
    mc_draws: int  # accepted draws of the benchmark's own sampler, per week
    # Invocations per week, in order; a stage's time is the median of its
    # invocations.  Sub-second stages and the set-up invocation are spread
    # between the others, so their figure samples the whole run rather than
    # one moment of a machine whose speed drifts.  Re-running ingest
    # rewrites identical windows.
    schedule: tuple[str, ...] = (SETUP,) + STAGES


WORKLOADS = {
    "week-default": Workload(
        depth=1, weeks=(8,), settle_week=8, n_models=200, random_count=35_000,
        min_salary=45_000, resamples=10_000, contest=True, mc_draws=100_000,
        schedule=(SETUP, "ingest", "predict", SETUP, "ingest", "optimize", SETUP, "ingest",
                  "validate", SETUP, "ingest", "report", SETUP, "ingest"),
    ),
    "deep-backtest": Workload(
        depth=3, weeks=tuple(range(5, 18)), settle_week=None, n_models=10,
        random_count=1_000, min_salary=45_000, resamples=1_000, contest=False,
        mc_draws=20_000,
    ),
}


class Ops:
    """Attempted operations and their outcomes, in order."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, kind: str, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"kind": kind, "name": name, "ok": ok, "detail": detail})
        return ok

    def check(self, name: str, fn, *args) -> bool:
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a check that cannot run has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.add("check", name, bool(ok), detail)

    @property
    def failed(self) -> int:
        return sum(not i["ok"] for i in self.items)

    @property
    def checks_ok(self) -> bool:
        return all(i["ok"] for i in self.items if i["kind"] == "check")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli(stage: str, config: Path) -> list[str]:
    return [sys.executable, "-m", "dfslineup.cli", stage, "--config", str(config)]


def write_config(path: Path, wl: Workload, week: int, inputs: Path, out: Path) -> Path:
    """Write one week's config.  JSON is valid YAML, so no YAML writer is needed."""
    cfg = {
        "players_csv": str(inputs / "season.csv"),
        "contest_results_csv": str(inputs / "contest_results.csv") if wl.contest else None,
        "output_dir": str(out),
        "target_week": week,
        "n_models": wl.n_models,
        "workers": 1,
        "random_baseline": {"count": wl.random_count, "min_salary": wl.min_salary},
        "report": {"bootstrap_resamples": wl.resamples},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def code_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_id(root: Path) -> str:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


class HashRef:
    """Reference artifact hashes for one code version, workload and seed.

    The first run of a seed records them; every later run of the same code,
    and every later round or pass within a run, must match them.
    """

    def __init__(self, path: Path):
        self.path = path
        self.ref = json.loads(path.read_text()) if path.exists() else {}

    def check(self, week: int, hashes: dict):
        key = str(week)
        if key not in self.ref:
            self.ref[key] = hashes
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.ref, indent=1, sort_keys=True))
            return True, "recorded as reference"
        diff = sorted(n for n in set(hashes) | set(self.ref[key]) if hashes.get(n) != self.ref[key].get(n))
        return not diff, f"differs: {diff}" if diff else "identical to reference"


def check_week(ops: Ops, out: Path, wl: Workload, week: int, inputs: Path, seed: int,
               hashes: HashRef, oracles: dict):
    """Every output check of one week; ``oracles`` carries oracle results across rounds."""
    tag = f"week {week}"
    season = checks.Season(inputs / "season.csv", week)
    ops.check(f"lineup {tag}", checks.check_lineup, out, season)
    ops.check(f"actuals {tag}", checks.check_actuals, out, season)
    ops.check(f"modal optimum {tag}", checks.check_modal_optimum, out, season, wl.n_models, oracles)
    ops.check(
        f"random mean {tag}", checks.check_random_mean, out, season, wl.min_salary,
        wl.random_count, wl.mc_draws, seed * 1000 + week, oracles,
    )
    if wl.contest:
        ops.check(f"real world {tag}", checks.check_real_world, out, inputs / "contest_results.csv")
    ops.check(f"histograms {tag}", checks.check_histograms, out, wl.n_models)
    ops.check(f"hashes {tag}", lambda: hashes.check(week, checks.artifact_hashes(out)))


def timed_rounds(root, work, wl, inputs, seed, seconds, ops, hashes, launcher) -> dict:
    """Whole rounds of the workload's stage chain until `seconds` of stage time.

    Stage metrics are medians over rounds; `setup_s` is the median of every
    set-up invocation of the run.  Time metrics are scaled to the reference
    speed (see ``speed.py``); the wall times are kept under ``wall``.
    """
    env = child_env(root)
    speed = Speedometer()
    scratch = work / "setup"
    scratch.mkdir()
    # Warm-up, not counted: the first invocation writes the bytecode cache.
    launcher.run(cli("config-init", scratch / "warmup.yaml"), env, work / "setup.log")
    setups = []
    rounds = []
    oracles: dict = {}
    while not rounds or sum(r["pipeline_s"] for r in rounds) < seconds:
        rdir = work / f"round{len(rounds)}"
        stage_s = {s: 0.0 for s in STAGES}
        peak = 0.0
        for week in wl.weeks:
            out = rdir / f"week{week:02d}"
            cfg = write_config(rdir / f"week{week:02d}.yaml", wl, week, inputs, out)
            walls = {s: [] for s in STAGES}
            for stage in wl.schedule:
                if stage == SETUP:
                    argv = cli("config-init", scratch / f"c{len(setups)}.yaml")
                else:
                    argv = cli(stage, cfg)
                speed.sample()
                wall, code, rss = launcher.run(argv, env, rdir / "stages.log")
                ops.add("stage", f"{stage} week {week}", code == 0, f"exit {code}")
                if stage == SETUP:
                    setups.append(wall)
                else:
                    walls[stage].append(wall)
                    peak = max(peak, rss)
            for stage in STAGES:
                stage_s[stage] += statistics.median(walls[stage])
        for week in wl.weeks:
            check_week(ops, rdir / f"week{week:02d}", wl, week, inputs, seed, hashes, oracles)
        rounds.append({**{f"{s}_s": v for s, v in stage_s.items()},
                       "pipeline_s": sum(stage_s.values()), "peak_rss_mb": peak})
        shutil.rmtree(rdir)
    speed.sample()
    wall = {"setup_s": statistics.median(setups),
            **{k: statistics.median(r[k] for r in rounds) for k in rounds[0]}}
    factor = speed.factor()
    scaled = {k: v if k == "peak_rss_mb" else v * factor for k, v in wall.items()}
    return {**scaled, "wall": wall, "speed_factor": factor, "reference_s": speed.timings,
            "rounds": rounds, "setup_walls": setups}


def import_time(root: Path) -> float:
    """Seconds to import dfslineup.cli and its dependencies (python -X importtime)."""
    code = "import sys; sys.stderr.write('@@import\\n'); import dfslineup.cli"
    argv = [sys.executable, "-X", "importtime", "-c", code]
    samples = []
    for _ in range(IMPORT_REPS):
        res = subprocess.run(argv, env=child_env(root), capture_output=True, text=True, timeout=120)
        if res.returncode:
            raise RuntimeError(res.stderr)
        lines = res.stderr.split("@@import\n", 1)[1].splitlines()
        total_us = 0
        for line in lines:
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit() and not name.startswith("  "):  # top level only
                total_us += int(cumulative)
        samples.append(total_us / 1e6)
    return statistics.median(samples)


def traced_pass(root, work, wl, inputs, seed, ops, hashes) -> dict:
    """Each stage in process, plain and traced; per-layer metrics of the traced calls."""
    sys.path.insert(0, str(root / "src"))
    logging.basicConfig(filename=work / "inprocess.log", level=logging.WARNING)
    imp = import_time(root)
    import dfslineup.pipeline  # noqa: F401  imported before timing starts

    pairs = []
    for w in wl.weeks:
        pairs.append(tuple(
            write_config(work / f"{kind}-week{w:02d}.yaml", wl, w, inputs, work / kind / f"week{w:02d}")
            for kind in ("plain", "traced")
        ))
    tracer = tracing.Tracer()
    walls, results = tracing.run_interleaved(pairs, tracer)
    for op, ok in results:
        ops.add("stage", op, ok)
    for week in wl.weeks:
        check_week(ops, work / "traced" / f"week{week:02d}", wl, week, inputs, seed, hashes, {})
        plain = work / "plain" / f"week{week:02d}"
        ops.check(f"hashes plain week {week}", lambda: hashes.check(week, checks.artifact_hashes(plain)))

    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_s"] = imp
    metrics["pipeline.artifact_bytes"] = sum(
        p.stat().st_size for p in (work / "traced").rglob("*") if p.is_file()
    )
    metrics["tracing.spans"] = len(tracer.spans)
    metrics["tracing.span_cost_s"] = tracing.span_cost()
    metrics["tracing.overhead_s"] = metrics["tracing.spans"] * metrics["tracing.span_cost_s"]
    metrics["tracing.plain_s"] = walls["plain"]
    metrics["tracing.traced_s"] = walls["traced"]
    return metrics


def workload_inputs(wl: Workload, seed: int, inputs: Path) -> dict:
    season, contest = write_inputs(inputs, seed, wl.depth, wl.settle_week)
    return {"season_sha256": hashlib.sha256(season.read_bytes()).hexdigest(),
            "contest_sha256": hashlib.sha256(contest.read_bytes()).hexdigest()}


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dfslineup stage-by-stage benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="stage time to measure; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dfslineup" / "cli.py").is_file():
        print(f"error: no dfslineup sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    wl = WORKLOADS[args.workload]
    chash = code_hash(root)
    bench_root = root / ".bench_work"
    work = bench_root / f"run-{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    hashes = HashRef(bench_root / "hashes" / chash[:16] / f"{args.workload}-seed{args.seed}.json")

    ops = Ops()
    try:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "commit": commit_id(root), "source_sha256": chash,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS),
        }
        inputs = work / "inputs"
        record["inputs"] = workload_inputs(wl, args.seed, inputs)
        if args.trace:
            measured = traced_pass(root, work, wl, inputs, args.seed, ops, hashes)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            with Launcher() as launcher:
                measured = timed_rounds(
                    root, work, wl, inputs, args.seed, args.seconds, ops, hashes, launcher
                )
            names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        metrics = {n: {"value": float(measured[n]), "unit": units[n]} for n in names}
        record.update(measured=measured, ops=ops.items, hashes=hashes.ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = bench_root / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    for item in ops.items:
        if not item["ok"]:
            print(f"FAILED {item['kind']} {item['name']}: {item['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.checks_ok,
        "attempted": len(ops.items),
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
