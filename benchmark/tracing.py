"""In-process traced run: spans around the calls each pipeline stage makes.

The tracer wraps the names that ``dfslineup.pipeline`` imports (and the
``dfslineup.stats`` functions it calls through the module), so every call a
``cmd_*`` function makes into another layer opens a span.  Spans are kept
in memory as (name, start, end, parent) and turned into per-layer metrics
when the run ends.  Nothing inside the program is changed.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

STAGES = ("ingest", "predict", "optimize", "validate", "report")

# Wrapped name -> layer it is charged to.  Module is the attribute's owner.
PIPELINE_NAMES = {
    "load_player_weeks": "data.parse",
    "load_exclusions": "data.parse",
    "build_window": "data.window",
    "train_ensemble": "ensemble.train",
    "predict_distribution": "ensemble.forward",
    "sample_matrix": "ensemble.forward",
    "optimize_all_flex": "optimizer.solve",
    "modal_lineup": "optimizer.select",
    "lineup_prediction_interval": "optimizer.select",
}
STATS_NAMES = {
    "random_population": "stats.sample",
    "load_contest_results": "stats.summary",
    "compare_populations": "stats.summary",
    "summarize_population": "stats.summary",
}


class Tracer:
    """Collects spans; ``observe`` records counts from call results."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, start, _, p = self.spans[idx]
            self.spans[idx] = (n, start, time.perf_counter(), p)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced


def span_cost(calls: int = 20_000, batches: int = 7) -> float:
    """Seconds one traced call adds over a plain one: median over batches of
    a wrapped no-op timed against the bare no-op, back to back."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        costs.append((traced - plain) / calls)
    return statistics.median(costs)


def _observe_table(tracer, args, table):
    tracer.add("data.rows", len(table))


def _observe_window(tracer, args, window):
    tracer.add("data.window_rows", len(window))


def _observe_ensemble(tracer, args, ensemble):
    from dfslineup.ensemble import model_seed

    master = ensemble.master_seed
    tracer.add("network.epochs", sum(m.epochs_run for m in ensemble.models))
    tracer.add(
        "ensemble.retries",
        sum(m.seed != model_seed(master, i) for i, m in enumerate(ensemble.models)),
    )


def _observe_draws(tracer, args, lineups):
    tracer.add("stats.draws", len(lineups))


OBSERVERS = {
    "load_player_weeks": _observe_table,
    "build_window": _observe_window,
    "train_ensemble": _observe_ensemble,
    "random_population": _observe_draws,
}


@contextmanager
def installed(tracer: Tracer):
    """Patch the traced names for the duration of the block."""
    from dfslineup import pipeline, stats

    saved = []
    for module, names in ((pipeline, PIPELINE_NAMES), (stats, STATS_NAMES)):
        for name, layer in names.items():
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, tracer.wrap(layer, original, OBSERVERS.get(name)))
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def run_interleaved(cfg_paths, tracer: Tracer):
    """Run the stages in process, each once plain and once traced.

    The plain and traced call of a stage run back to back, in alternating
    order, so drift in machine load falls on both alike.  The config pairs
    differ only in their output directory.  Returns the summed wall time
    of each kind and the (op, ok) outcomes.
    """
    from dfslineup import pipeline
    from dfslineup.config import load_config

    walls = {"plain": 0.0, "traced": 0.0}
    ops = []
    turn = 0
    for plain_path, traced_path in cfg_paths:
        cfgs = {"plain": load_config(plain_path), "traced": load_config(traced_path)}
        for stage in STAGES:
            fn = getattr(pipeline, f"cmd_{stage}")
            order = ("plain", "traced") if turn % 2 == 0 else ("traced", "plain")
            turn += 1
            for kind in order:
                start = time.perf_counter()
                try:
                    if kind == "plain":
                        fn(cfgs[kind])
                    else:
                        with installed(tracer), tracer.span(f"pipeline.{stage}"):
                            fn(cfgs[kind])
                    ops.append((f"{kind} {stage} {plain_path.stem}", True))
                except Exception as exc:  # a failing stage is counted, the run goes on
                    ops.append((f"{kind} {stage} {plain_path.stem}: {type(exc).__name__}: {exc}", False))
                walls[kind] += time.perf_counter() - start
    return walls, ops


def _outermost_total(spans, layer: str) -> float:
    """Summed duration of spans of one layer not nested in a span of that layer."""
    total = 0.0
    for name, start, end, parent in spans:
        if name != layer:
            continue
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == layer:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += end - start
    return total


def _tail(values_ms: list[float]) -> float:
    """Highest percentile with at least ten values beyond it (median below 20)."""
    import numpy as np

    n = len(values_ms)
    q = max(0.5, 1.0 - 10.0 / n) if n else 0.5
    return float(np.quantile(values_ms, q)) if n else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    import numpy as np

    spans = tracer.spans
    m: dict[str, float] = {}
    for layer in ("data.parse", "data.window", "ensemble.train", "ensemble.forward",
                  "optimizer.solve", "optimizer.select", "stats.sample", "stats.summary"):
        m[f"{layer}_s"] = _outermost_total(spans, layer)
    solves = [(e - s) * 1e3 for n, s, e, _ in spans if n == "optimizer.solve"]
    m["optimizer.solves"] = len(solves)
    m["optimizer.solve_ms_p50"] = float(np.median(solves)) if solves else 0.0
    m["optimizer.solve_ms_tail"] = _tail(solves)
    m["data.rows_per_s"] = tracer.counts.get("data.rows", 0) / max(m["data.parse_s"], 1e-12)
    m["data.window_rows"] = tracer.counts.get("data.window_rows", 0)
    m["network.epochs"] = tracer.counts.get("network.epochs", 0)
    m["network.epochs_per_s"] = m["network.epochs"] / max(m["ensemble.train_s"], 1e-12)
    m["ensemble.retries"] = tracer.counts.get("ensemble.retries", 0)
    m["stats.draws"] = tracer.counts.get("stats.draws", 0)
    m["stats.draws_per_s"] = m["stats.draws"] / max(m["stats.sample_s"], 1e-12)

    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for stage in STAGES:
        m[f"pipeline.{stage}_self_s"] = sum(
            (end - start) - child_s[i]
            for i, (name, start, end, _) in enumerate(spans)
            if name == f"pipeline.{stage}"
        )
    return m
