"""The machine's speed during a run, from a fixed piece of reference work.

On a shared virtual machine the same CPU-bound work takes a quarter more or
less time from one minute to the next, in CPU time as much as in wall time,
because other tenants share the physical cores.  Two runs of the same code
minutes apart then differ by more than any bound a change could be held to.

The benchmark therefore times a fixed piece of reference work (Python
dict, list and float operations plus small numpy calls, the mix the
pipeline's stages spend their time in) before every stage invocation.  The
median of those timings is the run's speed; each time metric is reported
as its wall time scaled to the reference speed::

    scaled = wall * REFERENCE_S / median(reference timings)

The reference work never touches ``dfslineup``, so a change to the program
moves the scaled time exactly as it moves the wall time.  The raw wall
times and the timings are kept in the run's record.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

# Median time of one piece of reference work on the machine the reference
# figures in README.md come from; scaled times are seconds at that speed.
REFERENCE_S = 0.050


def reference_work() -> float:
    rng = random.Random(7)
    table: dict[int, float] = {}
    rows = []
    for i in range(22_000):
        k = rng.randrange(512)
        table[k] = table.get(k, 0.0) + math.sqrt(i + 1.0)
        rows.append((k, i * 0.5))
    rows.sort()
    v = np.asarray([r[1] for r in rows])
    acc = 0.0
    for _ in range(400):
        acc += float(np.maximum(v[:256], v[256:512]).sum())
    return acc + sum(table.values())


class Speedometer:
    """Times the reference work on demand and scales wall times by it."""

    def __init__(self):
        reference_work()  # warm-up, not counted
        self.timings: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.timings.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Multiplier from this run's wall time to seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.timings)
