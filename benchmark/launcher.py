"""Stage-process launcher: runs commands, reports wall time, exit code and peak RSS.

Linux charges a child, as its peak resident set, the high-water mark of the
address space it was forked from.  A stage started straight from the
benchmark process would report at least the benchmark's own peak (numpy,
scipy, Monte Carlo arrays) as its own.  The benchmark therefore starts this
small process once and has it fork every stage.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


class Launcher:
    """Client side: one launcher process, one request per line on its stdin."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], env: dict, log) -> tuple[float, int, float]:
        """Run one process; returns (wall seconds, exit code, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "env": env, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("stage launcher exited")
        wall, code, rss = json.loads(line)
        return wall, code, rss

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], env=req["env"], stdout=out, stderr=out, stdin=subprocess.DEVNULL
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([wall, proc.returncode, usage.ru_maxrss / 1024.0]), flush=True)


if __name__ == "__main__":
    serve()
