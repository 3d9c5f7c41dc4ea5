"""Host speed, measured in a process of its own.

The 2-vCPU x86 VM the benchmark was tuned on runs the same code up to 2x
slower for stretches of many seconds while other tenants are busy.  So the
workloads scale their times by ``REFERENCE_S`` over the time of
``reference_kernel``, a fixed pure-Python loop.  The kernel runs in a
long-lived side process that imports nothing from hypermachine, so the
program's heap, caches and gc settings cannot change its time: only the
host can.  The workload process blocks while the kernel runs, so the two
never compete for a core; run.py pins both to one CPU, so the kernel times
the core the work ran on.

    clock = HostClock()
    scale = REFERENCE_S / clock.seconds()
    clock.close()

Run as a script, this module is the side process: it runs the kernel once
for each line on standard input and prints its time.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

REFERENCE_S = 0.010  # reference_kernel() on an idle 2-core x86 host, Python 3.11


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the engine's: a dict tape, one rule
    lookup per step, and a sorted configuration snapshot every 8 steps."""
    rules = {("a", "_"): ("b", "1", 1), ("a", "1"): ("b", "_", -1), ("b", "_"): ("a", "1", -1), ("b", "1"): ("a", "1", 1)}
    tape: dict[int, str] = {}
    state, head = "a", 0
    seen = {}
    for step in range(6000):
        state, write, move = rules[state, tape.get(head, "_")]
        if write == "_":
            tape.pop(head, None)
        else:
            tape[head] = write
        head = (head + move) % 48
        if step & 7 == 0:
            seen[state, tuple(sorted(tape.items()))] = step
    return len(seen)


def reference_seconds() -> float:
    started = perf_counter()
    reference_kernel()
    return perf_counter() - started


class HostClock:
    """Client of the side process; ``close`` stops it and waits for it."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.seconds()  # warm-up: the first run of a fresh process is slow

    def seconds(self) -> float:
        """Time of one kernel run in the side process."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def serve() -> None:
    for _ in sys.stdin:
        print(repr(reference_seconds()), flush=True)


if __name__ == "__main__":
    serve()
