"""Durations at a reference machine speed.

The speed of the machine the benchmark was built on drifts: the same
pure-Python loop runs up to 1.7 times slower for seconds or minutes at a
time, in CPU time as much as in wall time, and a 20-s run often stays in
one state.  Raw timings of unchanged code then differ between two sets of
runs by more than any bound a gate could use.

A ``Speedometer`` times a fixed probe, pure Python doing the kinds of
work the program does (small frozen dataclasses and dicts, set work over
subsets, SHA-256), between the program's operations, at most every
``PROBE_EVERY_S`` seconds.  A duration ``d`` measured at time ``t`` is
reported as ``d * PROBE_NOMINAL_S / p``, where ``p`` is the median time of
the ``NEIGHBOURS`` probes nearest to ``t``.  The probe is part of the
benchmark and does not call the program, so a change to the program moves
``d`` and not ``p``.

The probe does not follow the start of a fresh interpreter, so set-up
times are scaled by ``bare_start`` instead: ``d * START_NOMINAL_S / b``,
``b`` being the start of an interpreter that does nothing, timed just
before.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import itertools
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

clock = time.perf_counter

PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 0.0012  # about the probe's median time on the machine the bounds were set on
NEIGHBOURS = 5
START_NOMINAL_S = 0.07  # about a bare interpreter's start on that machine, in its faster state


@dataclass(frozen=True)
class _Entry:
    pid: int
    ts: int
    value: bytes


_SETS = [frozenset((i, j % 5) for j in range(i % 7 + 3)) for i in range(12)]


def probe() -> int:
    """The fixed unit of work whose time stands for the machine's speed:
    three parts of about equal time, like the program's object and dict
    work, its quorum-subset and set work, and its hashing.  Call it
    through ``timed_probe``, which keeps the collector out."""
    counts: dict[tuple[int, int], int] = {}
    entries = []
    for i in range(400):
        key = (i % 97, i % 13)
        entry = _Entry(i % 7, i, b"x")
        counts[key] = counts.get(key, 0) + entry.ts
        entries.append(entry)
    entries.sort(key=lambda e: (e.pid, -e.ts))
    size = len(frozenset(counts.items()))
    for _ in range(6):
        for combo in itertools.combinations(range(8), 5):
            joined = _SETS[combo[0]]
            for k in combo[1:]:
                joined = joined & _SETS[k] | _SETS[k]
            size += len(joined)
    digest = b""
    for i in range(40):
        digest = hashlib.sha256(digest + repr((i, i % 5)).encode()).digest()
    return size + digest[0]


def timed_probe() -> tuple[float, float]:
    """(start, end) of one probe, with the garbage collector off, so that
    a collection of the program's objects is not taken for a slow machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        a = clock()
        probe()
        return a, clock()
    finally:
        if enabled:
            gc.enable()


def bare_start() -> float:
    """Seconds to start and end an interpreter that does nothing."""
    a = clock()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return clock() - a


class Speedometer:
    def __init__(self):
        self.times: list[float] = []  # when each probe ran
        self.probes: list[float] = []  # how long it took
        self.last = float("-inf")

    def sample(self) -> None:
        a, b = timed_probe()
        self.times.append((a + b) / 2)
        self.probes.append(b - a)
        self.last = b

    def tick(self) -> None:
        """Probe if the last probe is more than PROBE_EVERY_S old."""
        if clock() - self.last >= PROBE_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Reference seconds per measured second at time ``t``."""
        times = self.times
        if not times:
            return 1.0
        i = bisect.bisect_left(times, t)
        lo, hi = i, i
        while hi - lo < NEIGHBOURS and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi == len(times) or t - times[lo - 1] <= times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return PROBE_NOMINAL_S / statistics.median(self.probes[lo:hi])
