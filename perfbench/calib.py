"""Host-speed calibration: a fixed pure-Python kernel timed around every
measurement, so the benchmark's times read as seconds on one reference
host.

A shared host's speed drifts by tens of percent for minutes at a time
(other tenants, cache and core sharing); a run sits in one such stretch
and a set of runs in another.  The benchmark therefore times the
kernel right before and right after each measured interval and reports
``raw seconds * REF_KERNEL_S / kernel seconds`` -- the interval's length
on a host where the kernel takes ``REF_KERNEL_S``.  A slowdown that
hits the program and the kernel alike cancels out; a change to the
program does not, because the kernel is part of the benchmark and never
calls the program.

The kernel does what the flow's inner loops do -- small tuples, lists,
dicts, big-int bit operations, sorting and hashing -- on a fixed seeded
random DAG.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from typing import List

#: median kernel time on the reference host: an idle 2-vCPU x86 VM
#: running CPython 3.11
REF_KERNEL_S = 0.0080
#: kernel runs per calibration; their median is the calibration
REPEATS = 3
_NODES = 2600


def kernel() -> str:
    """One fixed unit of interpreter work; returns a digest of its result."""
    rng = random.Random(20240611)
    n = _NODES
    fanins = [()] * 32 + [(rng.randrange(i), rng.randrange(i))
                          for i in range(32, n)]
    level = [0] * n
    value = [0] * n
    fanout = {}
    for i, f in enumerate(fanins):
        if f:
            a, b = f
            level[i] = 1 + max(level[a], level[b])
            fanout.setdefault(a, []).append(i)
            fanout.setdefault(b, []).append(i)
            value[i] = (value[a] & value[b]) ^ (value[a] | i)
        else:
            value[i] = rng.getrandbits(64)
    order = sorted(range(n), key=lambda i: (level[i], -len(fanout.get(i, ()))))
    names = {f"n{i}": (level[i], value[i] & 0xFF) for i in order}
    return hashlib.sha256(repr(sorted(names.items())).encode()).hexdigest()


class Calibrator:
    """Kernel timings taken between measurements, and the factors that
    turn the raw seconds in between into reference seconds."""

    def __init__(self) -> None:
        self.kernel_s: List[float] = []
        self.last = self._measure()

    def _measure(self) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        median = statistics.median(times)
        self.kernel_s.append(median)
        return median

    def scale(self) -> float:
        """Calibrate again and return the factor for the seconds timed
        since the previous calibration: ``REF_KERNEL_S`` over the mean
        of the kernel times before and after them."""
        before, self.last = self.last, self._measure()
        return REF_KERNEL_S / ((before + self.last) / 2)


class Segments:
    """A ``run_many`` ``on_result`` callback (and :meth:`on_pass_end`, a
    pipeline hook) that calibrates between jobs and passes once at least
    *min_s* seconds of them have run, so a long call is converted
    piecewise.  The calibrations are not part of the time.

    Call :meth:`start` right before ``run_many`` and :meth:`finish` right
    after it; ``finish`` returns ``(reference seconds, raw seconds)``.
    """

    def __init__(self, cal: Calibrator, min_s: float = 1.0):
        self.cal = cal
        self.min_s = min_s

    def start(self) -> None:
        self.cal.scale()  # a fresh "before" calibration
        self.ref = self.raw = 0.0
        self.t0 = time.perf_counter()

    def _close(self) -> None:
        dt = time.perf_counter() - self.t0
        self.raw += dt
        self.ref += dt * self.cal.scale()
        self.t0 = time.perf_counter()

    def __call__(self, *_args) -> None:
        if time.perf_counter() - self.t0 >= self.min_s:
            self._close()

    on_pass_end = __call__

    def finish(self):
        self._close()
        return self.ref, self.raw
