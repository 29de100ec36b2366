"""Reference speed: scale each call's time by how fast the machine ran around it.

The benchmark was built on a shared machine whose speed drifts by 20-40%
within and between runs, moving every workload together.  A fixed reference
kernel that never touches accq is timed between calls, and each call's
latency is multiplied by REFERENCE_S over the median kernel time within
WINDOW_S of the call.  A change to accq moves the scaled time as it moves
the raw one; a change in machine speed moves the kernel too and cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array
from fractions import Fraction

import numpy as np

REFERENCE_S = 1e-3  # nominal time of one reference kernel
EVERY_S = 0.05  # one kernel sample per this much call time
WINDOW_S = 0.1  # kernel samples this close to a call set its speed
MIN_SAMPLES = 3  # widen by this many samples each side when the window holds fewer

_ROWS = np.random.default_rng(0).normal(size=(256, 16))


def reference_kernel() -> float:
    """Time a fixed mix of interpreter loops, Fraction sums, dict work and small numpy ops."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += (i * i) % 7
    frac = Fraction(0)
    for i in range(1, 80):
        frac += Fraction(1, i)
    arr = np.arange(256.0)
    for _ in range(60):
        arr = np.abs(arr - arr.mean()) + 1.0
    for _ in range(20):
        float((_ROWS @ _ROWS[:16].T).sum())
        np.sort(_ROWS[:, 0])
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sorted(counts.values())
    return time.perf_counter() - start


class Gauge:
    """Kernel samples in time order, and the speed they imply around a call."""

    def __init__(self) -> None:
        self.times = array("d")
        self.durations = array("d")
        self._debt = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.durations.append(reference_kernel())

    def after_call(self, latency: float) -> None:
        """Sample once per EVERY_S of call time, so the kernel costs a fixed share."""
        self._debt += latency
        while self._debt >= EVERY_S:
            self.sample()
            self._debt -= EVERY_S

    def scale(self, start: float, latency: float) -> float:
        """The call's latency at reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + latency + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - MIN_SAMPLES), min(len(self.times), hi + MIN_SAMPLES)
        return latency * REFERENCE_S / statistics.median(self.durations[lo:hi])
