"""Machine speed, measured between jobs, to scale job times by.

The benchmark runs on a shared host whose speed drifts by up to 1.5x in
episodes of 10 to 20 s, with CPU time tracking wall time, so a raw
median flips with whichever speed held more of a run.  A fixed
calibration kernel that uses no package code runs between jobs, and
each job's time is scaled to a machine on which that kernel takes
``NOMINAL_S``.  A change to the package cannot move the kernel, so a
slower program still reads slower; a slower machine mostly does not.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.007   # kernel time that defines the reference speed
GAP_S = 0.5         # calibrate again, between jobs, once this much time has passed
WINDOW_S = 1.5      # calibrations this close to a job set its speed
REPEATS = 3         # kernel runs per calibration; the fastest counts


def kernel_seconds() -> float:
    """Seconds for a fixed mix like the package's own: interpreter
    arithmetic, many numpy calls on tiny arrays and a few small BLAS
    products.  Every product of x with itself gives x back."""
    x = np.full((64, 64), 1.0 / 64)
    v, w = np.ones(4), np.full(4, 0.5)
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(1_500):
        v = v * 0.5 + w
    for _ in range(30):
        x = x @ x
    return time.perf_counter() - t0


class Speed:
    """Job times, and calibrations taken between the jobs.  A job's
    factor is NOMINAL_S over the median calibration within WINDOW_S of
    the job.  The minimum over REPEATS and the median over the window
    keep a kernel run hit by an interrupt from moving the factor."""

    def __init__(self):
        self.kernel: list[tuple[float, float]] = []   # (taken at, kernel seconds)
        self.jobs: list[tuple[float, float]] = []     # (ended at, seconds)
        self._calibrate()

    def _calibrate(self) -> None:
        seconds = min(kernel_seconds() for _ in range(REPEATS))
        self.kernel.append((time.perf_counter(), seconds))

    def add(self, seconds: float) -> None:
        self.jobs.append((time.perf_counter(), seconds))
        if self.jobs[-1][0] - self.kernel[-1][0] >= GAP_S:
            self._calibrate()

    @property
    def raw(self) -> list[float]:
        return [s for _, s in self.jobs]

    @property
    def kernel_times(self) -> list[float]:
        return [k for _, k in self.kernel]

    def scaled(self) -> list[float]:
        """Job seconds at reference speed, in job order (NaN stays NaN).
        Calibrates once more first if a job ended after the last calibration."""
        if self.jobs and self.jobs[-1][0] > self.kernel[-1][0]:
            self._calibrate()
        out = []
        for end, seconds in self.jobs:
            start = end - seconds if math.isfinite(seconds) else end
            near = ([k for t, k in self.kernel if start - WINDOW_S <= t <= end + WINDOW_S]
                    or [min(self.kernel, key=lambda tk: abs(tk[0] - end))[1]])
            out.append(seconds * NOMINAL_S / statistics.median(near))
        return out
