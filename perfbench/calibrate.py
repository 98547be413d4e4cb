"""Machine-speed calibration for the timed metrics.

On a small shared machine the speed of one core can drift by +-20% over tens
of seconds, and most of that drift is shared by any FFT-and-array code.  The benchmark therefore times a fixed kernel of that
kind (no lpmhd code) between ops, and between hot calls inside an op at most
every CAL_INTERVAL_S, and scales each measured time by ``NOMINAL_S / kernel
time`` averaged over the samples around it: times are reported in seconds
at the speed at which the kernel takes NOMINAL_S.  Calibration time inside
an op is subtracted from the op.  Raw times are kept in the run records.

NOMINAL_S is the kernel's median time on a shared 2-vCPU Xeon VM where the
benchmark was defined (Python 3.11, numpy 2.4, scipy 1.17).  Changing it
rescales every timed metric, so it stays fixed.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.fft import irfftn, rfftn

NOMINAL_S = 0.0074
CAL_INTERVAL_S = 0.1
_SHAPE = (2, 128, 128)
_INNER = 10
_REPS = 3


class Calibrator:
    """Times the fixed kernel; bound to the scipy.fft functions at import,
    so the traced run's FFT wrappers never see it."""

    def __init__(self):
        self.x = np.random.default_rng(0).random(_SHAPE)
        self.times: list[float] = []
        self.samples: list[float] = []

    def _kernel(self):
        x = self.x
        for _ in range(_INNER):
            c = rfftn(x, axes=(1, 2))
            c = c * c + c
            y = irfftn(c, s=_SHAPE[1:], axes=(1, 2))
            np.sqrt(y * y + x * x).max()

    def sample(self, reps: int = _REPS) -> float:
        """Median of ``reps`` kernel timings, in seconds; recorded with the
        time it was taken."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        value = statistics.median(times)
        self.times.append(time.perf_counter())
        self.samples.append(value)
        return value

    def around(self, start: float, end: float) -> float:
        """Mean kernel time over the samples taken in [start, end] plus the
        last one before and the first one after."""
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = bisect.bisect_right(self.times, end) + 1
        window = self.samples[lo:hi]
        return sum(window) / len(window)


def scale(kernel_s: float) -> float:
    """Factor taking a time measured at this kernel speed to nominal speed."""
    return NOMINAL_S / kernel_s
