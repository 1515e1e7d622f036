"""Machine-speed calibration for timings on shared hardware.

On a shared box the CPU slows down and speeds up by up to 1.5x, for
seconds to minutes at a time, as other tenants come and go, and wall
times drift with it.  So the benchmark times a fixed kernel before,
every INTERVAL_S seconds during (on SIGALRM, between bytecodes of the
main thread) and after each timed block, subtracts the kernel's own time
from the block, and scales the rest to a reference speed: the speed at
which one kernel run takes REFERENCE_S seconds.  The kernel mixes
interpreter work, cubic interpolation and FFTs, as the workloads do, and
touches no mswf code, so a change to mswf cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy import ndimage

REFERENCE_S = 0.05
INTERVAL_S = 0.5

_FIELD = np.cos(np.add.outer(np.linspace(0.0, 9.0, 128), np.linspace(0.0, 7.0, 128)))
_COORDS = np.indices(_FIELD.shape).astype(float) + 0.3
_WAVE = np.exp(1j * np.linspace(0.0, 50.0, 4096))


def kernel() -> float:
    s = 0.0
    for i in range(90000):
        s += math.sin(i) * 1e-3
    for _ in range(9):
        s += float(ndimage.map_coordinates(_FIELD, _COORDS, order=3,
                                           mode="grid-wrap")[0, 0])
    x = _WAVE
    for _ in range(150):
        x = np.fft.ifft(np.fft.fft(x) * 0.999)
    return s + float(x[0].real)


class Speed:
    """Kernel samples around, and with periodic=True during, a block."""

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.samples: list = []  # (start, seconds)
        self._previous = None

    def _take(self, *_):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._take()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def inside(self, start: float, end: float) -> float:
        """Kernel time spent between start and end."""
        return sum(d for t, d in self.samples if start <= t < end)

    @property
    def scale(self) -> float:
        """Factor from seconds now to seconds at the reference speed."""
        return REFERENCE_S / statistics.mean(d for _, d in self.samples)
