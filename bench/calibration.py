"""Host-speed calibration: a fixed kernel timed between the workload's ops.

On a shared VM the speed of unchanged code swings by tens of percent over
seconds to minutes, and whole runs can fall in a slow phase. The kernel
below runs the same kinds of work the package does (interpreter loops,
small numpy arithmetic, `scipy.linalg.expm`, `solve_ivp`, numpy random
streams) but never calls the package, so a change to the package does not
change it. Each op's wall time is rescaled by REF_S over the mean of the
kernel's times just before and just after the op:

    reported = wall * REF_S / kernel_time

which is the op's wall time on a host where the kernel takes REF_S: a
slow phase slows op and kernel alike and cancels, while a faster package
lowers the op's time and leaves the kernel's alone.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.integrate
import scipy.linalg

#: About the kernel's time on the 2-vCPU Xeon (2.0 GHz) VM the benchmark
#: was written on, in its phases of least interference (in slow phases it
#: takes up to twice as long). A fixed constant: it only sets the scale, so
#: that reported figures read as seconds on that machine at its fastest.
REF_S = 0.010
#: Kernel runs per sample, and least op time between two samples.
REPEATS = 3
EVERY_S = 0.5

_M = np.array([[-0.9, 0.1], [0.2, -0.8]])
_V = np.array([0.3, 0.7])


def _rhs(t, y):
    return _M @ y - y * y


def kernel() -> None:
    """About REF_S: in time shares, 1 part each of interpreter and small
    numpy loops, 3-4 parts each of expm and solve_ivp and of random streams."""
    s = 0
    for i in range(10000):
        s += i * i
    x = _V
    for _ in range(200):
        x = _M @ x + np.tanh(x) * 0.1
    for i in range(160):
        scipy.linalg.expm(_M * (i * 0.01))
    scipy.integrate.solve_ivp(_rhs, (0.0, 2.0), _V, rtol=1e-8, atol=1e-10)
    rng = np.random.default_rng(0)
    for _ in range(40):
        rng.poisson(rng.random(500) * 2.0) + rng.standard_normal(500)


class Calibrator:
    """Kernel times in run order; `mark` runs the kernel when EVERY_S of
    other work has gone by and returns the index of the latest sample."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Run the kernel REPEATS times and keep the fastest: the first run
        after other work finds the caches holding that work, and any one
        run can be hit by an interrupt or a burst of another process."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        self.samples.append(min(times))
        return len(self.samples) - 1

    def mark(self) -> int:
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def factor(self, idx: int) -> float:
        """REF_S over the mean kernel time around the work that followed
        sample `idx` (the next sample closes it; take one at the end)."""
        around = self.samples[idx:idx + 2]
        return REF_S * len(around) / sum(around)
