"""Host-speed calibration interleaved with the measured work.

On a shared host the speed of one core drifts by half or more over
seconds to minutes, and that drift is common to all compute. A fixed
kernel that shares no code with xbarprune (a sparse LU on a grid, small
dense products, small numpy ops and a streaming sum beyond the private
caches: the kinds of work the workloads do) runs once every PERIOD_S
seconds from a timer signal, so its runs sample the same moments as the
work. A section's
time is its wall time minus the bursts, rescaled to the reference speed at
which one kernel iteration takes NOMINAL_S:

    normalized = (wall - bursts) * NOMINAL_S / mean(kernel iteration)

The kernel is fixed, so a change to xbarprune is meant to move the first
factor only. It shares the caches and the allocator with the work, though,
so a change to the program's memory behaviour could move the divisor too;
sensitivity.py checks at full size that an injected extra cost comes
through, and README.md gives its results.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

PERIOD_S = 0.1
NOMINAL_S = 0.005      # one kernel iteration at the reference speed


class Kernel:
    """Fixed work whose time tracks the host's momentary speed."""

    def __init__(self):
        k = 24
        lap = sp.diags([-1.0, 2.001, -1.0], [-1, 0, 1], shape=(k, k))
        eye = sp.identity(k)
        self.grid = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsc()
        self.rhs = np.eye(k * k)[:, :k]
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((256, 64))
        self.y = rng.standard_normal((64, 64))
        self.idx = rng.integers(0, k * k, 2048)
        self.stream = np.ones(1_000_000)      # 8 MB, beyond the private caches

    def run(self) -> None:
        splu(self.grid).solve(self.rhs)
        for _ in range(10):
            self.x @ self.y
        acc = np.zeros(self.rhs.shape[0])
        for _ in range(50):
            np.add.at(acc, self.idx, 1.0)
            acc[self.idx[:64]].sum()
        self.stream.sum()


def calibrate(iterations: int) -> float:
    """Mean time of one kernel iteration, measured now."""
    kernel = Kernel()
    times = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        kernel.run()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


@dataclass
class Section:
    wall_s: float = 0.0
    burst_s: float = 0.0
    kernel_s: float = 0.0    # mean kernel iteration during the section

    @property
    def normalized_s(self) -> float:
        return (self.wall_s - self.burst_s) * NOMINAL_S / self.kernel_s


@contextmanager
def plain_section():
    """A Section timed by wall clock alone, for traced runs."""
    out = Section(kernel_s=NOMINAL_S)
    start = time.perf_counter()
    try:
        yield out
    finally:
        out.wall_s = time.perf_counter() - start


class Pacer:
    def __init__(self):
        self.kernel = Kernel()
        self._samples: list[float] = []
        self._burst_s = 0.0
        self._armed = False     # the timer may be re-armed: a section is open

    def _burst(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernel.run()
        elapsed = time.perf_counter() - start
        self._samples.append(elapsed)
        self._burst_s += elapsed
        # A signal caught just before the section closes may run this
        # handler after the timer was disarmed; it must not arm it again.
        if signum is not None and self._armed:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    @contextmanager
    def section(self):
        """Time the body with calibration bursts interleaved; the yielded
        Section is filled in on exit."""
        out = Section()
        self._samples = []
        self._burst()                   # outside the section: a sample at its start
        self._burst_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._burst)
        start = time.perf_counter()
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
            yield out
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            out.wall_s = time.perf_counter() - start
            out.burst_s = self._burst_s
        self._burst()                   # outside the section: a sample at its end
        out.kernel_s = statistics.fmean(self._samples)
