"""A clock that reads in reference seconds.

On a shared host the core a process runs on changes speed by tens of
percent within seconds, and stays slow or fast for seconds to minutes, as
other tenants come and go; the two cores of a 2-vCPU machine do so
independently. Wall time over a whole run then moves with the machine, not
with the program. This clock corrects for it: while it measures, a timer
signal interrupts the work every ``INTERVAL_S`` and runs a fixed
calibration kernel (numpy code, none of it flowr's). Each stretch of work
between two kernel runs is scaled by the kernel's reference duration over
the mean duration of the two kernel runs around it, so it reads as the time
the work would take on a core that runs the kernel in its reference
duration.

Time spent in a kernel is not work: ``work_ns`` is a monotonic clock that
stops while a kernel runs, for latencies and trace spans.
"""

from __future__ import annotations

import signal
import time
from array import array
from typing import Callable, NamedTuple

import numpy as np

INTERVAL_S = 0.02

_XS = [np.full(64, 0.01 * i) for i in range(16)]
_M = np.random.default_rng(0).standard_normal((1000, 64))
_V = np.ones(64)


def small_calls():
    """Small numpy calls on 64-vectors: per-call overhead, as in flowr's steps."""
    for x in _XS:
        for _ in range(4):
            np.exp(-(x * x).sum()) + np.log1p(x).max()


def array_ops():
    """Whole-array numpy on 1000 x 64: memory traffic, as in reading inputs."""
    for _ in range(3):
        ((_M - _V) ** 2).sum(axis=1).argmin()


class Kernel(NamedTuple):
    run: Callable[[], object]
    # Near the kernel's median duration on the 2-vCPU Xeon VM the baseline
    # was taken on, so that reference seconds read about like wall seconds
    # there. It only sets their scale, and must never change.
    ref_s: float


# Of the kernels tried (pure-Python arithmetic, small numpy calls, numpy on
# a 1000 x 64 array, a small matrix product, building Python objects,
# copying 16 MB, faulting in fresh pages, reading a cached file, and sums of
# these), small numpy calls tracked the timed steps of every workload best,
# and whole-array numpy tracked set-up (reading and converting the inputs).
STEPS = Kernel(small_calls, 0.45e-3)
SETUP = Kernel(array_ops, 0.80e-3)


class SpeedClock:
    """Measures calls in wall and in reference seconds."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.kernel_ns = 0  # total time spent in kernels
        self.kernel_s = {}  # kernel function name: every duration
        self._kernel = None
        self._in_kernel = False

    def work_ns(self):
        """Monotonic nanoseconds that do not advance while a kernel runs."""
        return time.perf_counter_ns() - self.kernel_ns

    def _run_kernel(self):
        self._in_kernel = True
        t0 = time.perf_counter_ns()
        self._kernel.run()
        took = time.perf_counter_ns() - t0
        self.kernel_ns += took
        self.kernel_s.setdefault(self._kernel.run.__name__, array("d")).append(took / 1e9)
        self._in_kernel = False
        return took / 1e9

    def _close_segment(self):
        work = (self.work_ns() - self._segment_start) / 1e9
        after = self._run_kernel()
        self._wall += work
        self._ref += work * self._kernel.ref_s / (0.5 * (self._before + after))
        self._before = after
        self._segment_start = self.work_ns()

    def _tick(self, signum, frame):
        if self._kernel is not None and not self._in_kernel:
            self._close_segment()

    def measure(self, fn, kernel=STEPS):
        """(result, wall seconds, reference seconds) of one call of fn."""
        self._kernel = kernel
        self._wall = self._ref = 0.0
        self._before = self._run_kernel()
        self._segment_start = self.work_ns()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._close_segment()
            self._kernel = None
        return result, self._wall, self._ref


def warm_up(n=20):
    """Run every kernel untimed, so that no timed run of one is its first."""
    for kernel in (STEPS, SETUP):
        for _ in range(n):
            kernel.run()
