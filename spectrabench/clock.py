"""Operation times scaled to a reference machine speed.

Each vCPU of the reference machine (2 vCPUs of an Intel Xeon on a shared
host) switches between two speeds 1.3-1.5x apart every few seconds (a
fixed Python loop, timed back to back, reads either ~0.76 ms or
~1.15 ms), so a raw time says as much about the moment as about the
code.  The Clock samples a small fixed kernel before and after each timed
call and, from a SIGALRM timer, every 25 ms during it; the call's time is
scaled by the kernel's reference time over its mean sampled time.  The
samples' own time is taken out of the call's.  No thread or process is
started.

The kernel should stress what the timed code stresses: the interpreter
for the Python-bound workloads, a cache-resident matvec for the RK4
simulations (the interpreter's speed tracks BLAS speed only loosely).
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
_A = np.full((256, 256), 0.5)
_X = np.full(256, 0.25)


def _python_kernel():
    s = 0.0
    for i in range(2000):
        s += math.sin(i * 1e-3)


def _blas_kernel():
    for _ in range(20):
        _A @ _X


# kernel, and its time at the reference speed (the fast state of the
# reference machine of README.md)
KERNELS = {"python": (_python_kernel, 0.16e-3),
           "blas": (_blas_kernel, 0.20e-3)}


class Clock:
    """Use as a context manager around the timed phase; call it with a
    function to time one call."""

    def __init__(self, kernel: str = "python"):
        self._kernel, self._ref_s = KERNELS[kernel]
        self._samples = []
        self._spent = 0.0
        self._old = None
        self.scale = 1.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def _sample_unalarmed(self) -> float:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(self._sample())
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def __call__(self, fn):
        """(result or None, exception or None, reference seconds)."""
        self._samples = [self._sample_unalarmed()]
        self._spent = 0.0
        t0 = time.perf_counter()
        try:
            result, exc = fn(), None
        except Exception as ex:   # the caller counts it as a failed call
            result, exc = None, ex
        dt = time.perf_counter() - t0 - self._spent
        self._samples.append(self._sample_unalarmed())
        self.scale = self._ref_s / statistics.fmean(self._samples)
        return result, exc, dt * self.scale
