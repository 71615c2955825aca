"""Reference kernel that measures how fast the machine is running right now.

On a shared host the speed of a core drifts by 20-40 % within seconds,
which swamps any change worth measuring.  Over ten 22 s runs per workload
on a shared 2-vCPU x86-64 VM, raw wall-clock ``items_per_s`` spread by
12-27 % and ``latency_p50_ms`` by 11-31 % (interquartile range over
median), against 3-8 % once corrected as below.  While operations run, a
wall-clock timer signal runs this fixed kernel every ``INTERVAL_S``; each
operation's time is then reported at the reference speed, the speed at
which one kernel pass takes ``REFERENCE_S``:

    time_at_reference = (time_measured - kernel_time_inside) * REFERENCE_S
                        / median kernel pass time around the operation

The kernel does the same kind of work as the operations (4x4 complex
eigendecompositions, Kronecker products, small Python sorts) and uses numpy
only, never singletopt, so a change to the program cannot move it.  It
runs with the garbage collector paused, so a program that leaves more
objects behind does not slow the kernel and divide its own cost out.  A
program that ran background threads would still slow the kernel through
the GIL; singletopt at ``--workers 1`` runs none.  Raw wall-clock values
are printed next to the corrected ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array

import numpy as np

REFERENCE_S = 1.2e-3  # a typical pass on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
INTERVAL_S = 0.25
WINDOW_S = 0.5  # passes this close to an operation describe its speed

_rng = np.random.default_rng(20140107)
_MATRICES = []
for _ in range(20):
    _m = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
    _MATRICES.append(_m + _m.conj().T)


def kernel_pass() -> float:
    """Seconds taken by one pass of the fixed kernel."""
    t = time.perf_counter()
    for m in _MATRICES:
        _, v = np.linalg.eigh(m)
        np.kron(v[:2, :2], v[2:, 2:])
        sorted(range(4), key=lambda k: tuple(np.round(v[:, k].real, 10).tolist()))
    return time.perf_counter() - t


class Sampler:
    """Runs the kernel from a SIGALRM timer while the ``with`` block runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.at = array("d")  # start of each sample
        self.took = array("d")  # time the sample took from the operation it interrupted
        self.passes = array("d")  # its timed kernel pass

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            # The median of three passes skips the first, which mostly
            # refills the caches the operation evicted: the sample should
            # follow the machine's speed, not the program's memory footprint.
            self.passes.append(statistics.median(kernel_pass() for _ in range(3)))
        finally:
            if collecting:
                gc.enable()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference_total(self, start: float, end: float) -> float:
        """Like ``at_reference`` for a stretch that samples interrupted."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        return (end - start - sum(self.took[lo:hi])) * REFERENCE_S / statistics.median(self.passes[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second of [start, end), from the passes near it."""
        near = self.passes[bisect.bisect_left(self.at, start - WINDOW_S):bisect.bisect_right(self.at, end + WINDOW_S)]
        if not near:
            raise RuntimeError("no kernel pass near the operation; is SIGALRM blocked?")
        return REFERENCE_S / statistics.median(near)

    def at_reference(self, start: float, end: float) -> float:
        """Seconds [start, end) would have taken at the reference speed."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        return (end - start - sum(self.took[lo:hi])) * self.factor(start, end)
