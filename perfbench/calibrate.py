"""Host-speed calibration: a fixed kernel timed all through a run.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within a minute, because other machines load the same cores.  A
raw timing then measures the neighbours as much as hyperbetti.  So a run
also times a kernel, a fixed piece of pure-Python exact elimination (the
kind of work that dominates hyperbetti), every EVERY_S: a SIGALRM handler
runs it, also in the middle of a long operation, and the time the handler
takes is left out of the interval it interrupted.  The kernel is owned by
the benchmark and never changes, so its time measures only the host.

An interval's reference time is its own time (handler time left out)
scaled by REFERENCE_S / median(kernel times within WINDOW_S of the
interval): the time it would have taken with the kernel running at
REFERENCE_S, about the kernel's time on a lightly loaded 2-core Xeon VM
under Python 3.11.  A change to hyperbetti moves the reference times; a
slower host moves the kernel times and the interval times together, and
cancels.
"""

from __future__ import annotations

import gc
import random
import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0090
EVERY_S = 0.05
WINDOW_S = 0.25
PRIME = 32003


def _boundary_like(seed, nr, nc):
    """A sparse 0/+1/-1 matrix, the shape of entries a reduced boundary has."""
    rng = random.Random(seed)
    return [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(nc)] for _ in range(nr)]


MATRIX = _boundary_like(20230, 40, 60)


def _bareiss_rank(rows):
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    rank, prev = 0, 1
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank]
        for r in range(rank + 1, nr):
            row, f = m[r], m[r][c]
            for cc in range(c + 1, nc):
                row[cc] = (row[cc] * lead[c] - f * lead[cc]) // prev
            row[c] = 0
        prev = lead[c]
        rank += 1
    return rank


def _modular_rank(rows, p):
    m = [[x % p for x in r] for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank]
        inv = pow(lead[c], p - 2, p)
        for r in range(rank + 1, nr):
            row = m[r]
            f = row[c] * inv % p
            if f:
                for cc in range(c, nc):
                    row[cc] = (row[cc] - f * lead[cc]) % p
        rank += 1
    return rank


KERNEL_RANKS = (_bareiss_rank(MATRIX), _modular_rank(MATRIX, PRIME))


def kernel_seconds():
    """Seconds one run of the kernel takes, with the garbage collector held off.

    The collector is off so that garbage the program left behind is not
    collected, and charged, inside the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        ranks = (_bareiss_rank(MATRIX), _modular_rank(MATRIX, PRIME))
        took = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if ranks != KERNEL_RANKS:
        raise RuntimeError(f"calibration kernel gave ranks {ranks}, expected {KERNEL_RANKS}")
    return took


class Speedometer:
    """Kernel timings taken every EVERY_S between start() and stop()."""

    def __init__(self):
        self.at = []
        self.took = []
        self.paused = 0.0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_):
        t0 = perf_counter()
        took = kernel_seconds()
        self.at.append(t0 + took / 2)
        self.took.append(took)
        # One-shot and re-armed here, so the handler never interrupts itself.
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        self.paused += perf_counter() - t0

    def clock(self):
        """(now, seconds spent in the handler so far), read without a tick between."""
        while True:
            paused = self.paused
            now = perf_counter()
            if paused == self.paused:
                return now, paused

    def reference(self, begin, end):
        """(own seconds, reference seconds) of the interval between two clock() reads."""
        (t0, p0), (t1, p1) = begin, end
        own = (t1 - t0) - (p1 - p0)
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(max(0, lo - 1), len(self.at) - 1)
            hi = lo + 1
        return own, own * REFERENCE_S / median(self.took[lo:hi])

    def kernel_median(self):
        return median(self.took)
