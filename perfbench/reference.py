"""A fixed reference loop that gauges how fast the machine is right now.

On a shared box the speed available to one process drifts by tens of percent,
and by up to a factor of three, in phases that last a fraction of a second:
shorter than one unit of benchmark work. So the reference loop is run in
short slices: a few right before and right after each unit (the bracket),
and one every ``INTERVAL_S`` while the unit runs, from a timer signal. The
mean slice time over the unit measures the machine's speed while the unit
ran. The unit's own time is its wall time minus the time the slices took,
divided by that mean and multiplied by the slice's nominal duration, so
that normalised times still read in seconds.

A slice is independent of the program, and each workload has the kind
of slice whose slowdown tracked its own most closely on a 2-core shared
box (see README.md): small numpy matmuls and ``tanh`` with pure-Python
arithmetic for training at batch 2, column-pair rotations of a small matrix
for the SVD-bound training at batch 64, float formatting and parsing for
text I/O.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.010
BRACKET = 3

_A = ((np.arange(16 * 16).reshape(16, 16) % 7) - 3.0) / 8.0
_X = ((np.arange(16 * 8).reshape(16, 8) % 5) - 2.0) / 4.0
_V = [i / 7.0 for i in range(48)]
_R = ((np.arange(40 * 8).reshape(40, 8) % 7) - 3.0) / 3.0
_ROWS = [[(i * 7 + j) / 13.0 for j in range(32)] for i in range(6)]


def mixed_work() -> float:
    """Small matmuls and tanh, integer arithmetic, a little float text."""
    x = _X
    acc = 0
    for i in range(40):
        x = np.tanh(_A @ x)
        acc = (acc * 31 + i + int(x[0, 0] > 0)) % 1000003
    for i in range(2):
        line = " ".join(repr(v + i) for v in _V)
        acc += len([float(f) for f in line.split()])
    return float(x.sum()) + acc


def rotate_work() -> float:
    """One sweep of 2x2 rotations over the column pairs of a 40x8 matrix."""
    a = _R.copy()
    for p in range(7):
        for q in range(p + 1, 8):
            cols = a[:, (p, q)]
            gram = cols.T @ cols
            alpha, beta = float(gram[0, 0]), float(gram[1, 1])
            gamma = float(gram[0, 1]) + 1e-3
            zeta = (beta - alpha) / (2.0 * gamma)
            t = 1.0 / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            a[:, (p, q)] = cols @ np.array(((c, t * c), (-t * c, c)))
    return float(a[0, 0])


def text_work() -> float:
    """Format rows of floats as text and parse them back."""
    count = 0
    for row in _ROWS:
        values = [float(f) for f in " ".join(repr(float(x)) for x in row).split()]
        count += len(values)
    return count + float(np.array(values).sum())


# Slice kinds, each with its nominal duration: the median slice time in one
# set of ten benchmark runs on the 2-core Xeon box the README's figures come
# from (Python 3.11, numpy 2.4, BLAS pinned to one thread). A nominal
# duration rescales every normalised figure of its workloads; changing one
# changes them.
KINDS = {
    "mixed": (mixed_work, 0.00020),
    "rotate": (rotate_work, 0.00035),
    "text": (text_work, 0.00035),
}


class Gauge:
    """Times callables against reference slices taken around and during them.

    ``on_slice(seconds)`` is called after each slice taken during a unit, so
    that a tracer can keep the slice out of the span it interrupted.
    """

    def __init__(self, kind: str):
        self.work, self.nominal_s = KINDS[kind]
        self.slices: list[float] = []
        self.spent = 0.0
        self.on_slice = None

    def _slice(self) -> float:
        start = time.perf_counter()
        self.work()
        took = time.perf_counter() - start
        self.slices.append(took)
        return took

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._slice()
        spent = time.perf_counter() - start
        self.spent += spent
        if self.on_slice is not None:
            self.on_slice(spent)

    def start(self) -> None:
        """Take the bracket before, then a slice every INTERVAL_S until stop()."""
        self.slices = []
        for _ in range(BRACKET):
            self._slice()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop the timer, take the bracket after; returns the factor that
        turns seconds measured since start() into normalised seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET):
            self._slice()
        return self.nominal_s / statistics.fmean(self.slices)

    def time(self, fn):
        """Run ``fn()``; returns (result, net seconds, normalised seconds).

        Net seconds are the wall time without the slices taken during it.
        """
        self.start()
        try:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        finally:
            scale = self.stop()
        net = wall - self.spent
        return result, net, net * scale
