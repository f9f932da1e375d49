"""The machine's current speed, read from a fixed reference loop.

On this machine the same code runs up to about twice as slowly at some
times as at others.  The slow spells come and go within milliseconds, and
their share of the time drifts over minutes; CPU time slows with wall time.
A run that falls in a slow stretch is therefore slow as a whole, whatever
statistic it takes over its own repeats.

The benchmark reads the machine's speed with ``reference_loop``: a fixed
piece of work of the three kinds the program does (products through a dense
structure-constant table, modular row operations on numpy arrays, and
table-driven scalar field arithmetic).  It is the benchmark's own code and
does not call ``tamecoh``, so a change to the program does not move it.
A ``Gauge`` runs the loop between the program's operations, for about
``SHARE`` of the program's time, so its samples are spread over the run as
the program's time is.  A program time ``t`` measured while the loop took
``k`` on average is reported as ``t * REF_S / k``: the time the program
would have taken had the machine run at the speed at which the loop takes
``REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the loop's mean time on this machine in an unloaded spell, so that
# reported times read close to an unloaded machine's seconds.  It only sets
# the scale, and is the same for every run and every commit.
REF_S = 0.0014
# Loop time spent per second of program time.
SHARE = 0.1
# Loop time before and after each set-up sample.
SETUP_LOOP_S = 0.3

_rng = np.random.default_rng(20170630)
_TABLE = (_rng.random((60, 60, 60)) < 0.01).astype(np.float64)
_VECS = _rng.integers(0, 2, size=(8, 60)).astype(np.float64)
_MAT = _rng.integers(0, 5, size=(32, 48))
_MUL7 = [[a * b % 7 for b in range(7)] for a in range(7)]


def reference_loop() -> int:
    """Fixed work, about 2 ms: dense products, row operations, table lookups."""
    for i in range(0, len(_VECS), 2):
        np.einsum("i,j,ijk->k", _VECS[i], _VECS[i + 1], _TABLE)
    a = _MAT.copy()
    for r in range(24):
        a[r] = a[r] * 3 % 5
        a[r + 1:] = (a[r + 1:] - a[r + 1:, r:r + 1] * a[r]) % 5
    s = 0
    for i in range(4000):
        s ^= _MUL7[i % 7][(i >> 3) % 7]
    return s


class Gauge:
    """Collects reference-loop times, in step with the program's busy time."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = 0.0

    @staticmethod
    def at_reference(seconds: float, loop_s: float) -> float:
        """A time measured while the loop took ``loop_s``, at the reference speed."""
        return seconds * REF_S / loop_s

    def measure(self, seconds: float) -> float:
        """Run the loop for ``seconds``; return its mean time."""
        self.keep_up(seconds / SHARE)
        return self.take()

    def keep_up(self, busy_s: float) -> None:
        """Run the loop for about ``SHARE * busy_s``; the remainder carries over."""
        self._owed += SHARE * busy_s
        while self._owed > 0:
            start = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - start
            self.samples.append(took)
            self._owed -= took

    def take(self) -> float:
        """Mean loop time since the last call; the samples start afresh."""
        mean = statistics.fmean(self.samples)
        self.samples = []
        return mean
