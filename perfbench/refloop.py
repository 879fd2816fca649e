"""Reference loop that every timed operation is divided by.

The benchmark's host shares its cores: over tens of seconds its speed drifts
by 20-50%, in phases that can last a whole run, so seconds measured in one
run do not agree with seconds measured in the next. A fixed reference loop
run right before and right after an operation slows down with it. The loop is
the same kind of work as the package's per-row kernels, a Python loop of
small numpy operations, and belongs to the benchmark, so a change to the
program moves the ratio and a change in the host's speed moves neither.
"""

from __future__ import annotations

import time

import numpy as np

_ROWS = np.random.default_rng(20211214).uniform(0.0, 10.0, size=(2000, 16))
_CENTRES = _ROWS[:10].copy()
STEPS = 8000


def reference_loop() -> float:
    """Nearest-centre search over the fixed rows; about 40 ms on a 2-vCPU VM."""
    total = 0.0
    for i in range(STEPS):
        d = _ROWS[i % _ROWS.shape[0]] - _CENTRES
        total += float((d * d).sum(axis=1).min())
    return total


class RefClock:
    """Times operations in units of the reference loop run around them."""

    def __init__(self):
        self._before = self._reference()

    @staticmethod
    def _reference() -> float:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started

    def time(self, op):
        """Run op(); returns (its result, wall seconds, wall / mean reference time around it)."""
        started = time.perf_counter()
        result = op()
        wall = time.perf_counter() - started
        after = self._reference()
        ratio = wall / (0.5 * (self._before + after))
        self._before = after
        return result, wall, ratio
