"""Interpreter-speed calibration, so timings compare on a host whose speed drifts.

On a shared host the CPU speed available to one process drifts by tens of
percent over seconds to minutes, far more than the changes the benchmark
must resolve. ``calibrate`` times a fixed mix of pure-Python work (dict, int
and str operations) and small numpy work (a matrix-vector product, a
partial sort, an elementwise tanh) that does not touch exsim. Sampled
between requests, its cost tracks the drift. Measured over 200 s of
repeated queries on a 2-core host whose speed varied by 20%, the ratio of
query cost to the cost of the samples around it varied by 2% between 7 s
windows, and grew in proportion to it (log-log slope 1.0). Numpy-heavy
training tracks it less closely (slope 0.7, 4% variation), so set-up times
are corrected less well than query times.

A timing is reported at the reference speed: the measured time multiplied by
``REFERENCE_S`` over the cost of the calibration samples around it. The
raw times are printed beside the reference-speed ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import Optional

import numpy as np

CAL_ITERATIONS = 4000
CAL_PRODUCTS = 20
# The cost of one ``calibrate`` call at the reference speed (a typical value
# on the 2-core x86-64 host the benchmark was written on).
REFERENCE_S = 0.0013
SAMPLE_EVERY_S = 0.1


def calibrate(matrix: np.ndarray, vector: np.ndarray) -> float:
    """Seconds taken by the fixed mix of Python and numpy work; the two
    halves take about the same time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        digits = 0
        for i in range(CAL_ITERATIONS):
            k = i % 97
            counts[k] = counts.get(k, 0) + i
            digits += len(str(i))
        for _ in range(CAL_PRODUCTS):
            scores = matrix @ vector
            np.argpartition(-scores, 100)
            np.tanh(matrix[:100] * vector).sum(axis=1)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Calibration samples taken over a run, with their start times. Each
    sample is the median cost of ``repeats`` ``calibrate`` calls."""

    def __init__(self, repeats: int):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(1000, 32))
        self._vector = rng.normal(size=32)
        self._repeats = repeats
        calibrate(self._matrix, self._vector)  # the first call warms caches up
        self.at: list[float] = []
        self.cost: list[float] = []
        self.spent: list[float] = []  # wall time the sample itself took

    def sample(self) -> None:
        start = time.perf_counter()
        self.cost.append(statistics.median(calibrate(self._matrix, self._vector)
                                           for _ in range(self._repeats)))
        self.at.append(start)
        self.spent.append(time.perf_counter() - start)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S

    def factor(self, at: Optional[float] = None) -> float:
        """Reference over measured speed: the mean of the samples just before
        and after time ``at``, or the median of all samples when ``at`` is
        None."""
        if at is None:
            return REFERENCE_S / statistics.median(self.cost)
        i = bisect.bisect_left(self.at, at)
        return REFERENCE_S / statistics.fmean(self.cost[max(0, i - 1):i + 1])

    def between(self) -> tuple[float, float]:
        """Raw and reference-speed seconds spent between consecutive samples,
        each gap scaled by the two samples around it."""
        raw = ref = 0.0
        for i in range(len(self.at) - 1):
            gap = self.at[i + 1] - self.at[i] - self.spent[i]
            raw += gap
            ref += gap * REFERENCE_S * 2 / (self.cost[i] + self.cost[i + 1])
        return raw, ref
