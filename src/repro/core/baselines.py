"""Baseline representative-iteration selectors (paper §VI-C).

The paper compares SeqPoint against four alternatives:

* ``frequent`` — the single most frequently occurring SL (what a random
  draw would most likely hit);
* ``median`` — the iteration with the median SL;
* ``worst`` — the single iteration with the worst-case projection
  error, bounding arbitrary single-iteration selection;
* ``prior`` — the sampling methodology of Zhu et al. [1]: profile a
  window of contiguous iterations after a fixed warmup, and scale the
  window's mean iteration time by the epoch's iteration count.

All selectors operate on the trace's columnar frame (and accept either
a :class:`TrainingTrace` or a :class:`TraceFrame` directly), so the
per-iteration work is vectorized and records materialise only for the
handful of selected points.  All return
:class:`~repro.core.selection.Selection`, so every projection utility
applies uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import SelectedPoint, Selection
from repro.core.sl_stats import SlStatistics
from repro.errors import SelectionError
from repro.train.frame import TraceFrame, as_frame
from repro.train.trace import TrainingTrace

__all__ = [
    "FrequentSelector",
    "MedianSelector",
    "WorstSelector",
    "PriorSelector",
]


def _single_point(
    method: str, statistics: SlStatistics, seq_len: int
) -> Selection:
    stat = statistics.for_seq_len(seq_len)
    point = SelectedPoint(
        record=stat.representative,
        weight=float(statistics.total_iterations),
    )
    return Selection(method=method, points=(point,))


class FrequentSelector:
    """The most frequently occurring sequence length."""

    METHOD = "frequent"

    def select(self, trace: TrainingTrace | TraceFrame) -> Selection:
        statistics = SlStatistics.from_trace(trace)
        best = statistics.seq_lens_column[np.argmax(statistics.iterations_column)]
        return _single_point(self.METHOD, statistics, int(best))


class MedianSelector:
    """The iteration with the median sequence length."""

    METHOD = "median"

    def select(self, trace: TrainingTrace | TraceFrame) -> Selection:
        frame = as_frame(trace)
        statistics = SlStatistics.from_trace(frame)
        ordered = np.sort(frame.seq_len)
        median_sl = int(ordered[ordered.size // 2])
        return _single_point(self.METHOD, statistics, median_sl)


class WorstSelector:
    """The single SL with the worst-case epoch-time projection error.

    A bound on how badly an arbitrarily chosen iteration can represent
    the run (the paper's ``worst`` bars).
    """

    METHOD = "worst"

    def select(self, trace: TrainingTrace | TraceFrame) -> Selection:
        statistics = SlStatistics.from_trace(trace)
        actual = statistics.total_time_s
        total_iterations = statistics.total_iterations

        # Projection error of re-running each SL's representative
        # iteration and scaling by the epoch's iteration count.
        representative_times = statistics.representatives.time_s
        errors = np.abs(representative_times * total_iterations - actual)
        worst = statistics.seq_lens_column[np.argmax(errors)]
        return _single_point(self.METHOD, statistics, int(worst))


class PriorSelector:
    """Contiguous-window sampling after warmup (Zhu et al. [1]).

    Every window iteration is profiled (the method is SL-oblivious), so
    the selection carries ``window`` points each weighted by
    ``epoch_iterations / window``.
    """

    METHOD = "prior"

    def __init__(self, warmup: int = 200, window: int = 50):
        # Eager type checks: spec/CLI kwargs must fail at construction
        # with a clean error, not as a TypeError mid-selection.
        for name, value in (("warmup", warmup), ("window", window)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SelectionError(f"{name} must be an int, got {value!r}")
        if warmup < 0:
            raise SelectionError("warmup cannot be negative")
        if window <= 0:
            raise SelectionError("window must be positive")
        self.warmup = warmup
        self.window = window

    def select(self, trace: TrainingTrace | TraceFrame) -> Selection:
        frame = as_frame(trace)
        total = len(frame)
        if total == 0:
            raise SelectionError("prior: empty trace")
        start = min(self.warmup, max(0, total - self.window))
        stop = min(start + self.window, total)
        if stop <= start:
            raise SelectionError(
                f"prior: trace has {total} iterations, none left "
                f"after warmup {self.warmup}"
            )
        weight = total / (stop - start)
        points = tuple(
            SelectedPoint(record=frame.record(index), weight=weight)
            for index in range(start, stop)
        )
        return Selection(
            method=self.METHOD, points=points, profiled_iterations=stop - start
        )
