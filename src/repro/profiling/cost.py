"""Profiling-time accounting (paper §VI-F).

The paper's final claim: profiling the SeqPoints instead of a full
epoch cuts profiling time by 72x/40x (DS2/GNMT), and because each
SeqPoint is an independent iteration they can run on separate machines,
stretching the reduction to 345x/214x.  This module computes those
ratios from a trace and a selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.selection import Selection
from repro.errors import ProjectionError
from repro.train.trace import TrainingTrace
from repro.util.stats import sequential_sum

__all__ = ["ProfilingCostModel", "ProfilingSpeedups"]


@dataclass(frozen=True)
class ProfilingSpeedups:
    """Profiling-time reductions of a selection vs. a full epoch."""

    full_epoch_s: float
    selection_serial_s: float
    selection_parallel_s: float

    @property
    def serial_speedup(self) -> float:
        return self.full_epoch_s / self.selection_serial_s

    @property
    def parallel_speedup(self) -> float:
        return self.full_epoch_s / self.selection_parallel_s


@dataclass(frozen=True)
class ProfilingCostModel:
    """Converts iteration runtimes into profiling wall time.

    ``overhead_multiplier`` is the profiler's slowdown; ``setup_s`` is
    the per-process fixed cost (profiler attach, first-kernel replay),
    paid once per machine.
    """

    overhead_multiplier: float = 8.0
    setup_s: float = 5.0

    def __post_init__(self) -> None:
        if self.overhead_multiplier < 1.0:
            raise ProjectionError("profiling cannot be faster than running")
        if self.setup_s < 0.0:
            raise ProjectionError("setup time cannot be negative")

    def epoch_profiling_s(self, trace: TrainingTrace) -> float:
        """Profiling a whole epoch, serially on one machine."""
        return self.setup_s + trace.total_time_s * self.overhead_multiplier

    def selection_profiling_s(self, selection: Selection) -> float:
        """Profiling just the selected iterations, serially."""
        iteration_time = sequential_sum(
            point.record.time_s
            for point in selection.points
        )
        return self.setup_s + iteration_time * self.overhead_multiplier

    def selection_parallel_s(self, selection: Selection) -> float:
        """Profiling the selected iterations, one machine each.

        Wall time is the slowest single iteration plus one setup.
        """
        slowest = max(point.record.time_s for point in selection.points)
        return self.setup_s + slowest * self.overhead_multiplier

    def speedups(
        self, trace: TrainingTrace, selection: Selection
    ) -> ProfilingSpeedups:
        return ProfilingSpeedups(
            full_epoch_s=self.epoch_profiling_s(trace),
            selection_serial_s=self.selection_profiling_s(selection),
            selection_parallel_s=self.selection_parallel_s(selection),
        )
