"""GPU device facade.

:class:`GpuDevice` is the single entry point the rest of the library
uses to "run" kernels: :meth:`GpuDevice.run_batch` times a whole
:class:`~repro.hw.timing.WorkBatch` column of kernels on the device's
configuration in one vectorized call and returns a
:class:`BatchMeasurement` (runtimes, breakdowns, counters).
Measurements are deterministic — the model is analytical — so a device
can be shared freely.

Nothing is memoised here: each plan is timed once per process and its
result kept beside it in :data:`~repro.models.plan.PLAN_CACHE` (the
iteration executor's result memo), and the batches callers hand over
are mostly fresh concatenations that could never hit again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import HardwareConfig
from repro.hw.counters import CounterColumns
from repro.hw.timing import TimingBreakdownBatch, WorkBatch, time_work_batch

__all__ = ["GpuDevice", "BatchMeasurement", "clear_measure_caches"]


@dataclass(frozen=True, eq=False)
class BatchMeasurement:
    """Measurements for a whole :class:`WorkBatch` column of kernels."""

    time_s: np.ndarray
    breakdown: TimingBreakdownBatch
    counters: CounterColumns

    def __len__(self) -> int:
        return int(self.time_s.size)


def clear_measure_caches() -> None:
    """Do nothing: devices keep no measurement memo.

    Kept because benchmark harnesses that measure cold simulation still
    call it next to ``PLAN_CACHE.clear()``.
    """


class GpuDevice:
    """A GPU at one hardware configuration."""

    def __init__(self, config: HardwareConfig):
        self._config = config

    @property
    def config(self) -> HardwareConfig:
        return self._config

    def run_batch(self, work: WorkBatch) -> BatchMeasurement:
        """Execute a whole column of kernels in one vectorized call."""
        return BatchMeasurement(*time_work_batch(work, self._config))

    def __repr__(self) -> str:
        return f"GpuDevice({self._config.describe()})"
