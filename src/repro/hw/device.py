"""GPU device facade.

:class:`GpuDevice` is the single entry point the rest of the library
uses to "run" kernels: it takes a :class:`~repro.hw.timing.WorkProfile`
and returns a :class:`KernelMeasurement` (runtime, breakdown, counters)
for its configuration.  Measurements are deterministic — the model is
analytical — so a device can be shared freely.

Measurements are memoised **per hardware configuration, not per device
instance**: sweeps construct many :class:`GpuDevice` objects with equal
(frozen, hashable) :class:`HardwareConfig` values, and re-timing every
kernel on each of them is pure waste.  All devices at one config share
one measurement store; devices at different configs never mix (the
config value is the key).  :func:`measure_cache_info` exposes the
shared store's hit/miss counters so tests can assert the sharing, and
:func:`clear_measure_caches` resets every store (used by benchmarks to
measure genuinely cold simulation).

:meth:`GpuDevice.run_batch` is the vectorized entry point: it times a
whole :class:`~repro.hw.timing.WorkBatch` column in one call.  Batches
are not memoised here: callers time each plan once and keep the result
(the iteration executor memoises per shape), and the batches they hand
over are mostly fresh concatenations that could never hit again.

Stores live for the process (one per distinct config value, like the
plan cache they sit under); :func:`clear_measure_caches` empties them
for long-running processes that sweep many one-off configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from threading import Lock

import numpy as np

from repro.hw.config import HardwareConfig
from repro.hw.counters import CounterColumns, CounterSet
from repro.hw.timing import (
    TimingBreakdown,
    TimingBreakdownBatch,
    WorkBatch,
    WorkProfile,
    time_work,
    time_work_batch,
)

__all__ = [
    "GpuDevice",
    "KernelMeasurement",
    "BatchMeasurement",
    "measure_cache_info",
    "clear_measure_caches",
]


@dataclass(frozen=True)
class KernelMeasurement:
    """What the profiler observes for one kernel invocation."""

    time_s: float
    breakdown: TimingBreakdown
    counters: CounterSet


@dataclass(frozen=True, eq=False)
class BatchMeasurement:
    """Measurements for a whole :class:`WorkBatch` column of kernels."""

    time_s: np.ndarray
    breakdown: TimingBreakdownBatch
    counters: CounterColumns

    def __len__(self) -> int:
        return int(self.time_s.size)

    def row(self, i: int) -> KernelMeasurement:
        """Materialise one row as a scalar :class:`KernelMeasurement`."""
        return KernelMeasurement(
            time_s=float(self.time_s[i]),
            breakdown=self.breakdown.row(i),
            counters=self.counters.row(i),
        )


class _ConfigMeasurements:
    """The shared measurement store for one hardware configuration."""

    def __init__(self, config: HardwareConfig):
        self.measure = lru_cache(maxsize=65536)(
            lambda work: KernelMeasurement(*time_work(work, config))
        )

    def flush(self) -> None:
        """Drop all measurements (counters included) in place.

        In place matters: live devices keep their store reference, so
        clearing must empty the shared store rather than replace it.
        """
        self.measure.cache_clear()


_STORES: dict[HardwareConfig, _ConfigMeasurements] = {}
_STORES_LOCK = Lock()


def _store_for(config: HardwareConfig) -> _ConfigMeasurements:
    with _STORES_LOCK:
        store = _STORES.get(config)
        if store is None:
            store = _STORES[config] = _ConfigMeasurements(config)
        return store


def measure_cache_info(config: HardwareConfig):
    """Hit/miss counters of ``config``'s shared scalar measurement memo."""
    return _store_for(config).measure.cache_info()


def clear_measure_caches() -> None:
    """Empty every shared measurement store (for cold benchmarking).

    Stores are flushed *in place*, not discarded: live devices keep a
    direct store reference, so replacing the registry entries would
    orphan their (still warm) stores and desynchronise
    :func:`measure_cache_info` from what devices actually use.
    """
    with _STORES_LOCK:
        for store in _STORES.values():
            store.flush()


class GpuDevice:
    """A GPU at one hardware configuration.

    Work profiles are hashable, and models re-issue identical kernels
    thousands of times per epoch (every LSTM step launches the same
    recurrent GEMM), so measurements are memoised — in the store shared
    by every device whose config equals this one.
    """

    def __init__(self, config: HardwareConfig):
        self._config = config
        self._store = _store_for(config)

    @property
    def config(self) -> HardwareConfig:
        return self._config

    def run(self, work: WorkProfile) -> KernelMeasurement:
        """Execute ``work`` and return its measurement."""
        return self._store.measure(work)

    def run_batch(self, work: WorkBatch) -> BatchMeasurement:
        """Execute a whole column of kernels in one vectorized call."""
        return BatchMeasurement(*time_work_batch(work, self._config))

    def __repr__(self) -> str:
        return f"GpuDevice({self._config.describe()})"
