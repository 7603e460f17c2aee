"""Performance-counter model.

The paper's profiling substrate (Radeon Compute Profiler) reports
per-kernel hardware counters; Fig 4 plots three of them — VALU
instructions, load (fetch) size, and memory write stalls — averaged
across an iteration's kernels.  :class:`CounterSet` is our equivalent
record.  Counters accumulate across kernels with ``+`` and are averaged
per-kernel or per-second by the profiling layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["COUNTER_FIELDS", "CounterSet", "CounterColumns"]


@dataclass(frozen=True)
class CounterSet:
    """Counters for one kernel invocation (or an accumulation of them).

    ``valu_insts``
        Vector-ALU instructions issued (wave granularity).
    ``dram_read_bytes`` / ``dram_write_bytes``
        Traffic that reached device memory ("load data size" /
        "mem write size" in Fig 4).
    ``l2_read_bytes``
        Read traffic that reached L2 (for hit-rate style analyses).
    ``write_stall_cycles``
        Cycles stalled on the memory write path ("mem write stalls").
    ``busy_cycles``
        Cycles the kernel occupied the device; the denominator for
        stall-rate style statistics.
    """

    valu_insts: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    l2_read_bytes: float = 0.0
    write_stall_cycles: float = 0.0
    busy_cycles: float = 0.0

    def __add__(self, other: "CounterSet") -> "CounterSet":
        if not isinstance(other, CounterSet):
            return NotImplemented
        return CounterSet(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(CounterSet)
            }
        )

    def scaled(self, factor: float) -> "CounterSet":
        """Return all counters multiplied by ``factor``."""
        return CounterSet(
            **{f.name: getattr(self, f.name) * factor for f in fields(CounterSet)}
        )

    def as_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(CounterSet)}

    @property
    def write_stall_fraction(self) -> float:
        """Write-stall cycles as a fraction of busy cycles."""
        if self.busy_cycles <= 0.0:
            return 0.0
        return self.write_stall_cycles / self.busy_cycles

    @staticmethod
    def zero() -> "CounterSet":
        return CounterSet()


#: :class:`CounterSet` field names, in declaration (constructor) order.
COUNTER_FIELDS = tuple(f.name for f in fields(CounterSet))


@dataclass(frozen=True, eq=False)
class CounterColumns:
    """Columns of :class:`CounterSet`, one row per kernel invocation.

    The vectorized timing engine emits these instead of materialising a
    :class:`CounterSet` per kernel; the executor folds them per plan.
    """

    valu_insts: np.ndarray
    dram_read_bytes: np.ndarray
    dram_write_bytes: np.ndarray
    l2_read_bytes: np.ndarray
    write_stall_cycles: np.ndarray
    busy_cycles: np.ndarray

    def __len__(self) -> int:
        return int(self.valu_insts.size)

    def row(self, i: int) -> CounterSet:
        """Materialise one row as a scalar :class:`CounterSet`."""
        return CounterSet(
            **{name: float(getattr(self, name)[i]) for name in COUNTER_FIELDS}
        )
