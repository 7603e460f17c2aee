"""Capacity-based cache hit-rate model.

Kernels do not simulate addresses; instead each kernel describes its
memory behaviour with a :class:`TrafficProfile`: how many bytes it reads
and writes, what fraction of those reads are *re*-reads at workgroup
scope (candidate L1 hits) and at device scope (candidate L2 hits), and
the working-set sizes those re-reads sweep.  The cache model then turns
capacity into hit rates: a reuse pattern whose working set fits in the
cache is fully captured, and capture degrades proportionally once the
working set exceeds capacity (the standard LRU-streaming approximation).

Disabling a cache (size zero, paper configs #4 and #5) drops its hit
rate to zero, pushing the traffic down one level — which is exactly the
knob Figs 13-16 of the paper exercise.

Traffic is resolved for whole columns of kernels at once
(:func:`resolve_traffic_batch`, called by
:func:`~repro.hw.timing.time_work_batch`).  ``tests/reference.py``
keeps the one-kernel scalar form as the oracle it is checked against,
bit for bit (tests/test_hw_batch.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig

__all__ = [
    "TrafficProfile",
    "MemoryTrafficBatch",
    "resolve_traffic_batch",
    "capacity_factor",
    "capacity_factor_batch",
]


@dataclass(frozen=True)
class TrafficProfile:
    """Memory behaviour of one kernel invocation.

    ``read_bytes``/``write_bytes`` are totals as issued by the CUs after
    coalescing.  ``l1_reuse_fraction`` is the fraction of reads that
    could hit in an infinite L1 (re-reads within one workgroup's tile);
    ``l2_reuse_fraction`` is the fraction of L1 *misses* that could hit
    in an infinite L2 (sharing across workgroups).  The working sets say
    how much capacity each reuse pattern needs to be captured.
    """

    read_bytes: float
    write_bytes: float
    l1_reuse_fraction: float = 0.0
    l1_working_set: float = 0.0
    l2_reuse_fraction: float = 0.0
    l2_working_set: float = 0.0

    def __post_init__(self) -> None:
        # Direct checks, no getattr loop: this constructor runs once per
        # unique kernel on the lowering hot path.
        if self.read_bytes < 0 or self.write_bytes < 0:
            raise ConfigurationError("traffic byte counts cannot be negative")
        if not 0.0 <= self.l1_reuse_fraction <= 1.0:
            raise ConfigurationError(
                f"l1_reuse_fraction must lie in [0, 1], got {self.l1_reuse_fraction}"
            )
        if not 0.0 <= self.l2_reuse_fraction <= 1.0:
            raise ConfigurationError(
                f"l2_reuse_fraction must lie in [0, 1], got {self.l2_reuse_fraction}"
            )
        if self.l1_working_set < 0 or self.l2_working_set < 0:
            raise ConfigurationError("working sets cannot be negative")

    def scaled(self, factor: float) -> "TrafficProfile":
        """Return a copy with byte totals scaled (working sets unchanged)."""
        if factor < 0:
            raise ConfigurationError("traffic scale factor cannot be negative")
        return TrafficProfile(
            read_bytes=self.read_bytes * factor,
            write_bytes=self.write_bytes * factor,
            l1_reuse_fraction=self.l1_reuse_fraction,
            l1_working_set=self.l1_working_set,
            l2_reuse_fraction=self.l2_reuse_fraction,
            l2_working_set=self.l2_working_set,
        )


def capacity_factor(working_set: float, capacity: float) -> float:
    """Fraction of a reuse pattern a cache of ``capacity`` bytes captures.

    1.0 when the working set fits; decays as ``capacity / working_set``
    once it does not (LRU over a streaming re-reference pattern retains
    roughly the resident fraction).  A zero-size cache captures nothing.
    """
    if capacity <= 0.0:
        return 0.0
    if working_set <= 0.0:
        return 1.0
    return min(1.0, capacity / working_set)


@dataclass(frozen=True, eq=False)
class MemoryTrafficBatch:
    """Traffic resolved against a concrete cache hierarchy, one row per
    kernel."""

    l1_read_bytes: np.ndarray
    l2_read_bytes: np.ndarray
    dram_read_bytes: np.ndarray
    dram_write_bytes: np.ndarray
    l1_hit_rate: np.ndarray
    l2_hit_rate: np.ndarray

    @property
    def dram_bytes(self) -> np.ndarray:
        """Total DRAM traffic (reads plus writes), per row."""
        return self.dram_read_bytes + self.dram_write_bytes


def capacity_factor_batch(working_set: np.ndarray, capacity: float) -> np.ndarray:
    """Column form of :func:`capacity_factor` (capacity is one cache)."""
    if capacity <= 0.0:
        return np.zeros_like(working_set, dtype=np.float64)
    # Guard the division; rows with an empty working set are replaced.
    safe = np.where(working_set > 0.0, working_set, 1.0)
    return np.where(
        working_set <= 0.0, 1.0, np.minimum(1.0, capacity / safe)
    )


def resolve_traffic_batch(
    read_bytes: np.ndarray,
    write_bytes: np.ndarray,
    l1_reuse_fraction: np.ndarray,
    l1_working_set: np.ndarray,
    l2_reuse_fraction: np.ndarray,
    l2_working_set: np.ndarray,
    config: HardwareConfig,
) -> MemoryTrafficBatch:
    """Push each kernel's traffic through ``config``'s cache hierarchy.

    Writes are modelled as write-through with write-combining: they
    appear as DRAM write traffic regardless of cache configuration
    (GPU L1s are typically write-through, and the paper's write-stall
    counter tracks DRAM write pressure).  Rows are independent, so each
    equals resolving that kernel's profile alone.
    """
    l1_capture = capacity_factor_batch(l1_working_set, config.l1_bytes)
    if config.l1_enabled:
        l1_hit_rate = l1_reuse_fraction * l1_capture
    else:
        l1_hit_rate = np.zeros_like(read_bytes, dtype=np.float64)

    l2_reads = read_bytes * (1.0 - l1_hit_rate)

    # L2 additionally captures the reuse L1 *would* have captured but
    # could not (capacity overflow or disabled L1): that spilled reuse
    # lands one level down, where the bigger cache usually holds it.
    spilled_reuse = l1_reuse_fraction - l1_hit_rate
    l2_candidate = np.minimum(1.0, l2_reuse_fraction + spilled_reuse)
    l2_capture = capacity_factor_batch(
        np.maximum(l2_working_set, l1_working_set), config.l2_bytes
    )
    if config.l2_enabled:
        l2_hit_rate = l2_candidate * l2_capture
    else:
        l2_hit_rate = np.zeros_like(read_bytes, dtype=np.float64)

    dram_reads = l2_reads * (1.0 - l2_hit_rate)
    return MemoryTrafficBatch(
        l1_read_bytes=np.asarray(read_bytes, dtype=np.float64),
        l2_read_bytes=l2_reads,
        dram_read_bytes=dram_reads,
        dram_write_bytes=np.asarray(write_bytes, dtype=np.float64),
        l1_hit_rate=l1_hit_rate,
        l2_hit_rate=l2_hit_rate,
    )
