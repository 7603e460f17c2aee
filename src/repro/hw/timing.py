"""Kernel timing engine.

Combines the compute model (:mod:`repro.hw.compute`), the cache model
(:mod:`repro.hw.cache`), and latency/launch overheads into a runtime for
one kernel invocation on one hardware configuration:

``time = launch + max(compute, memory-bandwidth, memory-latency)``

* the *bandwidth* bound takes the slowest level of the hierarchy at its
  resolved traffic;
* the *latency* bound models outstanding-miss limits: a kernel with few
  waves in flight cannot cover average access latency, so disabling L1
  (raising average latency) disproportionately slows low-parallelism
  kernels — the SL-dependent sensitivity behind Figs 13/14.

:func:`time_work_batch` times a whole :class:`WorkBatch` column of
kernels in array ops; rows are independent, so each row equals timing
that kernel alone.  ``tests/reference.py`` keeps the one-kernel scalar
form of the model as the oracle it is checked against, bit for bit,
over random work and every Table II configuration
(tests/test_hw_batch.py).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hw.cache import MemoryTrafficBatch, TrafficProfile, resolve_traffic_batch
from repro.hw.compute import ComputeProfile, compute_time_batch, waves_batch
from repro.hw.config import HardwareConfig
from repro.hw.counters import CounterColumns

__all__ = [
    "WorkProfile",
    "WorkBatch",
    "TimingBreakdownBatch",
    "time_work_batch",
]

#: Outstanding bytes one resident wave keeps in flight (two 64 B lines).
_INFLIGHT_BYTES_PER_WAVE = 128.0


@dataclass(frozen=True)
class WorkProfile:
    """Complete hardware-facing description of one kernel invocation."""

    compute: ComputeProfile
    traffic: TrafficProfile


@dataclass(frozen=True, eq=False)
class WorkBatch:
    """Columns of :class:`WorkProfile`, one row per kernel invocation.

    The columnar form the vectorized timing engine consumes: four
    compute columns (:class:`~repro.hw.compute.ComputeProfile`) and six
    traffic columns (:class:`~repro.hw.cache.TrafficProfile`).  Batches
    compare by identity (``eq=False``); the rows themselves are assumed
    frozen after construction.
    """

    flops: np.ndarray
    work_items: np.ndarray
    issue_efficiency: np.ndarray
    workgroup_size: np.ndarray
    read_bytes: np.ndarray
    write_bytes: np.ndarray
    l1_reuse_fraction: np.ndarray
    l1_working_set: np.ndarray
    l2_reuse_fraction: np.ndarray
    l2_working_set: np.ndarray

    def __len__(self) -> int:
        return int(self.flops.size)

    @classmethod
    def from_profiles(cls, works: Sequence[WorkProfile]) -> "WorkBatch":
        """Columnarise a sequence of scalar work profiles.

        One Python pass builds a row-major table; the column slices are
        C-contiguous copies so later ufuncs stream them efficiently.
        """
        table = np.array(
            [
                (
                    c.flops,
                    c.work_items,
                    c.issue_efficiency,
                    c.workgroup_size,
                    t.read_bytes,
                    t.write_bytes,
                    t.l1_reuse_fraction,
                    t.l1_working_set,
                    t.l2_reuse_fraction,
                    t.l2_working_set,
                )
                for w in works
                for c, t in ((w.compute, w.traffic),)
            ],
            dtype=np.float64,
        ).reshape(len(works), 10)
        columns = np.ascontiguousarray(table.T)
        return cls(
            flops=columns[0],
            work_items=columns[1],
            issue_efficiency=columns[2],
            workgroup_size=columns[3],
            read_bytes=columns[4],
            write_bytes=columns[5],
            l1_reuse_fraction=columns[6],
            l1_working_set=columns[7],
            l2_reuse_fraction=columns[8],
            l2_working_set=columns[9],
        )

    @classmethod
    def concat(cls, batches: Sequence["WorkBatch"]) -> "WorkBatch":
        """Stack batches row-wise into one batch.

        The timing engine is purely row-wise, so timing the
        concatenation yields per-row results identical to timing each
        batch separately — the basis of the executor timing many plans
        per ``run_batch`` call.
        """
        return cls(
            **{
                field.name: np.concatenate(
                    [getattr(batch, field.name) for batch in batches]
                )
                for field in dataclasses.fields(cls)
            }
        )


#: The bound terms, in tie-break order: on a tie the earlier term binds.
_BOUND_LABELS = ("compute", "bandwidth", "latency")


@dataclass(frozen=True, eq=False)
class TimingBreakdownBatch:
    """Where each kernel's time went (for tests and ablation analyses),
    one row per kernel."""

    launch_s: float
    compute_s: np.ndarray
    bandwidth_s: np.ndarray
    latency_s: np.ndarray
    traffic: MemoryTrafficBatch

    @property
    def total_s(self) -> np.ndarray:
        return self.launch_s + np.maximum(
            np.maximum(self.compute_s, self.bandwidth_s), self.latency_s
        )

    @property
    def bound_index(self) -> np.ndarray:
        """Index into ``("compute", "bandwidth", "latency")`` per row.

        ``np.argmax`` returns the first occurrence of the maximum, so a
        tie goes to the earlier term.
        """
        stacked = np.stack([self.compute_s, self.bandwidth_s, self.latency_s])
        return np.argmax(stacked, axis=0)

    @property
    def bound(self) -> tuple[str, ...]:
        """Which term binds each row: ``compute``, ``bandwidth``, or
        ``latency``."""
        return tuple(_BOUND_LABELS[i] for i in self.bound_index)


def _bandwidth_time_batch(
    traffic: MemoryTrafficBatch, config: HardwareConfig
) -> np.ndarray:
    """Slowest hierarchy level at its resolved traffic volume."""
    times = traffic.dram_bytes / config.dram_bandwidth
    if config.l2_enabled:
        times = np.maximum(
            times,
            (traffic.l2_read_bytes + traffic.dram_write_bytes)
            / config.l2_bandwidth,
        )
    if config.l1_enabled:
        times = np.maximum(times, traffic.l1_read_bytes / config.l1_bandwidth)
    return times


def _average_latency_cycles_batch(
    traffic: MemoryTrafficBatch, config: HardwareConfig
) -> np.ndarray:
    """Mean cycles per access round, weighted by where reads are served."""
    l1_reads = traffic.l1_read_bytes
    # Rows with no reads are masked to 0.0 at the end; the safe
    # denominator only suppresses the division warning for them.
    safe_reads = np.where(l1_reads > 0.0, l1_reads, 1.0)
    l1_fraction = traffic.l1_hit_rate if config.l1_enabled else 0.0
    l2_served = (traffic.l2_read_bytes - traffic.dram_read_bytes) / np.maximum(
        l1_reads, 1e-30
    )
    dram_fraction = traffic.dram_read_bytes / safe_reads
    cycles = (
        l1_fraction * config.l1_latency_cycles
        + np.maximum(l2_served, 0.0) * config.l2_latency_cycles
        + dram_fraction * config.dram_latency_cycles
    )
    return np.where(l1_reads <= 0.0, 0.0, cycles)


def _latency_time_batch(
    work: WorkBatch, traffic: MemoryTrafficBatch, config: HardwareConfig
) -> np.ndarray:
    """Exposed memory latency given each kernel's resident parallelism."""
    waves = waves_batch(work.work_items, config)
    resident_waves = np.minimum(
        waves, float(config.num_cus * config.max_waves_per_cu)
    )
    inflight_bytes = np.maximum(resident_waves * _INFLIGHT_BYTES_PER_WAVE, 1.0)
    rounds = traffic.l1_read_bytes / inflight_bytes
    cycles_per_round = _average_latency_cycles_batch(traffic, config)
    return np.where(
        traffic.l1_read_bytes <= 0.0,
        0.0,
        rounds * cycles_per_round / config.gclk_hz,
    )


def _write_stall_cycles_batch(
    total_s: np.ndarray, traffic: MemoryTrafficBatch, config: HardwareConfig
) -> np.ndarray:
    """Cycles stalled on the write path.

    Writes drain at DRAM bandwidth; stall cycles grow with the share of
    the kernel's lifetime the write queue is under pressure, so
    write-heavy kernels (weight updates, large activations) show the
    high write-stall numbers Fig 4 reports.
    """
    safe_total = np.where(total_s > 0.0, total_s, 1.0)
    drain_s = traffic.dram_write_bytes / config.dram_bandwidth
    pressure = np.minimum(1.0, drain_s / safe_total)
    stalls = drain_s * pressure * config.gclk_hz
    return np.where(
        (total_s <= 0.0) | (traffic.dram_write_bytes <= 0.0), 0.0, stalls
    )


def time_work_batch(
    work: WorkBatch, config: HardwareConfig
) -> tuple[np.ndarray, TimingBreakdownBatch, CounterColumns]:
    """Time a whole column of kernels on ``config`` in array ops.

    Returns ``(seconds, breakdowns, counters)``, one row per kernel.
    """
    traffic = resolve_traffic_batch(
        work.read_bytes,
        work.write_bytes,
        work.l1_reuse_fraction,
        work.l1_working_set,
        work.l2_reuse_fraction,
        work.l2_working_set,
        config,
    )
    breakdown = TimingBreakdownBatch(
        launch_s=config.kernel_launch_s,
        compute_s=compute_time_batch(
            work.flops,
            work.work_items,
            work.issue_efficiency,
            work.workgroup_size,
            config,
        ),
        bandwidth_s=_bandwidth_time_batch(traffic, config),
        latency_s=_latency_time_batch(work, traffic, config),
        traffic=traffic,
    )
    total_s = breakdown.total_s
    counters = CounterColumns(
        valu_insts=work.flops
        / (config.wave_size * config.flops_per_lane_per_clk),
        dram_read_bytes=traffic.dram_read_bytes,
        dram_write_bytes=traffic.dram_write_bytes,
        l2_read_bytes=traffic.l2_read_bytes,
        write_stall_cycles=_write_stall_cycles_batch(total_s, traffic, config),
        busy_cycles=total_s * config.gclk_hz,
    )
    return total_s, breakdown, counters


# Re-exported for convenience: the profiles kernels are built from.
__all__ += ["ComputeProfile", "TrafficProfile"]
