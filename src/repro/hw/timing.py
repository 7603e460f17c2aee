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
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hw.cache import (
    MemoryTraffic,
    MemoryTrafficBatch,
    TrafficProfile,
    resolve_traffic,
    resolve_traffic_batch,
)
from repro.hw.compute import (
    ComputeProfile,
    compute_time,
    compute_time_batch,
    parallel_efficiency,
    waves_batch,
)
from repro.hw.config import HardwareConfig
from repro.hw.counters import CounterColumns, CounterSet

__all__ = [
    "WorkProfile",
    "WorkBatch",
    "TimingBreakdown",
    "TimingBreakdownBatch",
    "time_work",
    "time_work_batch",
]

#: Outstanding bytes one resident wave keeps in flight (two 64 B lines).
_INFLIGHT_BYTES_PER_WAVE = 128.0


@dataclass(frozen=True)
class WorkProfile:
    """Complete hardware-facing description of one kernel invocation."""

    compute: ComputeProfile
    traffic: TrafficProfile

    def __hash__(self) -> int:
        # Work profiles key the device's measurement memo; the generated
        # hash re-hashes both nested profiles (14 fields) on every
        # lookup.  Cache it — instances are frozen.  Matches the
        # generated hash: the tuple of all fields.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.compute, self.traffic))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # Hash salting is per process: drop the cache when pickled.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


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

    def row(self, i: int) -> WorkProfile:
        """Materialise one row as a scalar :class:`WorkProfile`."""
        return WorkProfile(
            compute=ComputeProfile(
                flops=float(self.flops[i]),
                work_items=int(self.work_items[i]),
                issue_efficiency=float(self.issue_efficiency[i]),
                workgroup_size=int(self.workgroup_size[i]),
            ),
            traffic=TrafficProfile(
                read_bytes=float(self.read_bytes[i]),
                write_bytes=float(self.write_bytes[i]),
                l1_reuse_fraction=float(self.l1_reuse_fraction[i]),
                l1_working_set=float(self.l1_working_set[i]),
                l2_reuse_fraction=float(self.l2_reuse_fraction[i]),
                l2_working_set=float(self.l2_working_set[i]),
            ),
        )


@dataclass(frozen=True)
class TimingBreakdown:
    """Where the kernel's time went (for tests and ablation analyses)."""

    launch_s: float
    compute_s: float
    bandwidth_s: float
    latency_s: float
    traffic: MemoryTraffic

    @property
    def total_s(self) -> float:
        return self.launch_s + max(self.compute_s, self.bandwidth_s, self.latency_s)

    @property
    def bound(self) -> str:
        """Which term binds: ``compute``, ``bandwidth``, or ``latency``."""
        terms = {
            "compute": self.compute_s,
            "bandwidth": self.bandwidth_s,
            "latency": self.latency_s,
        }
        return max(terms, key=terms.get)


#: Tie-break order of :attr:`TimingBreakdown.bound` — ``max`` over the
#: dict returns the *first* key attaining the maximum, in insertion
#: order.  The batched form must break ties the same way.
_BOUND_LABELS = ("compute", "bandwidth", "latency")


@dataclass(frozen=True, eq=False)
class TimingBreakdownBatch:
    """Columns of :class:`TimingBreakdown`, one row per kernel."""

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

        ``np.argmax`` returns the first occurrence of the maximum, which
        matches the scalar ``bound``'s dict-order tie-breaking exactly.
        """
        stacked = np.stack([self.compute_s, self.bandwidth_s, self.latency_s])
        return np.argmax(stacked, axis=0)

    @property
    def bound(self) -> tuple[str, ...]:
        """Per-row bound labels (column form of ``TimingBreakdown.bound``)."""
        return tuple(_BOUND_LABELS[i] for i in self.bound_index)

    def row(self, i: int) -> TimingBreakdown:
        """Materialise one row as a scalar :class:`TimingBreakdown`."""
        return TimingBreakdown(
            launch_s=self.launch_s,
            compute_s=float(self.compute_s[i]),
            bandwidth_s=float(self.bandwidth_s[i]),
            latency_s=float(self.latency_s[i]),
            traffic=self.traffic.row(i),
        )


def _bandwidth_time(traffic: MemoryTraffic, config: HardwareConfig) -> float:
    """Slowest hierarchy level at its resolved traffic volume."""
    times = [traffic.dram_bytes / config.dram_bandwidth]
    if config.l2_enabled:
        times.append(
            (traffic.l2_read_bytes + traffic.dram_write_bytes) / config.l2_bandwidth
        )
    if config.l1_enabled:
        times.append(traffic.l1_read_bytes / config.l1_bandwidth)
    return max(times)


def _average_latency_cycles(
    traffic: MemoryTraffic, config: HardwareConfig
) -> float:
    """Mean cycles per access round, weighted by where reads are served."""
    if traffic.l1_read_bytes <= 0.0:
        return 0.0
    l1_fraction = traffic.l1_hit_rate if config.l1_enabled else 0.0
    l2_served = (traffic.l2_read_bytes - traffic.dram_read_bytes) / max(
        traffic.l1_read_bytes, 1e-30
    )
    dram_fraction = traffic.dram_read_bytes / traffic.l1_read_bytes
    return (
        l1_fraction * config.l1_latency_cycles
        + max(l2_served, 0.0) * config.l2_latency_cycles
        + dram_fraction * config.dram_latency_cycles
    )


def _latency_time(
    work: WorkProfile, traffic: MemoryTraffic, config: HardwareConfig
) -> float:
    """Exposed memory latency given the kernel's resident parallelism."""
    if traffic.l1_read_bytes <= 0.0:
        return 0.0
    waves = work.compute.waves(config)
    resident_waves = min(waves, float(config.num_cus * config.max_waves_per_cu))
    inflight_bytes = max(resident_waves * _INFLIGHT_BYTES_PER_WAVE, 1.0)
    rounds = traffic.l1_read_bytes / inflight_bytes
    cycles_per_round = _average_latency_cycles(traffic, config)
    return rounds * cycles_per_round / config.gclk_hz


def _write_stall_cycles(
    total_s: float, traffic: MemoryTraffic, config: HardwareConfig
) -> float:
    """Cycles stalled on the write path.

    Writes drain at DRAM bandwidth; stall cycles grow with the share of
    the kernel's lifetime the write queue is under pressure, so
    write-heavy kernels (weight updates, large activations) show the
    high write-stall numbers Fig 4 reports.
    """
    if total_s <= 0.0 or traffic.dram_write_bytes <= 0.0:
        return 0.0
    drain_s = traffic.dram_write_bytes / config.dram_bandwidth
    pressure = min(1.0, drain_s / total_s)
    return drain_s * pressure * config.gclk_hz


def time_work(work: WorkProfile, config: HardwareConfig) -> tuple[float, TimingBreakdown, CounterSet]:
    """Time one kernel on ``config``; returns (seconds, breakdown, counters)."""
    traffic = resolve_traffic(work.traffic, config)
    breakdown = TimingBreakdown(
        launch_s=config.kernel_launch_s,
        compute_s=compute_time(work.compute, config),
        bandwidth_s=_bandwidth_time(traffic, config),
        latency_s=_latency_time(work, traffic, config),
        traffic=traffic,
    )
    total_s = breakdown.total_s
    counters = CounterSet(
        valu_insts=work.compute.flops
        / (config.wave_size * config.flops_per_lane_per_clk),
        dram_read_bytes=traffic.dram_read_bytes,
        dram_write_bytes=traffic.dram_write_bytes,
        l2_read_bytes=traffic.l2_read_bytes,
        write_stall_cycles=_write_stall_cycles(total_s, traffic, config),
        busy_cycles=total_s * config.gclk_hz,
    )
    return total_s, breakdown, counters


# -- vectorized (column) forms ----------------------------------------
#
# Each helper mirrors its scalar counterpart above expression for
# expression (same association order, same guards), so a row of the
# batch result is bit-identical to calling :func:`time_work` on that
# row's profile.  tests/test_hw_batch.py asserts this over random work
# and every Table II configuration.


def _bandwidth_time_batch(
    traffic: MemoryTrafficBatch, config: HardwareConfig
) -> np.ndarray:
    """Column form of :func:`_bandwidth_time`."""
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
    """Column form of :func:`_average_latency_cycles`."""
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
    """Column form of :func:`_latency_time`."""
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
    """Column form of :func:`_write_stall_cycles`."""
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

    Returns ``(seconds, breakdowns, counters)`` — the column forms of
    :func:`time_work`'s results, row-wise bit-identical to it.
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
__all__ += ["ComputeProfile", "TrafficProfile", "parallel_efficiency"]
