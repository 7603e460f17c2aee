"""Scalar reference implementations of the simulation stages.

The library has one implementation per stage: a timing model that
evaluates whole columns of kernels, plans timed in batched device
calls, shape-memoized epochs and passes, a columnar serve and columnar
batch formation.  Each replaced a scalar form that works one kernel,
iteration, batch or arrival at a time.  Those forms live here: the
timing model one kernel at a time (:func:`time_work`), and the loops,
changed only to take the executor or simulator they used to be methods
of as an argument.  The equivalence tests (test_hw_batch.py,
test_plan_equivalence.py, test_columnar_equivalence.py,
test_properties_traffic.py) compare the library against them bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.cache import MemoryTrafficBatch, TrafficProfile, capacity_factor
from repro.hw.compute import _LATENCY_HIDING_WAVES, ComputeProfile
from repro.hw.config import HardwareConfig
from repro.hw.counters import CounterSet
from repro.hw.device import BatchMeasurement
from repro.hw.timing import (
    _INFLIGHT_BYTES_PER_WAVE,
    TimingBreakdownBatch,
    WorkBatch,
    WorkProfile,
)
from repro.kernels.autotune import _PRUNE_FACTOR, _TRIALS_PER_VARIANT
from repro.kernels.gemm import GEMM_VARIANTS, GemmVariant, build_gemm
from repro.models.schedule import KernelSchedule
from repro.models.spec import IterationInputs
from repro.traffic.batcher import FormedBatch, _policy_queue
from repro.traffic.simulator import ServedTraffic
from repro.train.frame import NO_TGT, IterationProfile, TraceFrame
from repro.train.iteration import IterationResult
from repro.train.trace import IterationRecord, TrainingTrace
from tests.conftest import trace_of

# ---- the timing model, one kernel at a time ---------------------------


@dataclass(frozen=True)
class MemoryTraffic:
    """Traffic resolved against a concrete cache hierarchy."""

    l1_read_bytes: float
    l2_read_bytes: float
    dram_read_bytes: float
    dram_write_bytes: float
    l1_hit_rate: float
    l2_hit_rate: float

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass(frozen=True)
class TimingBreakdown:
    """Where one kernel's time went."""

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
        """Which term binds; ``max`` over the dict keeps the first key
        attaining the maximum, so a tie goes to the earlier term."""
        terms = {
            "compute": self.compute_s,
            "bandwidth": self.bandwidth_s,
            "latency": self.latency_s,
        }
        return max(terms, key=terms.get)


class Measurement(NamedTuple):
    """One kernel's runtime, breakdown and counters."""

    time_s: float
    breakdown: TimingBreakdown
    counters: CounterSet


def work_row(batch: WorkBatch, i: int) -> WorkProfile:
    return WorkProfile(
        compute=ComputeProfile(
            flops=float(batch.flops[i]),
            work_items=int(batch.work_items[i]),
            issue_efficiency=float(batch.issue_efficiency[i]),
            workgroup_size=int(batch.workgroup_size[i]),
        ),
        traffic=TrafficProfile(
            read_bytes=float(batch.read_bytes[i]),
            write_bytes=float(batch.write_bytes[i]),
            l1_reuse_fraction=float(batch.l1_reuse_fraction[i]),
            l1_working_set=float(batch.l1_working_set[i]),
            l2_reuse_fraction=float(batch.l2_reuse_fraction[i]),
            l2_working_set=float(batch.l2_working_set[i]),
        ),
    )


def traffic_row(traffic: MemoryTrafficBatch, i: int) -> MemoryTraffic:
    return MemoryTraffic(
        l1_read_bytes=float(traffic.l1_read_bytes[i]),
        l2_read_bytes=float(traffic.l2_read_bytes[i]),
        dram_read_bytes=float(traffic.dram_read_bytes[i]),
        dram_write_bytes=float(traffic.dram_write_bytes[i]),
        l1_hit_rate=float(traffic.l1_hit_rate[i]),
        l2_hit_rate=float(traffic.l2_hit_rate[i]),
    )


def breakdown_row(breakdown: TimingBreakdownBatch, i: int) -> TimingBreakdown:
    return TimingBreakdown(
        launch_s=breakdown.launch_s,
        compute_s=float(breakdown.compute_s[i]),
        bandwidth_s=float(breakdown.bandwidth_s[i]),
        latency_s=float(breakdown.latency_s[i]),
        traffic=traffic_row(breakdown.traffic, i),
    )


def measurement_row(measurement: BatchMeasurement, i: int) -> Measurement:
    return Measurement(
        time_s=float(measurement.time_s[i]),
        breakdown=breakdown_row(measurement.breakdown, i),
        counters=measurement.counters.row(i),
    )


def workgroups(profile: ComputeProfile) -> int:
    return max(1, math.ceil(profile.work_items / profile.workgroup_size))


def waves(profile: ComputeProfile, config: HardwareConfig) -> float:
    return max(1.0, profile.work_items / config.wave_size)


def parallel_efficiency(profile: ComputeProfile, config: HardwareConfig) -> float:
    wave_slots = config.num_cus * _LATENCY_HIDING_WAVES
    occupancy = min(1.0, waves(profile, config) / wave_slots)
    count = workgroups(profile)
    rounds = math.ceil(count / config.num_cus)
    tail = count / (rounds * config.num_cus)
    return occupancy * tail


def compute_time(profile: ComputeProfile, config: HardwareConfig) -> float:
    if profile.flops == 0.0:
        return 0.0
    efficiency = profile.issue_efficiency * parallel_efficiency(profile, config)
    achievable = config.peak_flops * max(efficiency, 1e-6)
    return profile.flops / achievable


def resolve_traffic(profile: TrafficProfile, config: HardwareConfig) -> MemoryTraffic:
    l1_capture = capacity_factor(profile.l1_working_set, config.l1_bytes)
    l1_hit_rate = profile.l1_reuse_fraction * l1_capture if config.l1_enabled else 0.0
    l2_reads = profile.read_bytes * (1.0 - l1_hit_rate)
    spilled_reuse = profile.l1_reuse_fraction - l1_hit_rate
    l2_candidate = min(1.0, profile.l2_reuse_fraction + spilled_reuse)
    l2_capture = capacity_factor(
        max(profile.l2_working_set, profile.l1_working_set), config.l2_bytes
    )
    l2_hit_rate = l2_candidate * l2_capture if config.l2_enabled else 0.0
    dram_reads = l2_reads * (1.0 - l2_hit_rate)
    return MemoryTraffic(
        l1_read_bytes=profile.read_bytes,
        l2_read_bytes=l2_reads,
        dram_read_bytes=dram_reads,
        dram_write_bytes=profile.write_bytes,
        l1_hit_rate=l1_hit_rate,
        l2_hit_rate=l2_hit_rate,
    )


def _bandwidth_time(traffic: MemoryTraffic, config: HardwareConfig) -> float:
    times = [traffic.dram_bytes / config.dram_bandwidth]
    if config.l2_enabled:
        times.append(
            (traffic.l2_read_bytes + traffic.dram_write_bytes) / config.l2_bandwidth
        )
    if config.l1_enabled:
        times.append(traffic.l1_read_bytes / config.l1_bandwidth)
    return max(times)


def _average_latency_cycles(traffic: MemoryTraffic, config: HardwareConfig) -> float:
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
    if traffic.l1_read_bytes <= 0.0:
        return 0.0
    resident_waves = min(
        waves(work.compute, config), float(config.num_cus * config.max_waves_per_cu)
    )
    inflight_bytes = max(resident_waves * _INFLIGHT_BYTES_PER_WAVE, 1.0)
    rounds = traffic.l1_read_bytes / inflight_bytes
    return rounds * _average_latency_cycles(traffic, config) / config.gclk_hz


def _write_stall_cycles(
    total_s: float, traffic: MemoryTraffic, config: HardwareConfig
) -> float:
    if total_s <= 0.0 or traffic.dram_write_bytes <= 0.0:
        return 0.0
    drain_s = traffic.dram_write_bytes / config.dram_bandwidth
    pressure = min(1.0, drain_s / total_s)
    return drain_s * pressure * config.gclk_hz


def time_work(work: WorkProfile, config: HardwareConfig) -> Measurement:
    """Time one kernel on ``config``."""
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
    return Measurement(total_s, breakdown, counters)


# ---- kernels ----------------------------------------------------------


def select_reference(m: int, n: int, k: int, config) -> GemmVariant:
    """GEMM variant selection: time every variant, keep the first fastest."""
    best: GemmVariant | None = None
    best_time = math.inf
    for variant in GEMM_VARIANTS:
        candidate = build_gemm(variant, m, n, k)
        elapsed, _, _ = time_work(candidate.work, config)
        if elapsed < best_time:
            best, best_time = variant, elapsed
    assert best is not None  # GEMM_VARIANTS is non-empty
    return best


def candidate_indices(m: int, n: int) -> list[int]:
    """Indices into ``GEMM_VARIANTS`` a library would try here: tiles at
    most ``_PRUNE_FACTOR`` times the problem, else the last variant."""
    feasible = [
        index
        for index, variant in enumerate(GEMM_VARIANTS)
        if variant.tile_m <= m * _PRUNE_FACTOR
        and variant.tile_n <= n * _PRUNE_FACTOR
    ]
    return feasible or [len(GEMM_VARIANTS) - 1]


class ReferenceAutotuner:
    """The autotuner's candidate loop: the first charge of a shape
    builds and times, one invocation at a time, every variant the
    library would try (:func:`candidate_indices`); later charges cost
    nothing."""

    def __init__(self, config):
        self.config = config
        self.tuned: set[tuple[int, int, int]] = set()
        self.total_cost_s = 0.0

    def charge(self, m: int, n: int, k: int) -> float:
        if (m, n, k) in self.tuned:
            return 0.0
        self.tuned.add((m, n, k))
        cost = 0.0
        for index in candidate_indices(m, n):
            candidate = build_gemm(GEMM_VARIANTS[index], m, n, k)
            elapsed, _, _ = time_work(candidate.work, self.config)
            cost += elapsed * _TRIALS_PER_VARIANT
        self.total_cost_s += cost
        return cost


# ---- one iteration ----------------------------------------------------


def measure(executor, schedule: KernelSchedule) -> IterationResult:
    """Per-invocation measurement and accumulation of one schedule on
    ``executor``'s device, from its host overhead."""
    time_s = executor.host_overhead_s
    launches = 0
    counters = CounterSet.zero()
    group_times: dict[str, float] = {}
    names: set[str] = set()
    for invocation, count in schedule.merged():
        measurement = time_work(invocation.work, executor.device.config)
        time_s += measurement.time_s * count
        launches += count
        counters = counters + measurement.counters.scaled(count)
        group_times[invocation.group] = (
            group_times.get(invocation.group, 0.0) + measurement.time_s * count
        )
        names.add(invocation.name)
    return IterationResult(
        time_s=time_s,
        launches=launches,
        counters=counters,
        group_times=group_times,
        kernel_names=frozenset(names),
        gemm_shapes=tuple(schedule.gemm_shapes()),
    )


class ReferenceExecutor:
    """An executor that lowers and measures shape by shape.

    Wraps an :class:`~repro.train.iteration.IterationExecutor` for its
    model, device and host overhead only; results are memoised per
    shape and pass kind, never shared with the wrapped executor.
    """

    def __init__(self, executor):
        self.executor = executor
        self._results: dict[tuple, IterationResult] = {}

    def _run(self, inputs: IterationInputs, kind: str) -> IterationResult:
        key = (kind, inputs.batch, inputs.seq_len, inputs.tgt_len)
        result = self._results.get(key)
        if result is None:
            model = self.executor.model
            lower = model.lower_iteration if kind == "train" else model.lower_forward
            schedule = lower(inputs, self.executor.device.config)
            result = self._results[key] = measure(self.executor, schedule)
        return result

    def run(self, inputs: IterationInputs) -> IterationResult:
        return self._run(inputs, "train")

    def run_forward(self, inputs: IterationInputs) -> IterationResult:
        return self._run(inputs, "forward")


def _record(index, epoch, inputs, result, noise) -> IterationRecord:
    return IterationRecord(
        index=index,
        epoch=epoch,
        seq_len=inputs.seq_len,
        tgt_len=inputs.tgt_len,
        time_s=result.time_s * noise,
        launches=result.launches,
        counters=result.counters,
        group_times=result.group_times,
        kernel_names=result.kernel_names,
    )


# ---- training epochs and inference passes -----------------------------


class ReferenceTrainer:
    """A training simulator's per-iteration epoch loop.

    Reads the plan, noise and evaluation set of a
    :class:`~repro.train.runner.TrainingRunSimulator`; every iteration is
    measured through a :class:`ReferenceExecutor` and charged through a
    :class:`ReferenceAutotuner`, both kept across epochs.  Run its
    epochs in order from 0: the autotuner then holds what the run's
    earlier epochs tuned, which the simulator works out per epoch.
    """

    def __init__(self, simulator):
        self.simulator = simulator
        self.executor = ReferenceExecutor(simulator.executor)
        self.autotuner = ReferenceAutotuner(simulator.device.config)

    def eval_phase_time(self, epoch: int = 0) -> float:
        sim = self.simulator
        if sim.eval_dataset is None:
            return 0.0
        plan = sim.batching.plan_epoch(
            sim.eval_dataset, epoch=epoch, seed=sim.seed, drop_last=False
        )
        # A left fold, not sum(): Python 3.12+ compensates float sums.
        total = 0.0
        for inputs in plan:
            total += self.executor.run_forward(inputs).time_s
        return total

    def run_epoch(self, epoch: int = 0, include_eval: bool = True) -> TrainingTrace:
        sim = self.simulator
        plan = sim.batching.plan_epoch(sim.dataset, epoch=epoch, seed=sim.seed)
        if not plan:
            raise ConfigurationError(
                f"{sim.dataset.name}: dataset too small for one "
                f"batch of {sim.batching.batch_size}"
            )
        records = []
        autotune_s = 0.0
        for index, inputs in enumerate(plan):
            result = self.executor.run(inputs)
            for shape in result.gemm_shapes:
                autotune_s += self.autotuner.charge(*shape)
            records.append(
                _record(index, epoch, inputs, result, sim._noise(epoch, index))
            )
        return trace_of(
            records,
            model_name=sim.model.name,
            dataset_name=sim.dataset.name,
            config_name=sim.device.config.name,
            batch_size=sim.batching.batch_size,
            autotune_s=autotune_s,
            eval_s=self.eval_phase_time(epoch) if include_eval else 0.0,
        )


def run_pass_reference(simulator, epoch: int = 0) -> TrainingTrace:
    """An inference simulator's per-request pass over full batches, or
    over one ragged batch when the request set is smaller than one."""
    sim = simulator
    executor = ReferenceExecutor(sim.executor)
    plan = sim.batching.plan_epoch(sim.dataset, epoch=epoch, seed=sim.seed, drop_last=True)
    if not plan:
        plan = sim.batching.plan_epoch(
            sim.dataset, epoch=epoch, seed=sim.seed, drop_last=False
        )
    if not plan:
        raise ConfigurationError(f"{sim.dataset.name}: no requests to serve")
    return trace_of(
        [
            _record(index, epoch, inputs, executor.run_forward(inputs), sim._noise(index))
            for index, inputs in enumerate(plan)
        ],
        model_name=f"{sim.model.name}-inference",
        dataset_name=sim.dataset.name,
        config_name=sim.device.config.name,
        batch_size=sim.batching.batch_size,
    )


# ---- serving ----------------------------------------------------------


def form_batches_reference(
    arrival_s: np.ndarray,
    seq_len: np.ndarray,
    tgt_len: np.ndarray,
    policy,
    max_wait_s: float,
) -> list[FormedBatch]:
    """Batch formation as an event loop: one decision per arrival."""
    arrival_s = np.asarray(arrival_s, dtype=np.float64)
    seq_len = np.asarray(seq_len, dtype=np.int64)
    tgt_len = np.asarray(tgt_len, dtype=np.int64)
    bucketed, capacity = _policy_queue(policy)
    batch_size = policy.batch_size
    batches: list[FormedBatch] = []
    waiting: list[int] = []  # request indices, arrival order

    def flush(now: float) -> None:
        """Close everything waiting into consecutive batches at ``now``."""
        pool = np.asarray(waiting, dtype=np.int64)
        if bucketed:
            pool = pool[np.argsort(seq_len[pool], kind="stable")]
        for lo in range(0, pool.size, batch_size):
            members = pool[lo : lo + batch_size]
            tgt_max = int(tgt_len[members].max())
            batches.append(
                FormedBatch(
                    form_time_s=now,
                    members=members,
                    seq_len=policy._pad(int(seq_len[members].max())),
                    tgt_len=(NO_TGT if tgt_max == NO_TGT else policy._pad(tgt_max)),
                )
            )
        waiting.clear()

    for index in range(arrival_s.size):
        now = float(arrival_s[index])
        if waiting and arrival_s[waiting[0]] + max_wait_s < now:
            flush(float(arrival_s[waiting[0]]) + max_wait_s)
        waiting.append(index)
        if capacity is not None and len(waiting) >= capacity:
            flush(now)
    if waiting:
        # Stream exhausted: the remainder goes out when the oldest
        # waiting request's deadline expires.
        flush(float(arrival_s[waiting[0]]) + max_wait_s)
    return batches


def serve_reference(
    simulator, requests, arrival_s: np.ndarray, batches, executor=None
) -> ServedTraffic:
    """A traffic simulator's serve, one forward pass and FIFO step per
    batch.  ``executor`` (a :class:`ReferenceExecutor` over the
    simulator's executor by default) may be shared across calls."""
    sim = simulator
    if executor is None:
        executor = ReferenceExecutor(sim.executor)
    count = len(batches)
    index = np.arange(count, dtype=np.int64)
    epoch = np.empty(count, dtype=np.int64)
    seq_len = np.empty(count, dtype=np.int64)
    tgt_len = np.empty(count, dtype=np.int64)
    time_s = np.empty(count, dtype=np.float64)
    profile_id = np.empty(count, dtype=np.int64)
    pool: dict[tuple, int] = {}
    profiles: list[IterationProfile] = []
    queue_wait = np.zeros(len(requests), dtype=np.float64)
    latency = np.zeros(len(requests), dtype=np.float64)
    device_free = 0.0
    for i, batch in enumerate(batches):
        inputs = IterationInputs(
            batch=len(batch),
            seq_len=batch.seq_len,
            tgt_len=None if batch.tgt_len == NO_TGT else batch.tgt_len,
        )
        result = executor.run_forward(inputs)
        start = max(batch.form_time_s, device_free)
        device_free = start + result.time_s
        queue_wait[batch.members] = start - arrival_s[batch.members]
        latency[batch.members] = device_free - arrival_s[batch.members]
        # The batch's phase: its earliest-arriving member's.
        epoch[i] = int(requests.phase[batch.members].min())
        seq_len[i] = batch.seq_len
        tgt_len[i] = batch.tgt_len
        time_s[i] = result.time_s
        profile = IterationProfile(
            launches=result.launches,
            counters=result.counters,
            group_times=dict(result.group_times),
            kernel_names=result.kernel_names,
        )
        key = profile.dedup_key()
        pid = pool.get(key)
        if pid is None:
            pid = pool[key] = len(profiles)
            profiles.append(profile)
        profile_id[i] = pid
    frame = TraceFrame(
        model_name=f"{sim.model.name}-serving",
        dataset_name=sim.dataset_name,
        config_name=sim.device.config.name,
        batch_size=sim.policy.batch_size,
        index=index,
        epoch=epoch,
        seq_len=seq_len,
        tgt_len=tgt_len,
        time_s=time_s,
        profile_id=profile_id,
        profiles=tuple(profiles),
    )
    return ServedTraffic(
        frame=frame,
        batches=tuple(batches),
        arrival_s=np.asarray(arrival_s, dtype=np.float64),
        queue_wait_s=queue_wait,
        latency_s=latency,
        makespan_s=device_free,
    )


# ---- comparisons ------------------------------------------------------


def assert_results_identical(ours: IterationResult, reference: IterationResult) -> None:
    assert ours.time_s == reference.time_s
    assert ours.launches == reference.launches
    assert ours.counters == reference.counters
    assert ours.group_times == reference.group_times
    assert ours.kernel_names == reference.kernel_names
    assert ours.gemm_shapes == reference.gemm_shapes


def assert_traces_bit_identical(ours: TrainingTrace, reference: TrainingTrace) -> None:
    """Every column, counter, group time, record and phase total equal."""
    left, right = ours.frame(), reference.frame()
    assert np.array_equal(left.index, right.index)
    assert np.array_equal(left.epoch, right.epoch)
    assert np.array_equal(left.seq_len, right.seq_len)
    assert np.array_equal(left.tgt_len, right.tgt_len)
    # Exact equality, not approx: bit for bit.
    assert left.time_s.tolist() == right.time_s.tolist()
    assert ours.autotune_s == reference.autotune_s
    assert ours.eval_s == reference.eval_s
    assert np.array_equal(left.launches, right.launches)
    for name in left.counter_names:
        assert left.counter_column(name).tolist() == (
            right.counter_column(name).tolist()
        ), name
    assert left.groups == right.groups
    for group in left.groups:
        assert left.group_time_column(group).tolist() == (
            right.group_time_column(group).tolist()
        ), group
    assert ours.records == reference.records
    assert (left.model_name, left.dataset_name, left.config_name, left.batch_size) == (
        right.model_name,
        right.dataset_name,
        right.config_name,
        right.batch_size,
    )


def assert_batches_identical(ours, reference) -> None:
    """Same batches in the same order: formation instants bit for bit,
    members (values and dtype) and padded shapes."""
    assert len(ours) == len(reference)
    for one, two in zip(ours, reference):
        assert one.form_time_s == two.form_time_s
        assert np.array_equal(one.members, two.members)
        assert one.members.dtype == two.members.dtype
        assert (one.seq_len, one.tgt_len) == (two.seq_len, two.tgt_len)


def assert_served_identical(ours: ServedTraffic, reference: ServedTraffic) -> None:
    assert ours.frame.to_payload() == reference.frame.to_payload()
    assert ours.frame.profiles == reference.frame.profiles
    assert_batches_identical(ours.batches, reference.batches)
    assert np.array_equal(ours.arrival_s, reference.arrival_s)
    assert np.array_equal(ours.queue_wait_s, reference.queue_wait_s)
    assert np.array_equal(ours.latency_s, reference.latency_s)
    assert ours.makespan_s == reference.makespan_s
    assert ours.latency_percentiles() == reference.latency_percentiles()
    assert ours.queue_wait_percentiles() == reference.queue_wait_percentiles()
