"""The serving loop: formed batches through the batched device pipeline.

Each :class:`~repro.traffic.batcher.FormedBatch` is timed with one
forward pass through the batched lowering→timing pipeline
(:class:`~repro.train.iteration.IterationExecutor`, i.e. the
process-wide ``PlanCache`` plus vectorized
:meth:`~repro.hw.device.GpuDevice.run_batch` timing of every unique
shape), then queued on a single-device FIFO: a batch starts at
``max(form_time, device_free)`` and occupies the device for its
measured forward latency.  The result is

* a standard :class:`~repro.train.frame.TraceFrame` (one row per
  batch, profile pool deduplicated per unique shape, ``epoch`` column
  carrying the traffic phase) — so every SeqPoint selector, projection,
  and streaming identifier consumes serving traffic unchanged, and
* per-request queue-wait and end-to-end latency columns, summarised as
  SLO-style p50/p95/p99 through the
  :class:`~repro.util.histogram.LatencyHistogram` machinery.

A serve groups batches by unique ``(len(batch), seq_len, tgt_len)``
shape, takes every unique shape's result from one
:meth:`~repro.train.iteration.IterationExecutor.run_unique` call (which
times a shape once per process, so a later serve on the same model and
config times nothing), scatters times and profile ids back by group
index, and replays the device FIFO as a vectorized prefix recurrence
(:func:`_fifo_prefix`).
The per-batch walk it replaced (one forward pass and one FIFO step per
batch) is kept as test code (``tests/reference.py``);
tests/test_properties_traffic.py checks that both give bit-identical
:class:`ServedTraffic` values across policies × arrival processes ×
seeds × drift schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.batching import BatchingPolicy
from repro.hw.device import GpuDevice
from repro.models.spec import IterationInputs, Model
from repro.traffic.batcher import FormedBatch, FormedBatchList
from repro.traffic.workload import RequestSet
from repro.train.frame import NO_TGT, IterationProfile, TraceFrame
from repro.train.inference import DEFAULT_SERVING_OVERHEAD_S
from repro.train.iteration import IterationExecutor
from repro.util.histogram import LatencyHistogram

__all__ = ["ServedTraffic", "TrafficSimulator", "latency_snapshot"]


def _fifo_prefix(
    form_s: np.ndarray, time_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized replay of the single-device FIFO recurrence.

    The scalar loop computes ``start[i] = max(form[i], free[i-1])``,
    ``free[i] = start[i] + time[i]`` — a running max-plus fold that a
    naive prefix scan would re-associate, changing low bits.  Instead
    the stream is split into *idle runs* (each batch starts at its own
    formation instant, so ``free = form + time`` elementwise) and *busy
    chains* (each batch starts when its predecessor frees the device,
    so frees are a cumsum with the chain's entry free prepended — the
    same strict left fold the scalar loop performs).  Idle-run extents
    are precomputable: once one batch idles, the next idles iff its
    formation is at or past ``form + time`` of the previous.  Busy-chain
    extents depend on computed frees: short chains (the common case
    under moderate load) step scalar — the identical left fold, hence
    the identical bits — and long chains escalate to geometrically
    doubling lookahead blocks, keeping work linear amortized.  Every
    emitted value is produced by the same IEEE
    operation on the same operands as the scalar loop, hence
    bit-identical.
    """
    count = int(form_s.size)
    fresh_free = form_s + time_s
    # Start from the all-idle answer; busy stretches overwrite in place.
    start_s = form_s.copy()
    free_s = fresh_free.copy()
    # Positions i where batch i+1 would couple to batch i *if* batch i
    # idle-started (then free[i] == fresh_free[i] exactly).
    couple_list = np.flatnonzero(form_s[1:] < fresh_free[:-1]).tolist()
    couple_count = len(couple_list)
    # Python-float copies for the scalar stepping below: float64 →
    # float is exact, and Python ``+`` is the same IEEE add.
    form_list = form_s.tolist()
    time_list = time_s.tolist()
    fresh_list = fresh_free.tolist()
    slot = 0
    cursor = 0
    carry = 0.0  # device-free instant before batch ``cursor``
    while cursor < count:
        if form_list[cursor] >= carry:
            # Idle run: the prefilled values are already correct for
            # this batch and every successor until the next coupling
            # point (the slot pointer advances monotonically).
            while slot < couple_count and couple_list[slot] < cursor:
                slot += 1
            stop = couple_list[slot] + 1 if slot < couple_count else count
            carry = fresh_list[stop - 1]
            cursor = stop
            continue
        # Busy chain: frees accumulate left to right from ``carry``.
        # Step the first stretch scalar; chains that outlast it switch
        # to vectorized lookahead blocks.
        limit = min(count, cursor + 64)
        while cursor < limit and form_list[cursor] < carry:
            start_s[cursor] = carry
            carry = carry + time_list[cursor]
            free_s[cursor] = carry
            cursor += 1
        if cursor == limit and cursor < count and form_list[cursor] < carry:
            block = 64
            while cursor < count:
                upper = min(count, cursor + block)
                chain = np.cumsum(
                    np.concatenate(((carry,), time_s[cursor:upper]))
                )
                prev_free = chain[:-1]
                breaks = np.flatnonzero(form_s[cursor:upper] >= prev_free)
                if breaks.size:
                    cut = int(breaks[0])
                    start_s[cursor : cursor + cut] = prev_free[:cut]
                    free_s[cursor : cursor + cut] = chain[1 : cut + 1]
                    carry = float(chain[cut])
                    cursor += cut
                    break
                start_s[cursor:upper] = prev_free
                free_s[cursor:upper] = chain[1:]
                carry = float(chain[-1])
                cursor = upper
                block *= 2
    return start_s, free_s


def latency_snapshot(seconds: np.ndarray) -> dict[str, Any]:
    """p50/p95/p99 summary of a latency column, in milliseconds."""
    histogram = LatencyHistogram()
    histogram.observe_many(seconds)
    return histogram.snapshot()


@dataclass(frozen=True)
class ServedTraffic:
    """One simulated serving run, columnar throughout.

    ``frame`` has one row per formed batch (its ``time_s`` is device
    time, so ``frame.total_time_s`` is total serving compute); the
    per-request columns hold the queueing story — ``latency_s`` is
    completion minus arrival, ``queue_wait_s`` is device-start minus
    arrival.  ``makespan_s`` is when the last batch finished.
    """

    frame: TraceFrame
    batches: tuple[FormedBatch, ...]
    arrival_s: np.ndarray
    queue_wait_s: np.ndarray
    latency_s: np.ndarray
    makespan_s: float

    def __len__(self) -> int:
        return int(self.arrival_s.size)

    def latency_percentiles(self) -> dict[str, Any]:
        return latency_snapshot(self.latency_s)

    def queue_wait_percentiles(self) -> dict[str, Any]:
        return latency_snapshot(self.queue_wait_s)


class TrafficSimulator:
    """Times formed batches of one model on one device."""

    def __init__(
        self,
        model: Model,
        dataset_name: str,
        policy: BatchingPolicy,
        device: GpuDevice,
        host_overhead_s: float = DEFAULT_SERVING_OVERHEAD_S,
    ):
        self.model = model
        self.dataset_name = dataset_name
        self.policy = policy
        self.device = device
        self.executor = IterationExecutor(model, device, host_overhead_s)

    def measure_seq_len(self, seq_len: int, tgt_len: int | None = None) -> float:
        """Forward latency of one full batch at ``seq_len``."""
        inputs = IterationInputs(
            batch=self.policy.batch_size, seq_len=seq_len, tgt_len=tgt_len
        )
        return self.executor.run_forward(inputs).time_s

    def serve(
        self,
        requests: RequestSet,
        arrival_s: np.ndarray,
        batches: FormedBatchList,
    ) -> ServedTraffic:
        """Run formed batches through the device FIFO.

        SeqPoint's Key Observation 4 applied to serving — formed
        batches collapse onto few unique ``(batch, seq_len, tgt_len)``
        shapes, so each shape is timed at most once (all missing shapes
        through one
        :meth:`~repro.train.iteration.IterationExecutor.run_unique`) and
        per-batch columns are gathered back by group index from the
        batcher's :class:`~repro.traffic.batcher.BatchColumns`.  Unique
        shapes are processed in first-appearance order, so the pool of
        the results' shared profiles is populated in batch order; the
        FIFO/latency columns come from :func:`_fifo_prefix`.  No batches
        give an empty frame and a zero makespan.
        """
        count = len(batches)
        columns = batches.columns
        sizes = columns.sizes
        seq_len = columns.seq_len
        tgt_len = columns.tgt_len
        form_s = columns.form_s
        members = columns.members
        # Group by unique shape via one packed int64 key — injective
        # because each field is bounded by its own base — instead of a
        # row-sorting ``np.unique(..., axis=0)``.
        tgt_shift = tgt_len + 1  # NO_TGT (-1) packs as 0
        seq_base = int(seq_len.max(initial=0)) + 1
        tgt_base = int(tgt_shift.max(initial=0)) + 1
        code = (sizes * seq_base + seq_len) * tgt_base + tgt_shift
        _, first_index, inverse = np.unique(
            code, return_index=True, return_inverse=True
        )
        # np.unique sorts; re-rank the unique ids by first appearance.
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        inverse = rank[inverse]
        first_index = first_index[order]
        inputs_seq = [
            IterationInputs(
                batch=batch, seq_len=seq, tgt_len=None if tgt == NO_TGT else tgt
            )
            for batch, seq, tgt in zip(
                sizes[first_index].tolist(),
                seq_len[first_index].tolist(),
                tgt_len[first_index].tolist(),
            )
        ]
        results = self.executor.run_unique(inputs_seq, "forward")
        unique_times = np.fromiter(
            (result.time_s for result in results), np.float64, len(results)
        )
        time_s = unique_times[inverse]
        # Dedup profiles per unique shape, not per batch; first-
        # appearance processing keeps pool insertion order (and with it
        # every profile id) what a batch-by-batch walk would give.
        pool: dict[tuple, int] = {}
        profiles: list[IterationProfile] = []
        unique_pid = np.empty(len(results), dtype=np.int64)
        for position, result in enumerate(results):
            profile = result.profile
            dedup_key = profile.dedup_key()
            pid = pool.get(dedup_key)
            if pid is None:
                pid = pool[dedup_key] = len(profiles)
                profiles.append(profile)
            unique_pid[position] = pid
        profile_id = unique_pid[inverse]
        start_s, free_s = _fifo_prefix(form_s, time_s)

        owner = np.repeat(np.arange(count, dtype=np.int64), sizes)
        arrival_s = np.asarray(arrival_s, dtype=np.float64)
        queue_wait = np.zeros(len(requests), dtype=np.float64)
        latency = np.zeros(len(requests), dtype=np.float64)
        queue_wait[members] = start_s[owner] - arrival_s[members]
        latency[members] = free_s[owner] - arrival_s[members]
        # Per-batch phase: segment-min over member phases (the
        # earliest-arriving member's, batches being non-empty).
        epoch = np.minimum.reduceat(
            requests.phase[members], columns.starts
        ).astype(np.int64)
        frame = TraceFrame(
            model_name=f"{self.model.name}-serving",
            dataset_name=self.dataset_name,
            config_name=self.device.config.name,
            batch_size=self.policy.batch_size,
            index=np.arange(count, dtype=np.int64),
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
            arrival_s=arrival_s,
            queue_wait_s=queue_wait,
            latency_s=latency,
            makespan_s=float(free_s[-1]) if count else 0.0,
        )
