"""Iteration execution: lower, time, and account one training iteration.

Per Key Observation 4, two iterations with the same padded lengths
perform identical work, so a shape is lowered and timed once per
process — that is what makes full-epoch simulation cheap enough to
treat as ground truth.  The process-wide
:data:`~repro.models.plan.PLAN_CACHE` holds each shape's columnar
:class:`~repro.models.plan.SchedulePlan` (lowered once with no hardware
config, and resolved onto each config from a skeleton) and, beside it,
the shape's timed :class:`IterationResult`, shared by every executor
over the same model, config and host overhead.  Results and their
profiles are read-only shared values, like plans.  Many shapes' plans
are timed with a few vectorized
:meth:`~repro.hw.device.GpuDevice.run_batch` calls
(:meth:`IterationExecutor.run_unique`), and each call's measurements
are folded into all its plans' results in one pass
(:meth:`IterationExecutor._fold`).

Every fold is a strict left-to-right accumulation, so each
:class:`IterationResult` equals the per-invocation loop that walks the
merged schedule kernel by kernel.  That loop lives on as test code
(``tests/reference.py``), and tests/test_plan_equivalence.py compares
the executor against it across models, shapes, hardware
configurations and noise seeds (tests/test_properties_fold.py checks
the fold against an explicit per-plan loop).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.hw.counters import COUNTER_FIELDS, CounterSet
from repro.hw.config import HardwareConfig
from repro.hw.device import BatchMeasurement, GpuDevice
from repro.hw.timing import WorkBatch
from repro.models.plan import (
    PLAN_CACHE,
    SchedulePlan,
    compile_plan,
    resolve_plans,
)
from repro.models.schedule import KernelSchedule
from repro.models.spec import IterationInputs, Model
from repro.train.frame import IterationProfile

__all__ = ["IterationExecutor", "IterationResult"]

#: Host-side framework overhead per iteration: input pipeline, session
#: dispatch, optimizer bookkeeping.  Fixed per iteration and hardware-
#: independent, so it dilutes device-side speedups for short sequences —
#: the reason per-SL sensitivity curves (paper Figs 13/14) rise with SL.
#: 25 ms matches TF1.x-era step overheads on these networks.
DEFAULT_HOST_OVERHEAD_S = 25e-3

#: Kernel rows per device call when many plans are timed together: a
#: paper-scale epoch has ~11k rows, and one call over all of them
#: allocates its temporaries at full size, while a few calls per epoch
#: already amortise the per-call overhead.
_MAX_BATCH_ROWS = 2048


def _segment_folds(
    segment: np.ndarray,
    sizes: np.ndarray,
    values: np.ndarray,
    initial: np.ndarray,
) -> np.ndarray:
    """Left folds of ``values`` (fields x rows) over row segments.

    Rows are grouped by ``segment`` (ascending; ``sizes[s]`` rows in
    segment ``s``, possibly none).  Each field's segments fill a
    zero-padded segments x (max size + 1) matrix, one segment per row
    with ``initial[field]`` in column 0, and one ``np.cumsum`` along the
    rows accumulates every segment left to right:
    ``((initial + v0) + v1) + ...`` read at the segment's last column.
    The padding is never read.  Returns fields x segments.
    """
    starts = np.cumsum(sizes) - sizes
    position = np.arange(1, segment.size + 1) - starts[segment]
    cells = np.zeros((len(initial), sizes.size, int(sizes.max(initial=0)) + 1))
    cells[:, :, 0] = initial[:, None]
    cells[:, segment, position] = values
    np.cumsum(cells, axis=2, out=cells)
    return cells[:, np.arange(sizes.size), sizes]


@dataclass(frozen=True)
class IterationResult:
    """Everything the trace records about one executed iteration.

    Shared process-wide (:meth:`~repro.models.plan.PlanCache.results`),
    so read-only, dicts included.
    """

    time_s: float
    launches: int
    counters: CounterSet
    #: Kernel-group name -> device seconds (Fig 6 / Fig 8 distribution).
    group_times: dict[str, float]
    #: Distinct kernel variants launched (Fig 5 statistic).
    kernel_names: frozenset[str]
    #: GEMM problem shapes, for autotune accounting.
    gemm_shapes: tuple[tuple[int, int, int], ...]

    @cached_property
    def profile(self) -> IterationProfile:
        """The shape's frame profile, built once and shared by every
        frame of the shape; it holds this result's dict and name set."""
        return IterationProfile(
            launches=self.launches,
            counters=self.counters,
            group_times=self.group_times,
            kernel_names=self.kernel_names,
        )


class IterationExecutor:
    """Runs iterations of one model on one device."""

    def __init__(
        self,
        model: Model,
        device: GpuDevice,
        host_overhead_s: float = DEFAULT_HOST_OVERHEAD_S,
    ):
        if host_overhead_s < 0:
            raise ValueError("host_overhead_s cannot be negative")
        self.model = model
        self.device = device
        self.host_overhead_s = host_overhead_s

    def _key(self, inputs: IterationInputs) -> tuple[int, int, int | None]:
        return (inputs.batch, inputs.seq_len, inputs.tgt_len)

    @cached_property
    def _memo_keys(self) -> dict[str, tuple]:
        """Pass kind -> this executor's key into the result memo."""
        model_key = self.model.plan_key()
        config, overhead = self.device.config, self.host_overhead_s
        return {kind: (model_key, kind, config, overhead) for kind in ("train", "forward")}

    def _memo(self, kind: str) -> dict[tuple[int, int, int | None], IterationResult]:
        """Shape -> result, looked up on each call so that a live
        executor honours ``PLAN_CACHE.clear()``."""
        return PLAN_CACHE.results(self._memo_keys[kind])

    def _lower(
        self, inputs: IterationInputs, kind: str, config: HardwareConfig | None
    ) -> KernelSchedule:
        lower = (
            self.model.lower_iteration
            if kind == "train"
            else self.model.lower_forward
        )
        return lower(inputs, config)

    def _build(
        self,
        inputs: IterationInputs,
        kind: str,
        skeleton: SchedulePlan | None,
    ) -> SchedulePlan:
        """One shape's plan on this executor's config, from ``skeleton``
        (its plan on another config) or else from its config-free
        lowering.  A skeleton holding a GEMM outside
        :func:`~repro.kernels.gemm.race_exact` (``gemm_rows is None``)
        cannot be resolved, so that shape is lowered with the config,
        the only lowering in :meth:`plans_for` that takes one."""
        if skeleton is None:
            skeleton = compile_plan(self._lower(inputs, kind, None))
        if skeleton.gemm_rows is None:
            return compile_plan(self._lower(inputs, kind, self.device.config))
        return resolve_plans([skeleton], self.device.config)[0]

    def _fingerprint(self, inputs: IterationInputs, kind: str) -> dict | None:
        """The cross-process plan-store key of one plan, or ``None``.

        Models exposing a structural :meth:`plan_fingerprint` qualify
        for the store: the fingerprint extends the model identity with
        everything else lowering depends on — pass kind, padded shape,
        and the hardware configuration.
        """
        model_fingerprint = self.model.plan_fingerprint()
        if model_fingerprint is None:
            return None
        return {
            "model": model_fingerprint,
            "kind": kind,
            "batch": inputs.batch,
            "seq_len": inputs.seq_len,
            "tgt_len": inputs.tgt_len,
            "config": dataclasses.asdict(self.device.config),
        }

    def plans_for(
        self, inputs_seq: Sequence[IterationInputs], kind: str
    ) -> list[SchedulePlan]:
        """These shapes' compiled plans, through the process-wide cache.

        Hits cost one lookup each.  A miss takes its shape's skeleton,
        the shape's plan on another config, or else lowers the shape
        once with no config (:meth:`_build`).  Misses are resolved onto
        this config in chunks of at most :data:`_MAX_BATCH_ROWS` kernel
        rows, racing each chunk's GEMM problems as one array
        (:func:`~repro.models.plan.resolve_plans`); a chunk's
        config-free plans are dropped once it is resolved.

        With a plan store attached and a model that has a fingerprint,
        each miss builds its one shape inside the store's per-key lock
        (:meth:`~repro.models.plan.PlanCache.get_or_compile`), so a plan
        the store holds loads with no lowering and a missing one is
        lowered once machine-wide.  The fingerprint is built only for
        such a miss.
        """
        config = self.device.config
        model_key = self.model.plan_key()
        keys = [
            (model_key, kind, i.batch, i.seq_len, i.tgt_len, config)
            for i in inputs_seq
        ]
        plans = [PLAN_CACHE.get(key) for key in keys]
        misses = [index for index, plan in enumerate(plans) if plan is None]
        if not misses:
            return plans
        if PLAN_CACHE.store is not None and self.model.plan_fingerprint() is not None:
            for index in misses:
                inputs = inputs_seq[index]
                skeleton = PLAN_CACHE.skeleton(keys[index])
                plans[index] = PLAN_CACHE.get_or_compile(
                    keys[index],
                    lambda inputs=inputs, skeleton=skeleton: self._build(
                        inputs, kind, skeleton
                    ),
                    fingerprint=self._fingerprint(inputs, kind),
                )
            return plans

        chunk: list[tuple[int, SchedulePlan]] = []
        rows = 0
        for index in misses:
            inputs = inputs_seq[index]
            skeleton = PLAN_CACHE.skeleton(keys[index])
            if skeleton is None:
                skeleton = compile_plan(self._lower(inputs, kind, None))
            if skeleton.gemm_rows is None:
                plans[index] = PLAN_CACHE.get_or_compile(
                    keys[index],
                    lambda inputs=inputs, skeleton=skeleton: self._build(
                        inputs, kind, skeleton
                    ),
                )
                continue
            if chunk and rows + len(skeleton) > _MAX_BATCH_ROWS:
                self._resolve_into(plans, keys, chunk)
                chunk, rows = [], 0
            chunk.append((index, skeleton))
            rows += len(skeleton)
        self._resolve_into(plans, keys, chunk)
        return plans

    def _resolve_into(
        self,
        plans: list[SchedulePlan | None],
        keys: list[tuple],
        chunk: list[tuple[int, SchedulePlan]],
    ) -> None:
        """Resolve a chunk of ``(index, skeleton)`` misses onto this
        config with one race, caching each plan at ``plans[index]``."""
        resolved = resolve_plans(
            [skeleton for _, skeleton in chunk], self.device.config
        )
        for (index, _), plan in zip(chunk, resolved):
            plans[index] = PLAN_CACHE.get_or_compile(
                keys[index], lambda plan=plan: plan
            )

    def _time_plans(self, plans: Sequence[SchedulePlan]) -> list[IterationResult]:
        """Time plans with few device calls, one result per plan.

        Consecutive plans are stacked with
        :meth:`~repro.hw.timing.WorkBatch.concat` up to
        :data:`_MAX_BATCH_ROWS` rows per
        :meth:`~repro.hw.device.GpuDevice.run_batch` call (a larger plan
        gets a call of its own), and each call's measurements are folded
        once (:meth:`_fold`).  The timing engine is purely row-wise and
        each fold reads exactly its plan's rows, so every result is
        bit-identical to timing its plan alone.
        """
        chunks: list[list[SchedulePlan]] = []
        rows = 0
        for plan in plans:
            if not chunks or rows + len(plan) > _MAX_BATCH_ROWS:
                chunks.append([])
                rows = 0
            chunks[-1].append(plan)
            rows += len(plan)
        results = []
        for chunk in chunks:
            work = (
                chunk[0].work
                if len(chunk) == 1
                else WorkBatch.concat([plan.work for plan in chunk])
            )
            results.extend(self._fold(chunk, self.device.run_batch(work)))
        return results

    def _fold(
        self, plans: Sequence[SchedulePlan], measurement: BatchMeasurement
    ) -> list[IterationResult]:
        """One device call's measurements, folded into one result per plan.

        :func:`_segment_folds` runs every plan's left folds at once, in
        merged-entry order, so each total is the scalar loop's
        accumulation bit for bit.  Time (from ``host_overhead_s``) and
        the six counters (from ``-0.0``, the exact additive identity, so
        a counter fold starts at its first row) fold per plan; group
        times fold per (plan, group) from 0.0, after a stable sort that
        keeps each group's rows in merged order.
        """
        count = len(plans)
        lengths = np.fromiter(map(len, plans), np.int64, count)
        groups = np.fromiter((len(plan.groups) for plan in plans), np.int64, count)
        counts = np.concatenate([plan.counts for plan in plans])
        group_id = np.concatenate([plan.group_id for plan in plans])
        plan_row = np.repeat(np.arange(count), lengths)
        columns = [measurement.time_s] + [
            getattr(measurement.counters, name) for name in COUNTER_FIELDS
        ]
        values = np.stack(columns)
        values *= counts
        initial = np.full(len(columns), -0.0)
        initial[0] = self.host_overhead_s
        totals = _segment_folds(plan_row, lengths, values, initial)
        times = totals[0].tolist()
        counters = totals[1:].T.tolist()
        launches = np.bincount(plan_row, weights=counts, minlength=count).tolist()

        group_base = np.cumsum(groups) - groups
        segment = group_base[plan_row] + group_id
        order = np.argsort(segment, kind="stable")
        segment = segment[order]
        group_times = _segment_folds(
            segment,
            np.bincount(segment, minlength=int(groups.sum())),
            values[:1, order],
            np.zeros(1),
        )[0].tolist()

        results = []
        for index, (plan, base) in enumerate(zip(plans, group_base.tolist())):
            results.append(
                IterationResult(
                    time_s=times[index],
                    launches=int(launches[index]),
                    counters=CounterSet(*counters[index]),
                    group_times=dict(
                        zip(plan.groups, group_times[base : base + len(plan.groups)])
                    ),
                    kernel_names=PLAN_CACHE.intern_names(frozenset(plan.names)),
                    gemm_shapes=plan.gemm_shapes,
                )
            )
        return results

    def run_unique(
        self, inputs_seq: Sequence[IterationInputs], kind: str = "train"
    ) -> list[IterationResult]:
        """Results of many shapes of one pass kind, in input order.

        ``kind`` is ``"train"`` (:meth:`run`) or ``"forward"``
        (:meth:`run_forward`).  The entry point for whole epochs,
        evaluation passes and serving: every shape missing from the
        process-wide result memo (first appearance order) gets its plan
        from :meth:`plans_for` and is timed by :meth:`_time_plans`.
        Repeats map back to their shape's one result.
        """
        results = self._memo(kind)
        missing: dict[tuple[int, int, int | None], IterationInputs] = {}
        for inputs in inputs_seq:
            key = self._key(inputs)
            if key not in results:
                missing.setdefault(key, inputs)
        if missing:
            plans = self.plans_for(list(missing.values()), kind)
            results.update(zip(missing, self._time_plans(plans)))
        return [results[self._key(inputs)] for inputs in inputs_seq]

    def run(self, inputs: IterationInputs) -> IterationResult:
        """One full training iteration (forward + backward + update)."""
        result = self._memo("train").get(self._key(inputs))
        if result is None:
            (result,) = self.run_unique((inputs,), "train")
        return result

    def run_forward(self, inputs: IterationInputs) -> IterationResult:
        """One forward-only (evaluation) pass."""
        result = self._memo("forward").get(self._key(inputs))
        if result is None:
            (result,) = self.run_unique((inputs,), "forward")
        return result
