"""Iteration execution: lower, time, and account one training iteration.

The executor memoises by iteration inputs: per Key Observation 4, two
iterations with the same padded lengths perform identical work, so a
whole epoch only pays lowering cost once per unique (seq_len, tgt_len)
pair — that is what makes full-epoch simulation cheap enough to treat
as ground truth.

Two measurement paths exist:

* the default **batched** path gets each shape's columnar
  :class:`~repro.models.plan.SchedulePlan` through the process-wide
  :data:`~repro.models.plan.PLAN_CACHE` (so equal shapes are lowered
  once per process, not once per executor, and a shape already lowered
  on another hardware config is resolved from its skeleton instead of
  lowered again) and times many shapes' plans with a few vectorized
  :meth:`~repro.hw.device.GpuDevice.run_batch` calls
  (:meth:`IterationExecutor.run_unique`);
* the **scalar** reference path (``batched=False``) walks the merged
  schedule invocation by invocation, exactly as before the columnar
  refactor.

Both produce bit-identical :class:`IterationResult`\\ s — the batched
reductions replay the scalar loop's left-to-right accumulation — which
tests/test_plan_equivalence.py asserts across models, shapes, hardware
configurations, and noise seeds.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hw.counters import CounterColumns, CounterSet
from repro.hw.device import GpuDevice
from repro.hw.timing import WorkBatch
from repro.models.plan import (
    PLAN_CACHE,
    SchedulePlan,
    compile_plan,
    resolve_plans,
)
from repro.models.schedule import KernelSchedule
from repro.models.spec import IterationInputs, Model
from repro.util.stats import sequential_sum

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


@dataclass(frozen=True)
class IterationResult:
    """Everything the trace records about one executed iteration."""

    time_s: float
    launches: int
    counters: CounterSet
    #: Kernel-group name -> device seconds (Fig 6 / Fig 8 distribution).
    group_times: dict[str, float]
    #: Distinct kernel variants launched (Fig 5 statistic).
    kernel_names: frozenset[str]
    #: GEMM problem shapes, for autotune accounting.
    gemm_shapes: tuple[tuple[int, int, int], ...]


class IterationExecutor:
    """Runs iterations of one model on one device."""

    def __init__(
        self,
        model: Model,
        device: GpuDevice,
        host_overhead_s: float = DEFAULT_HOST_OVERHEAD_S,
        batched: bool = True,
    ):
        if host_overhead_s < 0:
            raise ValueError("host_overhead_s cannot be negative")
        self.model = model
        self.device = device
        self.host_overhead_s = host_overhead_s
        self.batched = batched
        #: Pass kind ("train" or "forward") -> shape -> result.
        self._results: dict[
            str, dict[tuple[int, int, int | None], IterationResult]
        ] = {"train": {}, "forward": {}}

    def _key(self, inputs: IterationInputs) -> tuple[int, int, int | None]:
        return (inputs.batch, inputs.seq_len, inputs.tgt_len)

    def _lower(self, inputs: IterationInputs, kind: str) -> KernelSchedule:
        lower = (
            self.model.lower_iteration
            if kind == "train"
            else self.model.lower_forward
        )
        return lower(inputs, self.device.config)

    def _measure(self, schedule: KernelSchedule) -> IterationResult:
        """Scalar reference: per-invocation measurement and accumulation."""
        time_s = self.host_overhead_s
        launches = 0
        counters = CounterSet.zero()
        group_times: dict[str, float] = {}
        names: set[str] = set()
        for invocation, count in schedule.merged():
            measurement = self.device.run(invocation.work)
            time_s += measurement.time_s * count
            launches += count
            counters = counters + measurement.counters.scaled(count)
            group_times[invocation.group] = (
                group_times.get(invocation.group, 0.0)
                + measurement.time_s * count
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

    def _reduce_plan(
        self,
        plan: SchedulePlan,
        time_s: np.ndarray,
        counters: CounterColumns,
    ) -> IterationResult:
        """Fold one plan's per-kernel measurements into a result.

        Every reduction is a left fold in merged-entry order (via
        :func:`~repro.util.stats.sequential_sum`), replaying the scalar
        loop's accumulation bit for bit.
        """
        contrib = time_s * plan.counts
        group_times: dict[str, float] = {}
        for gid, group in enumerate(plan.groups):
            group_times[group] = sequential_sum(contrib[plan.group_id == gid])
        return IterationResult(
            time_s=sequential_sum(contrib, initial=self.host_overhead_s),
            launches=int(plan.counts.sum()),
            counters=counters.scaled(plan.counts).sum_sequential(),
            group_times=group_times,
            kernel_names=frozenset(plan.names),
            gemm_shapes=plan.gemm_shapes,
        )

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

    def _plans_for(
        self, inputs_seq: Sequence[IterationInputs], kind: str
    ) -> list[SchedulePlan]:
        """These shapes' compiled plans, through the process-wide cache.

        Hits cost one lookup each.  The misses whose shape has a
        skeleton (its plan on another config) are resolved from it
        together, racing all their GEMM problems as one array
        (:func:`~repro.models.plan.resolve_plans`); any other miss lowers
        and compiles.  The plan-store fingerprint is built only for a
        miss while a store is attached.
        """
        config = self.device.config
        model_key = self.model.plan_key()
        keys = [
            (model_key, kind, i.batch, i.seq_len, i.tgt_len, config)
            for i in inputs_seq
        ]
        plans = [PLAN_CACHE.get(key) for key in keys]
        misses = [index for index, plan in enumerate(plans) if plan is None]
        skeletons = {}
        for index in misses:
            skeleton = PLAN_CACHE.skeleton(keys[index])
            if skeleton is not None:
                skeletons[index] = skeleton
        resolved = dict(
            zip(skeletons, resolve_plans(list(skeletons.values()), config))
        )
        for index in misses:
            inputs = inputs_seq[index]
            if index in resolved:
                build = lambda plan=resolved[index]: plan
            else:
                build = lambda inputs=inputs: compile_plan(self._lower(inputs, kind))
            fingerprint = None
            if PLAN_CACHE.store is not None:
                fingerprint = self._fingerprint(inputs, kind)
            plans[index] = PLAN_CACHE.get_or_compile(
                keys[index], build, fingerprint=fingerprint
            )
        return plans

    def _time_plans(self, plans: Sequence[SchedulePlan]) -> list[IterationResult]:
        """Time plans with few device calls, one result per plan.

        Consecutive plans are stacked with
        :meth:`~repro.hw.timing.WorkBatch.concat` up to
        :data:`_MAX_BATCH_ROWS` rows per
        :meth:`~repro.hw.device.GpuDevice.run_batch` call (a larger plan
        gets a call of its own).  The timing engine is purely row-wise
        and each reduction folds exactly its plan's rows, so every
        result is bit-identical to timing its plan alone.
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
            measurement = self.device.run_batch(work)
            offset = 0
            for plan in chunk:
                upper = offset + len(plan)
                results.append(
                    self._reduce_plan(
                        plan,
                        measurement.time_s[offset:upper],
                        measurement.counters.rows(offset, upper),
                    )
                )
                offset = upper
        return results

    def run_unique(
        self, inputs_seq: Sequence[IterationInputs], kind: str = "train"
    ) -> list[IterationResult]:
        """Results of many shapes of one pass kind, in input order.

        ``kind`` is ``"train"`` (:meth:`run`) or ``"forward"``
        (:meth:`run_forward`).  The entry point for whole epochs,
        evaluation passes and serving: every shape missing from this
        executor's memo (first appearance order) gets its plan from
        :meth:`_plans_for` and is timed by :meth:`_time_plans`.  Repeats
        map back to their shape's one result.  The scalar reference
        path (``batched=False``) lowers and measures shape by shape.
        """
        results = self._results[kind]
        missing: dict[tuple[int, int, int | None], IterationInputs] = {}
        for inputs in inputs_seq:
            key = self._key(inputs)
            if key not in results:
                missing.setdefault(key, inputs)
        if missing and not self.batched:
            for key, inputs in missing.items():
                results[key] = self._measure(self._lower(inputs, kind))
        elif missing:
            plans = self._plans_for(list(missing.values()), kind)
            results.update(zip(missing, self._time_plans(plans)))
        return [results[self._key(inputs)] for inputs in inputs_seq]

    def run(self, inputs: IterationInputs) -> IterationResult:
        """One full training iteration (forward + backward + update)."""
        result = self._results["train"].get(self._key(inputs))
        if result is None:
            (result,) = self.run_unique((inputs,), "train")
        return result

    def run_forward(self, inputs: IterationInputs) -> IterationResult:
        """One forward-only (evaluation) pass."""
        result = self._results["forward"].get(self._key(inputs))
        if result is None:
            (result,) = self.run_unique((inputs,), "forward")
        return result
