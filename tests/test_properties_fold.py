"""Property-based tests (hypothesis): the per-call fold == a per-plan loop.

:meth:`IterationExecutor._time_plans` folds every plan of a device call
at once (padded matrices, one ``cumsum`` each).  Here it runs against a
stub device on drawn plans, and every total must equal, bit for bit,
the per-plan left folds below.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.counters import COUNTER_FIELDS, CounterColumns
from repro.hw.device import BatchMeasurement
from repro.hw.timing import WorkBatch
from repro.models.plan import SchedulePlan
from repro.train.iteration import _MAX_BATCH_ROWS, IterationExecutor


class RowDevice:
    """Returns drawn per-row measurements; ``work.flops`` holds row ids."""

    def __init__(self, time_s: np.ndarray, counters: dict[str, np.ndarray]):
        self.time_s = time_s
        self.counters = counters
        self.calls: list[np.ndarray] = []

    def run_batch(self, work: WorkBatch) -> BatchMeasurement:
        ids = work.flops.astype(np.int64)
        self.calls.append(ids)
        return BatchMeasurement(
            time_s=self.time_s[ids],
            breakdown=None,
            counters=CounterColumns(
                **{name: column[ids] for name, column in self.counters.items()}
            ),
        )


def make_plan(first_row: int, counts, group_id, groups: int) -> SchedulePlan:
    rows = len(counts)
    columns = {field.name: np.zeros(rows) for field in dataclasses.fields(WorkBatch)}
    columns["flops"] = np.arange(first_row, first_row + rows, dtype=np.float64)
    return SchedulePlan(
        work=WorkBatch(**columns),
        counts=np.asarray(counts, dtype=np.int64),
        group_id=np.asarray(group_id, dtype=np.int64),
        name_id=np.zeros(rows, dtype=np.int64),
        groups=tuple(f"group{g}" for g in range(groups)),
        names=(f"kernel{first_row}",),
        gemm_shapes=((first_row, rows, groups),),
    )


def left_fold(values: np.ndarray, initial: float) -> float:
    total = initial
    for value in values.tolist():
        total += value
    return total


def reference_result(plan: SchedulePlan, time_s, counters, host_overhead_s):
    """The per-plan reduction the fold replaced, as explicit loops.

    Time folds from the host overhead, each group from 0.0 and each
    counter from its first row.
    """
    contrib = time_s * plan.counts
    group_times = {
        group: left_fold(contrib[plan.group_id == gid], 0.0)
        for gid, group in enumerate(plan.groups)
    }
    folded = {}
    for name, column in counters.items():
        scaled = column * plan.counts
        folded[name] = left_fold(scaled[1:], float(scaled[0]))
    return (
        left_fold(contrib, host_overhead_s),
        int(plan.counts.sum()),
        folded,
        group_times,
    )


def bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


@st.composite
def plan_layouts(draw):
    """Plan shapes as (rows, groups), some one-row, at most one longer
    than the row cap, plus a seed for the values."""
    short = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=8,
        )
    )
    long_at = draw(st.none() | st.integers(min_value=0, max_value=len(short)))
    layout = list(short)
    if long_at is not None:
        layout.insert(long_at, (_MAX_BATCH_ROWS + draw(st.integers(1, 40)), 3))
    return layout, draw(st.integers(min_value=0, max_value=2**32 - 1))


@given(plan_layouts(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_fold_matches_per_plan_left_folds(case, host_overhead_s):
    layout, seed = case
    rng = np.random.default_rng(seed)
    plans = []
    first_row = 0
    for rows, groups in layout:
        # Group ids interleave freely; an id that never occurs leaves
        # an empty group, which folds to 0.0.
        plans.append(
            make_plan(
                first_row,
                rng.integers(1, 1000, rows),
                rng.integers(0, groups, rows),
                groups,
            )
        )
        first_row += rows

    def awkward(size):
        # Magnitudes spanning 21 decades, plus zeros of both signs: a
        # pairwise or reordered sum rounds differently from a left fold
        # here, and a fold's initial value shows on a leading -0.0.
        values = rng.uniform(0.5, 1.0, size) * 10.0 ** rng.integers(-9, 12, size)
        zeros = rng.random(size) < 0.1
        values[zeros] = np.copysign(0.0, rng.random(zeros.sum()) - 0.5)
        return values

    time_s = awkward(first_row)
    counters = {name: awkward(first_row) for name in COUNTER_FIELDS}
    device = RowDevice(time_s, counters)
    executor = IterationExecutor(None, device, host_overhead_s=host_overhead_s)
    results = executor._time_plans(plans)

    assert len(results) == len(plans)
    offset = 0
    for plan, result in zip(plans, results):
        rows = slice(offset, offset + len(plan))
        offset += len(plan)
        time_total, launches, folded, group_times = reference_result(
            plan,
            time_s[rows],
            {name: column[rows] for name, column in counters.items()},
            host_overhead_s,
        )
        assert bits(result.time_s) == bits(time_total)
        assert result.launches == launches
        for name in COUNTER_FIELDS:
            assert bits(getattr(result.counters, name)) == bits(folded[name])
        assert list(result.group_times) == list(plan.groups)
        for group, value in group_times.items():
            assert bits(result.group_times[group]) == bits(value)
        assert result.kernel_names == frozenset(plan.names)
        assert result.gemm_shapes is plan.gemm_shapes

    # Calls stack consecutive plans up to the row cap; a longer plan
    # gets a call of its own.
    assert np.array_equal(np.concatenate(device.calls), np.arange(first_row))
    for ids in device.calls:
        assert len(ids) <= _MAX_BATCH_ROWS or any(
            len(plan) == len(ids) and plan.work.flops[0] == ids[0] for plan in plans
        )
