"""Unit tests for repro.models.plan (SchedulePlan + PlanCache)."""

import numpy as np
import pytest

from repro.hw.config import paper_config
from repro.kernels.elementwise import elementwise
from repro.kernels.gemm import gemm
from repro.models.plan import PLAN_CACHE, PlanCache, compile_plan
from repro.models.schedule import KernelSchedule
from tests.reference import work_row


def sample_schedule(config=None) -> KernelSchedule:
    config = config or paper_config(1)
    schedule = KernelSchedule()
    schedule.add(gemm(256, 512, 128, config, group="GEMM-1"), 10)
    schedule.add(elementwise("tanh", 1 << 16, group="scalar-op"), 10)
    schedule.add(gemm(256, 512, 128, config, group="GEMM-1"), 5)
    schedule.add(gemm(64, 64, 64, config, group="GEMM-2"), 1)
    return schedule


class TestCompilePlan:
    def test_rows_match_merged_schedule(self):
        schedule = sample_schedule()
        plan = compile_plan(schedule)
        merged = list(schedule.merged())
        assert len(plan) == len(merged)
        for row, (invocation, count) in enumerate(merged):
            assert plan.counts[row] == count
            assert plan.groups[plan.group_id[row]] == invocation.group
            assert plan.names[plan.name_id[row]] == invocation.name
            assert work_row(plan.work, row) == invocation.work

    def test_string_tables_intern_first_appearance_order(self):
        plan = compile_plan(sample_schedule())
        assert plan.groups == ("GEMM-1", "scalar-op", "GEMM-2")
        assert len(plan.names) == len(set(plan.names))

    def test_gemm_shapes_launch_order_unmerged(self):
        schedule = sample_schedule()
        plan = compile_plan(schedule)
        assert plan.gemm_shapes == tuple(schedule.gemm_shapes())
        # Unmerged: the repeated GEMM appears twice, in launch order.
        assert plan.gemm_shapes == (
            (256, 512, 128), (256, 512, 128), (64, 64, 64),
        )

    def test_aggregates_match_schedule(self):
        schedule = sample_schedule()
        plan = compile_plan(schedule)
        assert plan.launch_count == schedule.launch_count
        assert plan.total_flops == pytest.approx(schedule.total_flops)

    def test_equal_but_distinct_invocations_coalesce(self):
        """Distinct objects that compare equal must merge, exactly like
        KernelSchedule.merged() — the identity pre-merge is only a fast
        path."""
        from repro.kernels.base import make_invocation

        def fresh():
            make_invocation.cache_clear()
            return make_invocation(
                name="k", op="x", group="g", shape=(4,),
                flops=16.0, work_items=64, read_bytes=256.0,
                write_bytes=256.0, issue_efficiency=0.5,
            )

        first, second = fresh(), fresh()
        assert first is not second and first == second
        schedule = KernelSchedule([(first, 3), (second, 4)])
        plan = compile_plan(schedule)
        assert len(plan) == 1
        assert plan.counts[0] == 7

    def test_empty_schedule_compiles(self):
        plan = compile_plan(KernelSchedule())
        assert len(plan) == 0
        assert plan.launch_count == 0
        assert plan.gemm_shapes == ()
        assert plan.groups == ()

    def test_schedule_compiled_method(self):
        schedule = sample_schedule()
        plan = schedule.compiled()
        assert len(plan) == len(schedule.merged())

    def test_columns_are_int64(self):
        plan = compile_plan(sample_schedule())
        assert plan.counts.dtype == np.int64
        assert plan.group_id.dtype == np.int64
        assert plan.name_id.dtype == np.int64


class TestPlanCache:
    def test_miss_then_hit_same_object(self):
        cache = PlanCache()
        built = []

        def build():
            built.append(1)
            return compile_plan(sample_schedule())

        key = ("model", "train", 64, 100, None, "config")
        first = cache.get_or_compile(key, build)
        second = cache.get_or_compile(key, build)
        assert first is second
        assert built == [1]
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_clear_resets(self):
        cache = PlanCache()
        cache.get_or_compile(("k",), lambda: compile_plan(KernelSchedule()))
        cache.clear()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}
        assert len(cache) == 0

    def test_process_wide_cache_exists(self):
        assert isinstance(PLAN_CACHE, PlanCache)
