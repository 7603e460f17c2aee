"""Unit tests for repro.profiling.profiler."""

import pytest

from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.ds2 import build_ds2
from repro.models.gnmt import build_gnmt
from repro.models.plan import PLAN_CACHE
from repro.models.spec import IterationInputs
from repro.profiling.profiler import Profiler
from repro.train.iteration import IterationExecutor
from tests.conftest import CountingDevice


class TestProfiler:
    def test_profile_matches_execution_time(self, device1):
        model = build_ds2()
        profiler = Profiler(model, device1)
        executor = IterationExecutor(model, device1, host_overhead_s=0.0)
        inputs = IterationInputs(64, 300)
        profiled = profiler.profile_iteration(inputs)
        executed = executor.run(inputs)
        assert profiled.time_s == executed.time_s

    @pytest.mark.parametrize("config_index", (1, 4))
    @pytest.mark.parametrize(
        ("build", "inputs"),
        [(build_ds2, IterationInputs(64, 300)), (build_gnmt, IterationInputs(64, 37, 41))],
        ids=["ds2", "gnmt"],
    )
    def test_profile_is_the_executors_plan(self, build, inputs, config_index):
        """A profile equals the executor's result for its shape, and
        reads the plan the executor compiled from the plan cache."""
        model = build()
        device = GpuDevice(paper_config(config_index))
        executed = IterationExecutor(model, device, host_overhead_s=0.0).run(inputs)
        before = PLAN_CACHE.stats()
        profiled = Profiler(model, device).profile_iteration(inputs)
        after = PLAN_CACHE.stats()
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert profiled.time_s == executed.time_s
        assert profiled.counters == executed.counters
        assert profiled.profile.total_launches == executed.launches
        assert profiled.profile.unique_kernel_names() == executed.kernel_names

    def test_profile_covers_all_launches(self, device1):
        profiler = Profiler(build_ds2(), device1)
        profiled = profiler.profile_seq_len(200, batch=64)
        executor = IterationExecutor(build_ds2(), device1)
        assert profiled.profile.total_launches == executor.run(
            IterationInputs(64, 200)
        ).launches

    def test_mean_counters_per_kernel(self, device1):
        profiler = Profiler(build_ds2(), device1)
        means = profiler.profile_seq_len(200, batch=64).mean_counters_per_kernel()
        assert means["valu_insts"] > 0
        assert means["busy_cycles"] > 0

    def test_profiling_cost_applies_overhead(self, device1):
        profiler = Profiler(build_ds2(), device1, overhead_multiplier=10.0)
        profiles = [profiler.profile_seq_len(100, batch=64)]
        assert profiler.profiling_cost_s(profiles) == pytest.approx(
            profiles[0].time_s * 10.0
        )

    def test_overhead_below_one_rejected(self, device1):
        with pytest.raises(ValueError):
            Profiler(build_ds2(), device1, overhead_multiplier=0.5)

    def test_repeat_shape_is_profiled_once(self):
        """A second request for a shape re-times nothing and returns the
        one shared profile, equal to a fresh profiler's."""
        model = build_gnmt()
        inputs = IterationInputs(16, 21, 19)
        device = CountingDevice(paper_config(2))
        profiler = Profiler(model, device)
        first = profiler.profile_iteration(inputs)
        timed = device.batches
        again = profiler.profile_seq_len(21, batch=16, tgt_len=19)
        assert device.batches == timed
        assert again is first
        fresh = Profiler(model, GpuDevice(paper_config(2))).profile_iteration(inputs)
        assert fresh is not first
        assert fresh.time_s == first.time_s
        assert fresh.counters == first.counters
        assert fresh.profile == first.profile
