"""Unit tests for repro.hw.compute."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.compute import ComputeProfile, compute_time_batch, parallel_efficiency_batch
from repro.hw.config import paper_config
from tests.conftest import one_row
from tests.reference import workgroups


def big_kernel(flops: float = 1e12) -> ComputeProfile:
    return ComputeProfile(flops=flops, work_items=1 << 22, issue_efficiency=1.0)


class TestComputeTime:
    def test_zero_flops_is_free(self):
        profile = ComputeProfile(flops=0.0, work_items=64)
        assert one_row(compute_time_batch, profile, paper_config(1)) == 0.0

    def test_big_kernel_near_peak(self):
        config = paper_config(1)
        elapsed = one_row(compute_time_batch, big_kernel(), config)
        assert elapsed == pytest.approx(1e12 / config.peak_flops, rel=0.05)

    def test_halved_clock_doubles_time(self):
        slow = one_row(compute_time_batch, big_kernel(), paper_config(2))
        fast = one_row(compute_time_batch, big_kernel(), paper_config(1))
        assert slow / fast == pytest.approx(1.6e9 / 852e6, rel=0.01)

    def test_quartered_cus_quadruple_time(self):
        few = one_row(compute_time_batch, big_kernel(), paper_config(3))
        many = one_row(compute_time_batch, big_kernel(), paper_config(1))
        assert few / many == pytest.approx(4.0, rel=0.05)


class TestParallelEfficiency:
    def test_tiny_kernel_cannot_fill_machine(self):
        tiny = ComputeProfile(flops=1e6, work_items=64)
        assert one_row(parallel_efficiency_batch, tiny, paper_config(1)) < 0.05

    def test_huge_kernel_fills_machine(self):
        efficiency = one_row(parallel_efficiency_batch, big_kernel(), paper_config(1))
        assert efficiency == pytest.approx(1.0)

    def test_small_kernel_better_on_smaller_machine(self):
        # 16 workgroups fill 16 CUs but leave 64 CUs mostly idle.
        profile = ComputeProfile(flops=1e9, work_items=16 * 256)
        eff_64 = one_row(parallel_efficiency_batch, profile, paper_config(1))
        eff_16 = one_row(parallel_efficiency_batch, profile, paper_config(3))
        assert eff_16 > eff_64

    def test_tail_effect(self):
        # 65 workgroups on 64 CUs: second round nearly empty.
        profile = ComputeProfile(flops=1e9, work_items=65 * 256)
        full = ComputeProfile(flops=1e9, work_items=64 * 256)
        assert one_row(parallel_efficiency_batch, profile, paper_config(1)) < one_row(
            parallel_efficiency_batch, full, paper_config(1)
        )

    def test_efficiency_bounded(self):
        for work_items in (64, 1 << 12, 1 << 22):
            profile = ComputeProfile(flops=1e9, work_items=work_items)
            assert 0.0 < one_row(parallel_efficiency_batch, profile, paper_config(1)) <= 1.0


class TestValidation:
    def test_negative_flops_rejected(self):
        with pytest.raises(ConfigurationError):
            ComputeProfile(flops=-1.0, work_items=64)

    def test_zero_work_items_rejected(self):
        with pytest.raises(ConfigurationError):
            ComputeProfile(flops=1.0, work_items=0)

    def test_issue_efficiency_range(self):
        with pytest.raises(ConfigurationError):
            ComputeProfile(flops=1.0, work_items=64, issue_efficiency=1.2)

    def test_workgroups_rounded_up(self):
        profile = ComputeProfile(flops=1.0, work_items=257, workgroup_size=256)
        assert workgroups(profile) == 2
