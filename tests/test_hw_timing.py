"""Unit tests for repro.hw.timing."""

import pytest

from repro.hw.cache import TrafficProfile
from repro.hw.compute import ComputeProfile
from repro.hw.config import paper_config
from repro.hw.timing import WorkProfile, time_work_batch
from repro.util.units import KIB, MIB
from tests.conftest import one_row


def compute_bound() -> WorkProfile:
    """Huge FLOP count, tiny traffic."""
    return WorkProfile(
        compute=ComputeProfile(flops=1e12, work_items=1 << 22),
        traffic=TrafficProfile(read_bytes=1e6, write_bytes=1e5),
    )


def memory_bound() -> WorkProfile:
    """Streaming kernel: no reuse, heavy traffic."""
    return WorkProfile(
        compute=ComputeProfile(flops=1e8, work_items=1 << 22),
        traffic=TrafficProfile(read_bytes=2e9, write_bytes=5e8),
    )


def latency_bound() -> WorkProfile:
    """Small, poorly parallel kernel with cache-resident reads."""
    return WorkProfile(
        compute=ComputeProfile(flops=1e6, work_items=2048),
        traffic=TrafficProfile(
            read_bytes=5e6, write_bytes=1e5,
            l1_reuse_fraction=0.6, l1_working_set=8 * KIB,
            l2_reuse_fraction=0.3, l2_working_set=1 * MIB,
        ),
    )


class TestBounds:
    def test_compute_bound_identified(self):
        _, breakdown, _ = one_row(time_work_batch, compute_bound(), paper_config(1))
        assert breakdown.bound == "compute"

    def test_memory_bound_identified(self):
        _, breakdown, _ = one_row(time_work_batch, memory_bound(), paper_config(1))
        assert breakdown.bound == "bandwidth"

    def test_total_includes_launch(self):
        config = paper_config(1)
        total, breakdown, _ = one_row(time_work_batch, compute_bound(), config)
        assert total == pytest.approx(
            config.kernel_launch_s
            + max(breakdown.compute_s, breakdown.bandwidth_s, breakdown.latency_s)
        )


class TestConfigSensitivity:
    def test_compute_bound_insensitive_to_caches(self):
        base, _, _ = one_row(time_work_batch, compute_bound(), paper_config(1))
        no_l1, _, _ = one_row(time_work_batch, compute_bound(), paper_config(4))
        no_l2, _, _ = one_row(time_work_batch, compute_bound(), paper_config(5))
        assert no_l1 == pytest.approx(base, rel=0.02)
        assert no_l2 == pytest.approx(base, rel=0.02)

    def test_memory_bound_insensitive_to_clock(self):
        base, _, _ = one_row(time_work_batch, memory_bound(), paper_config(1))
        slow, _, _ = one_row(time_work_batch, memory_bound(), paper_config(2))
        assert slow == pytest.approx(base, rel=0.05)

    def test_compute_bound_scales_with_clock(self):
        base, _, _ = one_row(time_work_batch, compute_bound(), paper_config(1))
        slow, _, _ = one_row(time_work_batch, compute_bound(), paper_config(2))
        assert slow / base == pytest.approx(1.6e9 / 852e6, rel=0.02)

    def test_latency_bound_hurt_by_l1_disable(self):
        base, _, _ = one_row(time_work_batch, latency_bound(), paper_config(1))
        no_l1, _, _ = one_row(time_work_batch, latency_bound(), paper_config(4))
        assert no_l1 > base * 1.05

    def test_l2_disable_hurts_l2_resident_reads(self):
        base, bd1, _ = one_row(time_work_batch, latency_bound(), paper_config(1))
        no_l2, bd5, _ = one_row(time_work_batch, latency_bound(), paper_config(5))
        assert bd5.traffic.dram_read_bytes > bd1.traffic.dram_read_bytes
        assert no_l2 >= base


class TestCounters:
    def test_valu_insts_proportional_to_flops(self):
        config = paper_config(1)
        _, _, counters = one_row(time_work_batch, compute_bound(), config)
        assert counters.valu_insts == pytest.approx(
            1e12 / (config.wave_size * config.flops_per_lane_per_clk)
        )

    def test_busy_cycles_match_time(self):
        config = paper_config(1)
        total, _, counters = one_row(time_work_batch, memory_bound(), config)
        assert counters.busy_cycles == pytest.approx(total * config.gclk_hz)

    def test_write_stalls_track_write_traffic(self):
        light = WorkProfile(
            compute=ComputeProfile(flops=1e8, work_items=1 << 20),
            traffic=TrafficProfile(read_bytes=1e9, write_bytes=1e6),
        )
        heavy = WorkProfile(
            compute=ComputeProfile(flops=1e8, work_items=1 << 20),
            traffic=TrafficProfile(read_bytes=1e9, write_bytes=1e9),
        )
        _, _, light_counters = one_row(time_work_batch, light, paper_config(1))
        _, _, heavy_counters = one_row(time_work_batch, heavy, paper_config(1))
        assert heavy_counters.write_stall_cycles > light_counters.write_stall_cycles

    def test_no_reads_no_latency_term(self):
        work = WorkProfile(
            compute=ComputeProfile(flops=1e9, work_items=1 << 16),
            traffic=TrafficProfile(read_bytes=0.0, write_bytes=1e6),
        )
        _, breakdown, _ = one_row(time_work_batch, work, paper_config(1))
        assert breakdown.latency_s == 0.0
