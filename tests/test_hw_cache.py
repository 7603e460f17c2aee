"""Unit tests for repro.hw.cache."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.cache import TrafficProfile, capacity_factor, resolve_traffic_batch
from repro.hw.config import paper_config
from repro.util.units import KIB, MIB
from tests.conftest import one_row


def profile(**overrides) -> TrafficProfile:
    base = dict(
        read_bytes=1e6,
        write_bytes=1e5,
        l1_reuse_fraction=0.5,
        l1_working_set=8 * KIB,
        l2_reuse_fraction=0.5,
        l2_working_set=1 * MIB,
    )
    base.update(overrides)
    return TrafficProfile(**base)


class TestCapacityFactor:
    def test_fits_fully(self):
        assert capacity_factor(1000, 2000) == 1.0

    def test_overflow_proportional(self):
        assert capacity_factor(8 * MIB, 4 * MIB) == pytest.approx(0.5)

    def test_disabled_cache_captures_nothing(self):
        assert capacity_factor(100, 0) == 0.0

    def test_empty_working_set_fully_captured(self):
        assert capacity_factor(0, 1024) == 1.0


class TestResolveTraffic:
    def test_hits_reduce_downstream_traffic(self):
        resolved = one_row(resolve_traffic_batch, profile(), paper_config(1))
        assert resolved.l2_read_bytes < resolved.l1_read_bytes
        assert resolved.dram_read_bytes < resolved.l2_read_bytes

    def test_l1_disabled_pushes_reads_to_l2(self):
        resolved = one_row(resolve_traffic_batch, profile(), paper_config(4))
        assert resolved.l1_hit_rate == 0.0
        assert resolved.l2_read_bytes == pytest.approx(1e6)

    def test_l2_disabled_pushes_reads_to_dram(self):
        resolved = one_row(resolve_traffic_batch, profile(), paper_config(5))
        assert resolved.l2_hit_rate == 0.0
        assert resolved.dram_read_bytes == pytest.approx(resolved.l2_read_bytes)

    def test_l2_absorbs_spilled_l1_reuse(self):
        # With L1 off, the reuse L1 would have caught lands in L2.
        with_l1 = one_row(resolve_traffic_batch, profile(), paper_config(1))
        without_l1 = one_row(resolve_traffic_batch, profile(), paper_config(4))
        assert without_l1.l2_hit_rate > with_l1.l2_hit_rate

    def test_writes_always_reach_dram(self):
        for index in (1, 4, 5):
            resolved = one_row(resolve_traffic_batch, profile(), paper_config(index))
            assert resolved.dram_write_bytes == pytest.approx(1e5)

    def test_oversized_working_set_degrades_hits(self):
        small = one_row(
            resolve_traffic_batch, profile(l1_working_set=4 * KIB), paper_config(1)
        )
        large = one_row(
            resolve_traffic_batch, profile(l1_working_set=64 * KIB), paper_config(1)
        )
        assert large.l1_hit_rate < small.l1_hit_rate

    def test_dram_bytes_totals(self):
        resolved = one_row(resolve_traffic_batch, profile(), paper_config(1))
        assert resolved.dram_bytes == pytest.approx(
            resolved.dram_read_bytes + resolved.dram_write_bytes
        )


class TestValidation:
    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficProfile(read_bytes=-1, write_bytes=0)

    def test_reuse_fraction_range(self):
        with pytest.raises(ConfigurationError):
            TrafficProfile(read_bytes=0, write_bytes=0, l1_reuse_fraction=1.5)

    def test_scaled_preserves_working_sets(self):
        scaled = profile().scaled(2.0)
        assert scaled.read_bytes == pytest.approx(2e6)
        assert scaled.l1_working_set == 8 * KIB

    def test_scaled_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            profile().scaled(-1.0)
