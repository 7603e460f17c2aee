"""Unit tests for repro.hw.device."""

import pytest

from repro.hw.cache import TrafficProfile
from repro.hw.compute import ComputeProfile
from repro.hw.device import GpuDevice
from repro.hw.config import paper_config
from repro.hw.timing import WorkProfile
from tests.conftest import one_row
from tests.reference import time_work


def work() -> WorkProfile:
    return WorkProfile(
        compute=ComputeProfile(flops=1e9, work_items=1 << 16),
        traffic=TrafficProfile(read_bytes=1e7, write_bytes=1e6),
    )


class TestGpuDevice:
    def test_matches_raw_timing(self, device1):
        measurement = one_row(device1.run_batch, work())
        expected, _, _ = time_work(work(), paper_config(1))
        assert measurement.time_s == pytest.approx(expected)

    def test_devices_do_not_share_cache(self):
        fast = GpuDevice(paper_config(1))
        slow = GpuDevice(paper_config(2))
        assert one_row(slow.run_batch, work()).time_s > one_row(fast.run_batch, work()).time_s

    def test_repr_includes_config(self, device1):
        assert "config#1" in repr(device1)

    def test_measurement_has_counters_and_breakdown(self, device1):
        measurement = one_row(device1.run_batch, work())
        assert measurement.counters.busy_cycles > 0
        assert measurement.breakdown.total_s == pytest.approx(measurement.time_s)
