"""Vectorized timing engine vs the scalar reference, bit for bit.

``time_work_batch`` must agree with looping the oracle ``time_work``
(``tests/reference.py``) on every row — totals, breakdown terms, bound
tie-breaking, and counters — across all five Table II configurations,
including degenerate kernels (zero FLOPs, zero traffic, zero working
sets).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.hw.cache import TrafficProfile
from repro.hw.compute import ComputeProfile
from repro.hw.config import paper_config
from repro.hw.device import BatchMeasurement
from repro.hw.timing import WorkBatch, WorkProfile, time_work_batch
from tests.reference import (
    TimingBreakdown,
    breakdown_row,
    measurement_row,
    time_work,
    work_row,
)


def random_works(count: int, seed: int = 0) -> list[WorkProfile]:
    rng = random.Random(seed)
    works = []
    for _ in range(count):
        works.append(
            WorkProfile(
                compute=ComputeProfile(
                    flops=rng.choice([0.0, rng.uniform(1e3, 1e12)]),
                    work_items=rng.randint(1, 1 << 22),
                    issue_efficiency=rng.uniform(0.1, 1.0),
                    workgroup_size=rng.choice([64, 128, 256, 512]),
                ),
                traffic=TrafficProfile(
                    read_bytes=rng.choice([0.0, rng.uniform(1.0, 1e10)]),
                    write_bytes=rng.choice([0.0, rng.uniform(1.0, 1e10)]),
                    l1_reuse_fraction=rng.uniform(0.0, 1.0),
                    l1_working_set=rng.choice([0.0, rng.uniform(1.0, 1e7)]),
                    l2_reuse_fraction=rng.uniform(0.0, 0.5),
                    l2_working_set=rng.choice([0.0, rng.uniform(1.0, 1e9)]),
                ),
            )
        )
    return works


WORKS = random_works(120)
BATCH = WorkBatch.from_profiles(WORKS)


class TestBatchTimingEquivalence:
    @pytest.mark.parametrize("index", range(1, 6))
    def test_rows_bit_identical_to_scalar(self, index):
        config = paper_config(index)
        time_col, breakdown, counters = time_work_batch(BATCH, config)
        for row, work in enumerate(WORKS):
            time_ref, breakdown_ref, counters_ref = time_work(work, config)
            assert time_col[row] == time_ref
            assert breakdown.compute_s[row] == breakdown_ref.compute_s
            assert breakdown.bandwidth_s[row] == breakdown_ref.bandwidth_s
            assert breakdown.latency_s[row] == breakdown_ref.latency_s
            assert breakdown.total_s[row] == breakdown_ref.total_s
            assert counters.row(row) == counters_ref

    def test_row_materialisation_round_trips(self):
        config = paper_config(1)
        _, breakdown, _ = time_work_batch(BATCH, config)
        rebuilt = breakdown_row(breakdown, 3)
        assert isinstance(rebuilt, TimingBreakdown)
        _, reference, _ = time_work(WORKS[3], config)
        assert rebuilt == reference
        assert work_row(BATCH, 3) == WORKS[3]

    def test_launch_s_matches_config(self):
        config = paper_config(2)
        _, breakdown, _ = time_work_batch(BATCH, config)
        assert breakdown.launch_s == config.kernel_launch_s


class TestBoundTieBreaking:
    @pytest.mark.parametrize("index", range(1, 6))
    def test_bound_labels_match_scalar(self, index):
        config = paper_config(index)
        _, breakdown, _ = time_work_batch(BATCH, config)
        labels = breakdown.bound
        for row, work in enumerate(WORKS):
            _, reference, _ = time_work(work, config)
            assert labels[row] == reference.bound

    def test_all_zero_terms_tie_to_compute(self):
        """The scalar ``bound`` breaks ties by dict order (compute
        first); ``np.argmax`` keeps the first maximum, matching it."""
        work = WorkProfile(
            compute=ComputeProfile(flops=0.0, work_items=64),
            traffic=TrafficProfile(read_bytes=0.0, write_bytes=0.0),
        )
        config = paper_config(1)
        _, scalar_breakdown, _ = time_work(work, config)
        assert scalar_breakdown.compute_s == scalar_breakdown.bandwidth_s
        assert scalar_breakdown.bound == "compute"
        batch = WorkBatch.from_profiles([work])
        _, batch_breakdown, _ = time_work_batch(batch, config)
        assert batch_breakdown.bound == ("compute",)

    def test_bandwidth_latency_tie_prefers_bandwidth(self):
        """A two-way tie between the later terms picks the earlier one."""
        breakdown = TimingBreakdown(
            launch_s=0.0,
            compute_s=0.0,
            bandwidth_s=2.0,
            latency_s=2.0,
            traffic=None,
        )
        assert breakdown.bound == "bandwidth"
        stacked = np.argmax(np.array([[0.0], [2.0], [2.0]]), axis=0)
        assert int(stacked[0]) == 1  # same first-max rule


class TestDeviceBatch:
    def test_run_batch_rows_match_run(self, device1):
        measurement = device1.run_batch(BATCH)
        assert isinstance(measurement, BatchMeasurement)
        assert len(measurement) == len(WORKS)
        for row, work in enumerate(WORKS):
            assert measurement_row(measurement, row) == time_work(work, device1.config)

