"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.binning import bin_stats, bin_stats_equal_mass
from repro.core.projection import project_total
from repro.core.selection import select_from_bin
from repro.core.seqpoint import SeqPointSelector
from repro.core.sl_stats import SlStatistics
from repro.hw.cache import TrafficProfile, capacity_factor, resolve_traffic_batch
from repro.hw.compute import ComputeProfile, parallel_efficiency_batch
from repro.hw.config import paper_config
from repro.hw.timing import WorkProfile, time_work_batch
from repro.util.stats import geomean, weighted_average, weighted_sum
from tests.conftest import make_trace, one_row

# ---- strategy helpers -------------------------------------------------

sl_time_pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=1e-4, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)

positive_floats = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)


# ---- util invariants --------------------------------------------------


@given(
    st.lists(positive_floats, min_size=1, max_size=20),
    st.lists(positive_floats, min_size=1, max_size=20),
)
def test_weighted_average_bounded_by_extremes(values, weights):
    n = min(len(values), len(weights))
    values, weights = values[:n], weights[:n]
    average = weighted_average(values, weights)
    low, high = min(values), max(values)
    assert low * (1 - 1e-9) - 1e-9 <= average <= high * (1 + 1e-9) + 1e-9


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=20))
def test_geomean_bounded_by_extremes(values):
    g = geomean(values)
    assert min(values) * 0.999 <= g <= max(values) * 1.001


@given(
    st.lists(positive_floats, min_size=1, max_size=10),
    positive_floats,
)
def test_weighted_sum_scales_linearly(values, factor):
    weights = [1.0] * len(values)
    assert weighted_sum([v * factor for v in values], weights) == (
        math.inf if False else math.fsum(values) * factor
    ) or abs(
        weighted_sum([v * factor for v in values], weights)
        - sum(values) * factor
    ) <= 1e-6 * max(1.0, sum(values) * factor)


# ---- binning invariants ------------------------------------------------


@given(sl_time_pairs, st.integers(min_value=1, max_value=30))
@settings(max_examples=60)
def test_bins_partition_statistics(pairs, k):
    statistics = SlStatistics.from_trace(make_trace(pairs))
    for binning in (bin_stats, bin_stats_equal_mass):
        bins = binning(statistics, k)
        covered = sorted(s.seq_len for b in bins for s in b.stats)
        assert covered == sorted(s.seq_len for s in statistics)
        # Iteration mass is conserved exactly.
        assert sum(b.iterations for b in bins) == statistics.total_iterations


@given(sl_time_pairs, st.integers(min_value=1, max_value=30))
@settings(max_examples=60)
def test_bins_are_contiguous_in_sl(pairs, k):
    statistics = SlStatistics.from_trace(make_trace(pairs))
    bins = bin_stats(statistics, k)
    for earlier, later in zip(bins, bins[1:]):
        assert max(earlier.seq_lens) < min(later.seq_lens)


@given(sl_time_pairs, st.integers(min_value=1, max_value=20))
@settings(max_examples=60)
def test_representative_always_member_of_bin(pairs, k):
    statistics = SlStatistics.from_trace(make_trace(pairs))
    for bin_ in bin_stats(statistics, k):
        point = select_from_bin(bin_)
        assert point.seq_len in bin_.seq_lens
        assert point.weight == bin_.iterations


@given(sl_time_pairs)
@settings(max_examples=60)
def test_sl_statistics_totals_equal_raw_sums(pairs):
    """Group-by totals are exactly the raw per-iteration sums.

    Bit-exact, not approximate: the vectorized bincount accumulates in
    array order, the same addition sequence as a sequential scan.
    """
    statistics = SlStatistics.from_trace(make_trace(pairs))
    by_sl = {}
    for seq_len, time_s in pairs:
        by_sl[seq_len] = by_sl.get(seq_len, 0.0) + time_s
    counts = {}
    for seq_len, _ in pairs:
        counts[seq_len] = counts.get(seq_len, 0) + 1
    assert [s.seq_len for s in statistics] == sorted(by_sl)
    for stat in statistics:
        assert stat.total_time_s == by_sl[stat.seq_len]
        assert stat.iterations == counts[stat.seq_len]
        assert stat.mean_time_s == by_sl[stat.seq_len] / counts[stat.seq_len]
    assert statistics.total_iterations == len(pairs)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=500),
            st.floats(min_value=1e-4, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
        unique_by=lambda pair: pair[0],  # every SL appears exactly once
    )
)
@settings(max_examples=60)
def test_projection_exact_when_every_sl_is_its_own_bin(pairs):
    """With one point per unique SL the projection is the epoch itself."""
    trace = make_trace(pairs)
    result = SeqPointSelector(max_unique=len(pairs)).select(trace)
    assert result.k == 0  # the no-binning path: every SL its own point
    assert result.identification_error_pct <= 1e-9
    assert result.projected_total_s == (
        math.fsum(t for _, t in pairs)
    ) or abs(result.projected_total_s - result.actual_total_s) <= 1e-12 * max(
        1.0, result.actual_total_s
    )


# ---- seqpoint invariants ----------------------------------------------


@given(sl_time_pairs)
@settings(max_examples=40)
def test_seqpoint_weights_cover_epoch(pairs):
    trace = make_trace(pairs)
    result = SeqPointSelector().select(trace)
    assert result.selection.total_weight == len(trace.records)


@given(sl_time_pairs)
@settings(max_examples=40)
def test_seqpoint_projection_bounded_by_extreme_iterations(pairs):
    trace = make_trace(pairs)
    result = SeqPointSelector().select(trace)
    projected = project_total(result.selection, lambda p: p.record.time_s)
    times = [r.time_s for r in trace.records]
    n = len(times)
    assert min(times) * n * 0.999 <= projected <= max(times) * n * 1.001


@given(sl_time_pairs)
@settings(max_examples=40)
def test_seqpoints_never_exceed_unique_sls(pairs):
    trace = make_trace(pairs)
    result = SeqPointSelector().select(trace)
    assert len(result.selection) <= len(set(trace.seq_lens()))


# ---- hardware model invariants ----------------------------------------


@given(
    st.floats(min_value=0.0, max_value=1e9),
    st.floats(min_value=0.0, max_value=1e9),
)
def test_capacity_factor_bounded(working_set, capacity):
    factor = capacity_factor(working_set, capacity)
    assert 0.0 <= factor <= 1.0


@given(
    st.floats(min_value=1.0, max_value=1e12),
    st.floats(min_value=0.0, max_value=1e10),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e9),
)
@settings(max_examples=80)
def test_traffic_conservation(read_bytes, write_bytes, reuse, working_set):
    profile = TrafficProfile(
        read_bytes=read_bytes,
        write_bytes=write_bytes,
        l1_reuse_fraction=reuse,
        l1_working_set=working_set,
        l2_reuse_fraction=reuse / 2,
        l2_working_set=working_set * 4,
    )
    for index in (1, 4, 5):
        resolved = one_row(resolve_traffic_batch, profile, paper_config(index))
        # Traffic can only shrink down the hierarchy.
        assert resolved.dram_read_bytes <= resolved.l2_read_bytes + 1e-6
        assert resolved.l2_read_bytes <= resolved.l1_read_bytes + 1e-6
        assert resolved.dram_write_bytes == write_bytes


@given(
    st.floats(min_value=1e3, max_value=1e13),
    st.integers(min_value=64, max_value=1 << 24),
)
@settings(max_examples=80)
def test_kernel_time_positive_and_latency_monotone_in_clock(flops, work_items):
    work = WorkProfile(
        compute=ComputeProfile(flops=flops, work_items=work_items),
        traffic=TrafficProfile(read_bytes=flops / 10, write_bytes=flops / 100),
    )
    fast, _, _ = one_row(time_work_batch, work, paper_config(1))
    slow, _, _ = one_row(time_work_batch, work, paper_config(2))
    assert fast > 0
    assert slow >= fast * 0.999  # lower clock can never be faster


@given(st.integers(min_value=1, max_value=1 << 22))
@settings(max_examples=80)
def test_parallel_efficiency_bounded(work_items):
    profile = ComputeProfile(flops=1.0, work_items=work_items)
    for index in (1, 3):
        eff = one_row(parallel_efficiency_batch, profile, paper_config(index))
        assert 0.0 < eff <= 1.0
