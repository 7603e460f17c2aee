"""Additional property-based tests: selection strategies, traces, counters."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.baselines import (
    FrequentSelector,
    MedianSelector,
    PriorSelector,
    WorstSelector,
)
from repro.core.binning import bin_stats, bin_stats_equal_mass
from repro.core.projection import project_total
from repro.core.selection import select_from_bin
from repro.core.sl_stats import SlStatistics
from repro.hw.config import PAPER_CONFIGS
from repro.hw.counters import CounterSet
from repro.hw.timing import WorkBatch
from repro.kernels.gemm import (
    GEMM_VARIANTS,
    _candidate_times_scalar,
    build_gemm,
    candidate_times_many,
    clear_gemm_caches,
    gemm_work,
)
from repro.train.trace import TrainingTrace
from tests.conftest import make_trace

sl_time_pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=400),
        st.floats(min_value=1e-4, max_value=50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
)


# ---- every selector returns a sound selection ---------------------------


@given(sl_time_pairs)
@settings(max_examples=40)
def test_all_baselines_weights_cover_epoch(pairs):
    trace = make_trace(pairs)
    for selector in (
        FrequentSelector(), MedianSelector(), WorstSelector(),
        PriorSelector(warmup=2, window=5),
    ):
        selection = selector.select(trace)
        assert abs(selection.total_weight - len(trace.records)) < 1e-6


@given(sl_time_pairs)
@settings(max_examples=40)
def test_single_sl_selectors_pick_observed_sls(pairs):
    trace = make_trace(pairs)
    observed = set(trace.seq_lens())
    for selector in (FrequentSelector(), MedianSelector(), WorstSelector()):
        for seq_len in selector.select(trace).seq_lens:
            assert seq_len in observed


@given(sl_time_pairs)
@settings(max_examples=40)
def test_worst_bounds_frequent_and_median(pairs):
    trace = make_trace(pairs)
    actual = trace.total_time_s

    def error(selector):
        selection = selector.select(trace)
        return abs(project_total(selection, lambda p: p.record.time_s) - actual)

    worst = error(WorstSelector())
    assert worst >= error(FrequentSelector()) - 1e-9
    assert worst >= error(MedianSelector()) - 1e-9


# ---- strategy variants stay inside their bin -----------------------------


@given(sl_time_pairs, st.integers(min_value=1, max_value=12))
@settings(max_examples=40)
def test_every_strategy_picks_bin_member(pairs, k):
    statistics = SlStatistics.from_trace(make_trace(pairs))
    for binning in (bin_stats, bin_stats_equal_mass):
        for bin_ in binning(statistics, k):
            for strategy in ("closest-mean", "median-sl", "centroid-sl"):
                point = select_from_bin(bin_, strategy=strategy)
                assert point.seq_len in bin_.seq_lens


# ---- trace persistence round-trips ---------------------------------------


@given(sl_time_pairs)
@settings(max_examples=25)
def test_trace_round_trip(pairs):
    import tempfile
    from pathlib import Path

    trace = make_trace(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        trace.save(path)
        loaded = TrainingTrace.load(path)
    assert loaded.seq_lens() == trace.seq_lens()
    assert abs(loaded.total_time_s - trace.total_time_s) < 1e-9 * max(
        1.0, trace.total_time_s
    )


# ---- counters form a commutative monoid ----------------------------------

counter_values = st.builds(
    CounterSet,
    valu_insts=st.floats(min_value=0, max_value=1e12),
    dram_read_bytes=st.floats(min_value=0, max_value=1e12),
    dram_write_bytes=st.floats(min_value=0, max_value=1e12),
    l2_read_bytes=st.floats(min_value=0, max_value=1e12),
    write_stall_cycles=st.floats(min_value=0, max_value=1e12),
    busy_cycles=st.floats(min_value=0, max_value=1e12),
)


@given(counter_values, counter_values)
def test_counter_addition_commutes(a, b):
    assert a + b == b + a


@given(counter_values)
def test_counter_zero_is_identity(a):
    assert a + CounterSet.zero() == a


@given(counter_values, st.floats(min_value=0, max_value=1e3))
def test_counter_scaling_distributes(a, factor):
    doubled = a.scaled(factor)
    for field, value in a.as_dict().items():
        assert abs(getattr(doubled, field) - value * factor) <= 1e-6 * max(
            1.0, abs(value * factor)
        )


# ---- the columnar GEMM race is the scalar race, bit for bit ---------------

#: Dims across the whole range, and dims next to tile multiples (where
#: the exact/edge tiling and padding flip).
gemm_dims = st.one_of(
    st.integers(min_value=1, max_value=100_000),
    st.builds(
        lambda tile, multiple, offset: max(1, tile * multiple + offset),
        st.sampled_from([16, 32, 64, 128]),
        st.integers(min_value=1, max_value=780),
        st.integers(min_value=-1, max_value=1),
    ),
)
gemm_problems = st.lists(
    st.tuples(gemm_dims, gemm_dims, gemm_dims), min_size=1, max_size=12
)


@given(gemm_problems)
@settings(max_examples=60, deadline=None)
def test_array_race_rows_equal_the_scalar_loop(problems):
    for config in PAPER_CONFIGS.values():
        clear_gemm_caches()  # race every problem afresh
        rows = candidate_times_many(problems, config)
        for row, (m, n, k) in zip(rows, problems, strict=True):
            scalar = _candidate_times_scalar(m, n, k, config)
            assert np.array_equal(row.view(np.int64), scalar.view(np.int64))


@given(gemm_problems, st.data())
@settings(max_examples=40, deadline=None)
def test_columnar_gemm_build_equals_build_gemm(problems, data):
    variants = data.draw(
        st.lists(
            st.integers(0, len(GEMM_VARIANTS) - 1),
            min_size=len(problems),
            max_size=len(problems),
        )
    )
    work, names = gemm_work(variants, problems)
    built = [
        build_gemm(GEMM_VARIANTS[v], *dims) for v, dims in zip(variants, problems)
    ]
    expected = WorkBatch.from_profiles([invocation.work for invocation in built])
    for name in vars(expected):
        ours, theirs = getattr(work, name), getattr(expected, name)
        assert np.array_equal(ours.view(np.int64), theirs.view(np.int64)), name
    assert names == [invocation.name for invocation in built]
