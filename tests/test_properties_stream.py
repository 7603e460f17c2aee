"""Property-based tests (hypothesis): streaming == batch, any chunking."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.seqpoint import SeqPointSelector
from repro.core.sl_stats import SlStatistics
from repro.stream import (
    SegmentedSelector,
    StreamingIdentifier,
    StreamingSlStatistics,
    replay,
    segment_frame,
    sl_mix_drift,
)
from tests.conftest import chunk_of, make_trace

sl_time_pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=1e-4, max_value=50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
)


@st.composite
def trace_and_chunking(draw):
    """A random trace plus a random partition of it into chunks."""
    pairs = draw(sl_time_pairs)
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pairs)),
            min_size=0,
            max_size=6,
        )
    )
    boundaries = sorted({0, *cuts, len(pairs)})
    return pairs, list(zip(boundaries, boundaries[1:]))


@given(trace_and_chunking())
@settings(max_examples=60)
def test_streaming_stats_bit_identical_under_any_chunking(case):
    pairs, chunks = case
    # Reversed, so the frame's profile pool is not in first-appearance
    # order.
    frame = make_trace(pairs).frame().take(np.arange(len(pairs))[::-1])
    stats = StreamingSlStatistics.for_frame(frame)
    for start, stop in chunks:
        stats.absorb_frame(frame, start, stop)
    assert stats.statistics() == SlStatistics.from_trace(frame)
    # Nor do the pooled profile ids and their order depend on chunking.
    whole = StreamingSlStatistics.for_frame(frame)
    whole.absorb_frame(frame)
    assert np.array_equal(stats.frame().profile_id, whole.frame().profile_id)
    assert stats.frame().profiles == whole.frame().profiles


@given(trace_and_chunking())
@settings(max_examples=40)
def test_streaming_prefixes_bit_identical_to_batch(case):
    pairs, chunks = case
    trace = make_trace(pairs)
    frame = trace.frame()
    stats = StreamingSlStatistics.for_frame(frame)
    for start, stop in chunks:
        stats.absorb_frame(frame, start, stop)
        if stop == 0:
            continue
        prefix = make_trace(pairs[:stop]).frame()
        assert stats.statistics() == SlStatistics.from_trace(prefix)


@given(sl_time_pairs, st.integers(min_value=1, max_value=17))
@settings(max_examples=40)
def test_exhausted_stream_reproduces_batch_selection(pairs, chunk_size):
    frame = make_trace(pairs).frame()
    batch = SeqPointSelector().select(frame)
    run = StreamingIdentifier(
        SeqPointSelector(),
        cadence=max(1, len(frame) // 2),
        patience=10_000,  # never converge: consume the whole stream
    ).run(replay(frame, chunk_size=chunk_size))
    assert run.iterations_consumed == len(frame)
    assert run.k == batch.k
    assert run.projected_prefix_total_s == batch.projected_total_s
    assert run.identification_error_pct == batch.identification_error_pct
    assert [
        (p.seq_len, p.weight, p.record.time_s) for p in run.selection.points
    ] == [
        (p.seq_len, p.weight, p.record.time_s) for p in batch.selection.points
    ]


@st.composite
def stationary_stream(draw):
    """N windows that are per-window permutations of one SL pool.

    Every cadence window then has an identical per-SL composition, so
    the changepoint score is exactly zero — the stream is stationary by
    construction at the granularity the segmenter looks at.
    """
    pool = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=200),
                st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
            ),
            min_size=2,
            max_size=6,
            unique_by=lambda pair: pair[0],
        )
    )
    windows = draw(st.integers(min_value=2, max_value=8))
    pairs = []
    for _ in range(windows):
        pairs.extend(draw(st.permutations(pool)))
    return pairs, len(pool)


@given(stationary_stream())
@settings(max_examples=40)
def test_segmented_is_the_base_selector_on_stationary_streams(case):
    pairs, cadence = case
    frame = make_trace(pairs).frame()
    assert len(segment_frame(frame, cadence=cadence)) == 1
    base = SeqPointSelector().select(frame)
    wrapped = SegmentedSelector(SeqPointSelector(), cadence=cadence).select(
        frame
    )
    assert wrapped.projected_total_s == base.projected_total_s
    assert wrapped.identification_error_pct == base.identification_error_pct
    assert [
        (p.seq_len, p.weight, p.record.time_s)
        for p in wrapped.selection.points
    ] == [
        (p.seq_len, p.weight, p.record.time_s) for p in base.selection.points
    ]


@given(sl_time_pairs, st.integers(min_value=1, max_value=8))
@settings(max_examples=30)
def test_segmented_runs_invariant_under_rechunking(pairs, cadence):
    """Checks, segments, and selections are a pure function of the
    stream contents — chunk granularity must never show through."""
    frame = make_trace(pairs).frame()
    runs = [
        StreamingIdentifier(
            SegmentedSelector(
                SeqPointSelector(), cadence=cadence, min_segment=cadence
            ),
            cadence=cadence,
            patience=10_000,  # consume everything: compare full histories
        ).run(replay(frame, chunk_size=chunk))
        for chunk in (1, 7, len(frame))
    ]
    baseline = runs[0]
    for run in runs[1:]:
        assert [c.to_dict() for c in run.checks] == [
            c.to_dict() for c in baseline.checks
        ]
        assert run.segments == baseline.segments
        assert [
            (p.seq_len, p.weight, p.record.time_s)
            for p in run.selection.points
        ] == [
            (p.seq_len, p.weight, p.record.time_s)
            for p in baseline.selection.points
        ]


sl_state = st.dictionaries(
    st.integers(min_value=1, max_value=30),
    st.tuples(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


def _split(state):
    means = {sl: mean for sl, (_, mean) in state.items()}
    counts = {sl: count for sl, (count, _) in state.items()}
    return means, counts, sum(counts.values())


@given(sl_state)
@settings(max_examples=40)
def test_identical_state_never_drifts(state):
    means, counts, total = _split(state)
    assert not sl_mix_drift(means, counts, total, means, counts, total, 0.05)


@given(sl_state, st.integers(min_value=1, max_value=50))
@settings(max_examples=40)
def test_appearing_mass_is_drift(state, arrivals):
    """New SLs carrying all the arrivals since the last check must trip
    the guard however small the tolerance window."""
    means, counts, total = _split(state)
    new_sl = max(means) + 1
    now_means = {**means, new_sl: 1.0}
    now_counts = {**counts, new_sl: arrivals}
    assert sl_mix_drift(
        means, counts, total, now_means, now_counts, total + arrivals, 0.05
    )


@given(sl_state)
@settings(max_examples=40)
def test_vanishing_mass_is_drift(state):
    """An SL that held more than drift_rtol of the previous mass and
    disappears from the statistics must trip the guard."""
    means, counts, total = _split(state)
    heaviest = max(counts, key=counts.get)
    if counts[heaviest] <= 0.05 * total:
        counts[heaviest] = total  # force it over the tolerance
        total = sum(counts.values())
    now_means = {sl: mean for sl, mean in means.items() if sl != heaviest}
    now_counts = {sl: c for sl, c in counts.items() if sl != heaviest}
    assert sl_mix_drift(
        means, counts, total, now_means, now_counts, total, 0.05
    )


@given(sl_state, st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
@settings(max_examples=40)
def test_zero_previous_mean_treats_any_change_as_drift(state, new_mean):
    means, counts, total = _split(state)
    some_sl = next(iter(means))
    means[some_sl] = 0.0
    moved = {**means, some_sl: new_mean}
    assert sl_mix_drift(means, counts, total, moved, counts, total, 0.05)
    assert not sl_mix_drift(means, counts, total, means, counts, total, 0.05)


@given(sl_time_pairs)
@settings(max_examples=40)
def test_absorb_paths_agree(pairs):
    """One frame per record (a live producer posting one at a time) and
    one whole-frame chunk are interchangeable."""
    trace = make_trace(pairs)
    frame = trace.frame()
    by_record = StreamingSlStatistics.for_frame(frame)
    for record in trace.records:
        by_record.absorb_frame(chunk_of([record]).frame)
    by_frame = StreamingSlStatistics.for_frame(frame)
    by_frame.absorb_frame(frame, 0, len(frame))
    assert by_record.statistics() == by_frame.statistics()
    assert by_record.total_time_s == by_frame.total_time_s
    assert by_record.mean_times() == by_frame.mean_times()
