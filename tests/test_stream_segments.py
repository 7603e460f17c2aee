"""Unit tests for quasi-stationary segmentation (repro.stream.segments)."""

import numpy as np
import pytest

from repro.api import SELECTORS
from repro.core.baselines import MedianSelector
from repro.core.seqpoint import SeqPointResult, SeqPointSelector
from repro.errors import ConfigurationError
from repro.stream import (
    Segment,
    SegmentedResult,
    SegmentedSelector,
    StreamSegmenter,
    StreamingIdentifier,
    StreamingSlStatistics,
    replay,
    segment_frame,
)
from repro.train.frame import TraceFrame
from repro.train.trace import TrainingTrace
from tests.conftest import make_record, make_trace, trace_of, with_time

#: A stationary cycle (regime A) and a disjoint, slower one (regime B).
REGIME_A = [(10, 0.1), (20, 0.2), (30, 0.3), (40, 0.4)]
REGIME_B = [(110, 1.1), (120, 1.2), (130, 1.3), (140, 1.4)]


def two_regime_frame(a_repeats: int = 20, b_repeats: int = 20):
    return make_trace(REGIME_A * a_repeats + REGIME_B * b_repeats).frame()


def monotone_frame(steps: int = 6, run: int = 32):
    """SortaGrad in miniature: each SL block strictly after the last."""
    pairs = []
    for step in range(steps):
        pairs += [(10 * (step + 1), 0.1 * (step + 1))] * run
    return make_trace(pairs).frame()


def epoch_trace(pairs_by_epoch: list[list[tuple[int, float]]]) -> TrainingTrace:
    rows = [
        (epoch, seq_len, time_s)
        for epoch, pairs in enumerate(pairs_by_epoch)
        for seq_len, time_s in pairs
    ]
    return trace_of(
        [
            make_record(index, seq_len, time_s, epoch=epoch)
            for index, (epoch, seq_len, time_s) in enumerate(rows)
        ]
    )


class TestSegment:
    def test_validates_bounds(self):
        assert Segment(0, 4).iterations == 4
        with pytest.raises(ConfigurationError):
            Segment(4, 4)
        with pytest.raises(ConfigurationError):
            Segment(-1, 4)


class TestStreamSegmenter:
    def test_stationary_stream_stays_one_segment(self):
        frame = make_trace(REGIME_A * 40).frame()
        segments = segment_frame(frame, cadence=8)
        assert segments == (Segment(0, len(frame)),)

    def test_regime_change_fires_one_changepoint(self):
        frame = two_regime_frame()  # switch at iteration 80
        segments = segment_frame(frame, cadence=8, min_segment=16)
        assert len(segments) == 2
        assert segments[0].stop == segments[1].start == 80

    def test_monotone_stream_fires_several(self):
        frame = monotone_frame(steps=6, run=32)
        segments = segment_frame(frame, cadence=8, min_segment=16)
        assert len(segments) >= 4
        # A covering, contiguous partition.
        assert segments[0].start == 0
        assert segments[-1].stop == len(frame)
        for left, right in zip(segments, segments[1:]):
            assert left.stop == right.start
            assert left.iterations >= 16

    def test_boundaries_invariant_under_prefix_growth(self):
        """Online replay on growing prefixes never moves a fired cut."""
        frame = monotone_frame(steps=6, run=32)
        offline = segment_frame(frame, cadence=8, min_segment=16)
        segmenter = StreamSegmenter(cadence=8, min_segment=16)
        seen: list[int] = []
        for upto in range(0, len(frame) + 1, 5):
            before = segmenter.changepoints
            seen += segmenter.observe(frame, upto=upto)
            assert segmenter.changepoints[: len(before)] == before
        segmenter.observe(frame)
        assert tuple(seen) == segmenter.changepoints
        edges = (0,) + segmenter.changepoints + (len(frame),)
        assert offline == tuple(
            Segment(a, b) for a, b in zip(edges, edges[1:])
        )

    def test_min_segment_floors_every_closed_segment(self):
        frame = monotone_frame(steps=8, run=24)
        for seg in segment_frame(frame, cadence=8, min_segment=24)[:-1]:
            assert seg.iterations >= 24

    def test_observe_past_frame_rejected(self):
        frame = make_trace(REGIME_A * 4).frame()
        with pytest.raises(ConfigurationError, match="past"):
            StreamSegmenter(cadence=4).observe(frame, upto=len(frame) + 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cadence": 0},
            {"cadence": 1.5},
            {"hazard": 0.0},
            {"threshold": -1.0},
            {"drift_rtol": 0.0},
            {"min_segment": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StreamSegmenter(**kwargs)


class TestSegmentedSelector:
    def test_single_segment_is_a_pure_pass_through(self):
        frame = make_trace(REGIME_A * 40).frame()
        base = SeqPointSelector()
        plain = base.select(frame)
        wrapped = SegmentedSelector(base, cadence=8).select(frame)
        assert not isinstance(wrapped, SegmentedResult)
        assert wrapped.projected_total_s == plain.projected_total_s
        assert wrapped.identification_error_pct == plain.identification_error_pct
        assert [
            (p.seq_len, p.weight, p.record.time_s)
            for p in wrapped.selection.points
        ] == [
            (p.seq_len, p.weight, p.record.time_s)
            for p in plain.selection.points
        ]

    def test_multi_segment_combines_mass_and_accounting(self):
        frame = two_regime_frame()
        out = SegmentedSelector(
            SeqPointSelector(), cadence=8, min_segment=16
        ).select(frame)
        assert isinstance(out, SegmentedResult)
        assert isinstance(out, SeqPointResult)  # engine branches still hold
        assert len(out.segments) == 2
        assert out.open_segment is out.segments[-1]
        # Projection mass spans the whole trace, split at the boundary.
        assert sum(p.weight for p in out.selection.points) == pytest.approx(
            len(frame)
        )
        assert sum(s.iterations for s in out.segments) == len(frame)
        assert out.actual_total_s == pytest.approx(
            sum(s.actual_total_s for s in out.segments)
        )
        # Both regimes are exactly representable, so the per-segment
        # projections reproduce the frame's actual total.
        assert out.projected_total_s == pytest.approx(frame.total_time_s)
        assert abs(out.identification_error_pct) < 1e-9
        assert out.selection.method == "segmented[seqpoint]"

    def test_plain_selection_bases_are_supported(self):
        frame = two_regime_frame()
        out = SegmentedSelector(
            MedianSelector(), cadence=8, min_segment=16
        ).select(frame)
        assert isinstance(out, SegmentedResult)
        assert out.k == 0
        assert len(out.segments) == 2
        assert out.selection.method == "segmented[median]"

    def test_junk_base_outcome_rejected(self):
        class Junk:
            def select(self, trace):
                return 42

        frame = two_regime_frame()
        with pytest.raises(ConfigurationError, match="Selection"):
            SegmentedSelector(Junk(), cadence=8, min_segment=16).select(frame)

    def test_base_must_expose_select(self):
        with pytest.raises(ConfigurationError, match="select"):
            SegmentedSelector(object())

    def test_decay_renormalises_to_full_mass(self):
        frame = two_regime_frame()
        out = SegmentedSelector(
            SeqPointSelector(),
            cadence=8,
            min_segment=16,
            decay=0.5,
        ).select(frame)
        # Older segments' points shrink, recent ones grow, total mass
        # still spans the trace.
        assert sum(p.weight for p in out.selection.points) == pytest.approx(
            len(frame)
        )
        early = sum(
            p.weight for p in out.selection.points if p.seq_len <= 40
        )
        late = sum(
            p.weight for p in out.selection.points if p.seq_len >= 110
        )
        assert late > early
        # Summaries keep the unscaled per-segment projections.
        assert out.segments[-1].mean_iteration_s == pytest.approx(1.25)

    def test_split_epochs_forces_phase_boundaries(self):
        # Two stationary epochs the detector alone would merge (same
        # SLs, same runtimes) must still split at the epoch boundary.
        trace = epoch_trace([REGIME_A * 10, REGIME_A * 10])
        out = SegmentedSelector(
            SeqPointSelector(),
            cadence=8,
            min_segment=8,
            split_epochs=True,
        ).select(trace.frame())
        assert isinstance(out, SegmentedResult)
        assert [(s.start, s.stop) for s in out.segments] == [(0, 40), (40, 80)]
        assert out.selection.method == "segmented-drift[seqpoint]"

    def test_invalid_decay_rejected(self):
        for decay in (0.0, -0.5, 1.5, "half"):
            with pytest.raises(ConfigurationError):
                SegmentedSelector(SeqPointSelector(), decay=decay)


class TestRegistry:
    def test_segmented_factory_builds_the_wrapper(self):
        selector = SELECTORS.create("segmented", cadence=8, min_segment=16)
        assert isinstance(selector, SegmentedSelector)
        assert selector.method == "segmented[seqpoint]"
        assert selector.min_segment == 16
        assert not selector.split_epochs

    def test_segmented_drift_factory(self):
        selector = SELECTORS.create("segmented-drift", base="median")
        assert isinstance(selector, SegmentedSelector)
        assert selector.split_epochs
        assert selector.decay == 0.5
        assert selector.method == "segmented-drift[median]"

    def test_base_kwargs_forward_to_the_base_selector(self):
        selector = SELECTORS.create("segmented", base="kmeans", k=3)
        assert selector.base.k == 3

    def test_bad_kwargs_rejected(self):
        with pytest.raises(ConfigurationError):
            SELECTORS.create("segmented", cadence=0)
        with pytest.raises(ConfigurationError):
            SELECTORS.create("segmented", base="no-such-selector")


class TestSessionIntegration:
    def test_segmented_converges_where_the_plain_guard_refuses(self):
        # Monotone stream with a long terminal plateau: the plain
        # guard's running means never settle, the segmenter's open
        # (terminal) segment does.
        pairs = []
        for step in range(5):
            pairs += [(10 * (step + 1), 0.1 * (step + 1))] * 16
        pairs += [(60, 0.6)] * 120
        frame = make_trace(pairs).frame()
        knobs = dict(cadence=8, patience=3, rtol=0.01, drift_rtol=0.05)
        plain = StreamingIdentifier(SeqPointSelector(), **knobs).run(
            replay(frame, chunk_size=7)
        )
        segmented = StreamingIdentifier(
            SELECTORS.create("segmented", cadence=8, min_segment=16), **knobs
        ).run(replay(frame, chunk_size=7))
        assert not plain.converged
        assert segmented.converged
        assert segmented.iterations_consumed < len(frame)
        assert segmented.segments, "the run must report its segments"
        # Drift-aware projection prices the tail at the open segment's
        # rate (0.6 s/iteration), not the cheap early mean.
        projected = segmented.project_epoch_time(len(frame))
        assert projected == pytest.approx(frame.total_time_s, rel=0.02)

    def test_segment_closures_reset_and_count_monotonically(self):
        frame = monotone_frame(steps=6, run=32)
        run = StreamingIdentifier(
            SELECTORS.create("segmented", cadence=8, min_segment=16),
            cadence=8,
            patience=100,  # never converge: observe every check
        ).run(replay(frame))
        closed = [c.segments_closed for c in run.checks]
        assert closed == sorted(closed)
        assert closed[-1] >= 3
        for previous, check in zip(run.checks, run.checks[1:]):
            if check.segments_closed != previous.segments_closed:
                assert check.drift_reset
                assert check.stable_checks == 0
            if check.segments_closed:
                assert check.open_segment_mean_s is not None

    def test_stationary_session_is_bit_identical_to_plain(self):
        frame = make_trace(REGIME_A * 40).frame()
        knobs = dict(cadence=20, patience=3, rtol=0.05)
        plain = StreamingIdentifier(SeqPointSelector(), **knobs).run(
            replay(frame, chunk_size=7)
        )
        wrapped = StreamingIdentifier(
            SELECTORS.create("segmented", cadence=20), **knobs
        ).run(replay(frame, chunk_size=7))
        assert wrapped.converged == plain.converged
        assert wrapped.iterations_consumed == plain.iterations_consumed
        assert wrapped.segments == ()
        assert [c.to_dict() for c in wrapped.checks] == [
            c.to_dict() for c in plain.checks
        ]
        assert [
            (p.seq_len, p.weight, p.record.time_s)
            for p in wrapped.selection.points
        ] == [
            (p.seq_len, p.weight, p.record.time_s)
            for p in plain.selection.points
        ]


def jittered_frame(blocks: list[tuple[int, float]], run: int, seed: int = 7):
    """Blocks of SLs with per-iteration runtime jitter, in stream order.

    Each ``(seq_len, time_s)`` block contributes ``run`` iterations over
    three neighbouring SLs, so segments hold several unique SLs and the
    base selector bins them.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for seq_len, time_s in blocks:
        for i in range(run):
            sl = seq_len + 2 * (i % 3)
            pairs.append((sl, time_s * sl / seq_len * rng.uniform(0.95, 1.05)))
    return make_trace(pairs).frame()


def sortagrad_like_frame():
    """Monotone: every block of SLs strictly after the last."""
    return jittered_frame(
        [(10 * (step + 1), 0.1 * (step + 1)) for step in range(8)], 24
    )


def stationary_frame():
    """Stationary: one SL cycle repeated, jittered."""
    return jittered_frame([(10, 0.1), (40, 0.4), (70, 0.7)] * 24, 4)


def outcome_key(outcome):
    """Everything a selection reports, floats compared bitwise."""
    return (
        type(outcome).__name__,
        [(p.record, p.weight.hex()) for p in outcome.selection.points],
        outcome.k,
        outcome.projected_total_s.hex(),
        outcome.actual_total_s.hex(),
        outcome.identification_error_pct.hex(),
        [s.to_dict() for s in getattr(outcome, "segments", ())],
    )


class CountingSelector(SeqPointSelector):
    """SeqPoint that logs the ``(first index, length)`` of each input."""

    def __init__(self):
        super().__init__()
        self.seen: list[tuple[int, int]] = []

    def select(self, trace):
        self.seen.append((int(trace.index[0]), len(trace)))
        return super().select(trace)


KNOBS = dict(cadence=8, min_segment=16)


def fresh(**extra) -> SegmentedSelector:
    return SegmentedSelector(SeqPointSelector(), **KNOBS, **extra)


def stream_prefixes(frame: TraceFrame, step: int = 8):
    """The frames a streaming session checks, one per cadence prefix."""
    stats = StreamingSlStatistics.for_frame(frame)
    for stop in range(step, len(frame) + 1, step):
        stats.absorb_frame(frame, stop - step, stop)
        yield stats.frame()


class TestResumedSelector:
    @pytest.mark.parametrize("make_frame", [sortagrad_like_frame, stationary_frame])
    def test_long_lived_selector_matches_fresh_at_every_prefix(self, make_frame):
        frame = make_frame()
        kept = fresh()
        for prefix in stream_prefixes(frame):
            assert outcome_key(kept.select(prefix)) == outcome_key(
                fresh().select(prefix)
            )
            assert kept.segment(prefix) == segment_frame(prefix, **KNOBS)
        multi = make_frame is sortagrad_like_frame
        assert (len(segment_frame(frame, **KNOBS)) > 3) == multi

    def test_new_windows_scored_once_and_closed_segments_selected_once(
        self, monkeypatch
    ):
        frame = sortagrad_like_frame()
        prefixes = list(stream_prefixes(frame))
        partitions = [segment_frame(prefix, **KNOBS) for prefix in prefixes]
        scored = []
        advance = StreamSegmenter._advance

        def counting_advance(segmenter, source):
            scored.append(segmenter.watched)
            return advance(segmenter, source)

        monkeypatch.setattr(StreamSegmenter, "_advance", counting_advance)
        base = CountingSelector()
        kept = SegmentedSelector(base, **KNOBS)
        closed: list[Segment] = []
        for prefix, segments in zip(prefixes, partitions):
            before = len(base.seen)
            kept.select(prefix)
            # Each call selects the open segment, plus any segment that
            # closed since the previous call; never an older one.
            newly_closed = [s for s in segments[:-1] if s not in closed]
            closed += newly_closed
            expected = [(s.start, s.iterations) for s in newly_closed]
            expected.append((segments[-1].start, segments[-1].iterations))
            assert base.seen[before:] == expected
        # One scoring per window of the whole stream, never a replay.
        assert scored == list(range(0, len(frame), 8))
        assert len(closed) > 3

    def test_shorter_frame_replays(self):
        frame = sortagrad_like_frame()
        kept = fresh()
        kept.select(frame)
        shorter = frame.slice(0, 100)
        assert outcome_key(kept.select(shorter)) == outcome_key(
            fresh().select(shorter)
        )

    def test_edited_time_in_a_closed_segment_replays(self):
        prefixes = list(stream_prefixes(sortagrad_like_frame()))
        kept = fresh()
        for prefix in prefixes[:-1]:
            kept.select(prefix)
        last = prefixes[-1]
        first = segment_frame(last, **KNOBS)[0]
        assert first.stop < len(prefixes[-2])  # closed before the edit
        edited = with_time(last, first.start + 3, float(last.time_s[3]) * 1.5)
        expected = outcome_key(fresh().select(edited))
        assert expected != outcome_key(fresh().select(last))
        assert outcome_key(kept.select(edited)) == expected

    def test_unrelated_stream_on_the_same_instance_replays(self):
        kept = fresh()
        for prefix in stream_prefixes(sortagrad_like_frame()):
            kept.select(prefix)
        for prefix in stream_prefixes(stationary_frame()):
            assert outcome_key(kept.select(prefix)) == outcome_key(
                fresh().select(prefix)
            )

    def test_split_epochs_matches_fresh_at_every_prefix(self):
        monotone = [(10 * (step + 1), 0.1 * (step + 1)) for step in range(4)]
        trace = epoch_trace(
            [
                [(sl, t) for sl, t in monotone for _ in range(20)],
                REGIME_A * 12,
                [(sl, 2 * t) for sl, t in monotone for _ in range(16)],
            ]
        )
        frame = trace.frame()
        kept = fresh(split_epochs=True, decay=0.5)
        outcomes = []
        for prefix in stream_prefixes(frame, step=6):
            outcomes.append(kept.select(prefix))
            assert outcome_key(outcomes[-1]) == outcome_key(
                fresh(split_epochs=True, decay=0.5).select(prefix)
            )
        assert len(outcomes[-1].segments) >= 4
