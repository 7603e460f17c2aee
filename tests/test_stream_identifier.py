"""Unit tests for the streaming convergence loop."""

import pytest

from repro.core.seqpoint import SeqPointSelector
from repro.errors import ConfigurationError, TraceError
from repro.stream import (
    StreamingIdentifier,
    StreamingSlStatistics,
    TraceReplayFeed,
    replay,
)
from repro.stream.feed import FrameSlice
from tests.conftest import chunk_of, make_trace, with_time

#: A perfectly periodic stream: the per-SL means never move, so the
#: selection stabilises as soon as the window allows.
CYCLE = [(10, 0.1), (20, 0.2), (30, 0.3), (40, 0.4)]


def periodic_trace(repeats: int = 50):
    return make_trace(CYCLE * repeats)


def shifted_trace(repeats: int = 50, shift_at: int = 100, factor: float = 2.0):
    """Periodic, but every runtime jumps by ``factor`` at ``shift_at``."""
    pairs = (CYCLE * repeats)[: repeats * len(CYCLE)]
    return make_trace(
        [
            (sl, t * factor if i >= shift_at else t)
            for i, (sl, t) in enumerate(pairs)
        ]
    )


class TestValidation:
    def test_selector_must_expose_select(self):
        with pytest.raises(ConfigurationError, match="select"):
            StreamingIdentifier(object())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cadence": 0},
            {"patience": 0},
            {"rtol": 0.0},
            {"drift_rtol": -1.0},
            {"sl_rtol": -0.1},
            {"min_iterations": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StreamingIdentifier(SeqPointSelector(), **kwargs)

    def test_selector_outcome_must_be_a_selection(self):
        class Junk:
            def select(self, trace):
                return 42

        with pytest.raises(ConfigurationError, match="Selection"):
            StreamingIdentifier(Junk(), cadence=4).run(
                replay(periodic_trace(3).frame())
            )

    def test_empty_feed_rejected(self):
        identifier = StreamingIdentifier(SeqPointSelector())
        with pytest.raises(ConfigurationError, match="no iterations"):
            identifier.run([])


class TestConvergence:
    def test_periodic_stream_stops_early(self):
        frame = periodic_trace(50).frame()  # 200 iterations
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=3
        ).run(replay(frame))
        assert run.converged
        assert run.iterations_consumed == 60  # 3 agreeing checks
        assert run.iterations_consumed < len(frame)
        assert len(run.checks) == 3
        assert run.checks[-1].stable_checks == 3
        assert {point.seq_len for point in run.selection.points} == {
            10, 20, 30, 40,
        }

    def test_patience_delays_convergence(self):
        frame = periodic_trace(50).frame()
        eager = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=2
        ).run(replay(frame))
        cautious = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=5
        ).run(replay(frame))
        assert eager.iterations_consumed < cautious.iterations_consumed

    def test_exhausted_stream_reports_unconverged(self):
        frame = periodic_trace(10).frame()  # 40 iterations
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=30, patience=5
        ).run(replay(frame))
        assert not run.converged
        assert run.iterations_consumed == len(frame)
        # The final (exhaustion) check still produced a selection.
        assert run.checks[-1].iterations == len(frame)
        assert len(run.selection) == 4

    def test_exhaustion_check_never_newly_declares_convergence(self):
        """The forced off-boundary check at exhaustion yields a final
        selection but must not flip `converged`: the stream ended, it
        did not demonstrate `patience` agreeing boundary checks."""
        pairs = (CYCLE * 13)[:50]
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=30, patience=2, rtol=0.05
        ).run(replay(make_trace(pairs).frame()))
        # Boundary check at 30, forced exhaustion check at 50 — they
        # agree, so the stability counter reads `patience`, yet the
        # run still reports unconverged.
        assert [c.iterations for c in run.checks] == [30, 50]
        assert run.checks[-1].stable_checks == 2
        assert not run.converged
        assert run.iterations_consumed == 50
        assert len(run.selection) == 4

    def test_stream_shorter_than_cadence_still_selects(self):
        frame = periodic_trace(2).frame()  # 8 iterations
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=100, patience=2
        ).run(replay(frame))
        assert not run.converged
        assert len(run.checks) == 1
        assert run.checks[0].iterations == 8

    def test_min_iterations_defers_first_check(self):
        frame = periodic_trace(50).frame()
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=2, min_iterations=70
        ).run(replay(frame))
        assert run.checks[0].iterations == 80  # first boundary past 70

    @pytest.mark.parametrize("min_iterations", [20, 40])
    def test_min_iterations_on_a_boundary_checks_there(self, min_iterations):
        """A warm-up that is a cadence multiple still checks at itself,
        identically for every chunk granularity."""
        frame = periodic_trace(50).frame()
        runs = [
            StreamingIdentifier(
                SeqPointSelector(),
                cadence=20,
                patience=100,
                min_iterations=min_iterations,
            ).run(replay(frame, chunk_size=chunk))
            for chunk in (1, 13, len(frame))
        ]
        for run in runs:
            assert run.checks[0].iterations == min_iterations
            assert [c.iterations for c in run.checks] == [
                c.iterations for c in runs[0].checks
            ]

    def test_identification_error_scored_against_prefix(self):
        frame = periodic_trace(50).frame()
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=3
        ).run(replay(frame))
        consumed_time = float(frame.time_s[: run.iterations_consumed].sum())
        assert run.prefix_total_s == pytest.approx(consumed_time)
        assert run.identification_error_pct < 1e-6  # all-unique, no noise

    def test_project_epoch_time_extrapolates(self):
        frame = periodic_trace(50).frame()
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=3
        ).run(replay(frame))
        full = run.project_epoch_time(len(frame))
        assert full == pytest.approx(frame.total_time_s, rel=1e-9)
        with pytest.raises(ConfigurationError):
            run.project_epoch_time(0)


class TestDriftGuard:
    def test_runtime_shift_resets_the_window(self):
        frame = shifted_trace(repeats=60, shift_at=120, factor=2.0).frame()
        run = StreamingIdentifier(
            SeqPointSelector(),
            cadence=20,
            patience=100,  # never converge: observe every check
            drift_rtol=0.05,
        ).run(replay(frame))
        resets = [check for check in run.checks if check.drift_reset]
        assert resets, "the 2x runtime shift must trip the drift guard"
        assert resets[0].iterations == 140  # first check past the shift
        # The drifted check itself is no evidence of stability: the
        # window restarts empty, not at 1.
        assert resets[0].stable_checks == 0

    def test_appearing_sls_trip_the_guard(self):
        """SLs the previous check never saw count as drift (the guard
        compares the union of SL sets, not just the previously seen)."""
        # First 120 iterations cycle SLs 10..40; then brand-new SLs
        # 50..80 arrive with the SAME per-SL runtimes, so a guard that
        # only rechecks previously-seen means would never fire.
        pairs = CYCLE * 30 + [(50, 0.1), (60, 0.2), (70, 0.3), (80, 0.4)] * 30
        run = StreamingIdentifier(
            SeqPointSelector(),
            cadence=20,
            patience=100,
            drift_rtol=0.05,
        ).run(replay(make_trace(pairs).frame()))
        resets = [check for check in run.checks if check.drift_reset]
        assert resets, "appearing SLs must trip the union drift guard"
        assert resets[0].iterations == 140  # first check past the switch
        assert resets[0].stable_checks == 0

    def test_reset_restarts_the_patience_clock_in_full(self):
        """After a reset, convergence needs `patience` agreements that
        all POST-date the drifted check — it must not count itself."""
        # Stationary cycle, then disjoint SLs with the same runtimes.
        # The warm-up defers the first check to 120 (pre-switch), the
        # appearing SLs reset at 140, and every later check agrees.
        pairs = CYCLE * 30 + [(50, 0.1), (60, 0.2), (70, 0.3), (80, 0.4)] * 25
        run = StreamingIdentifier(
            SeqPointSelector(),
            cadence=20,
            patience=3,
            drift_rtol=0.05,
            min_iterations=110,
        ).run(replay(make_trace(pairs).frame()))
        assert [c.iterations for c in run.checks if c.drift_reset] == [140]
        assert run.converged
        # Agreements at 160, 180, 200 — were the drifted check counted
        # as its own first agreement, 180 would have sufficed.
        assert run.iterations_consumed == 200
        assert [c.stable_checks for c in run.checks] == [1, 0, 1, 2, 3]

    def test_stationary_stream_never_trips_the_guard(self):
        frame = periodic_trace(60).frame()
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=100, drift_rtol=0.05
        ).run(replay(frame))
        assert not any(check.drift_reset for check in run.checks)

    def test_drift_delays_convergence(self):
        stationary = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=3, drift_rtol=0.05
        ).run(replay(periodic_trace(60).frame()))
        # Shift before the stationary convergence point (60), so the
        # guard fires while the window is still filling.
        drifting = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=3, drift_rtol=0.05
        ).run(replay(shifted_trace(repeats=60, shift_at=30).frame()))
        assert stationary.converged
        assert drifting.iterations_consumed > stationary.iterations_consumed


class TestFeeds:
    def test_record_chunks_equal_frame_slices(self):
        trace = periodic_trace(30)
        frame = trace.frame()
        identifier = StreamingIdentifier(
            SeqPointSelector(), cadence=16, patience=3
        )
        from_slices = identifier.run(replay(frame, chunk_size=5))
        records = trace.records
        from_records = identifier.run(
            [chunk_of(records[i : i + 5]) for i in range(0, len(records), 5)]
        )
        assert from_slices.converged == from_records.converged
        assert from_slices.iterations_consumed == from_records.iterations_consumed
        assert [c.selected for c in from_slices.checks] == [
            c.selected for c in from_records.checks
        ]

    def test_checks_invariant_under_rechunking(self):
        frame = periodic_trace(40).frame()
        runs = [
            StreamingIdentifier(
                SeqPointSelector(), cadence=24, patience=3
            ).run(replay(frame, chunk_size=chunk))
            for chunk in (1, 7, len(frame))
        ]
        baseline = [(c.iterations, c.selected) for c in runs[0].checks]
        for run in runs[1:]:
            assert [(c.iterations, c.selected) for c in run.checks] == baseline
            assert run.iterations_consumed == runs[0].iterations_consumed

    def test_resuming_an_accumulator(self):
        frame = periodic_trace(40).frame()
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(frame, 0, 10)
        run = StreamingIdentifier(
            SeqPointSelector(), cadence=20, patience=3
        ).run([FrameSlice(frame, 10, len(frame))], stats=stats)
        assert run.stats is stats
        assert run.checks[0].iterations == 20  # counts the resumed prefix

    def test_feed_validation(self):
        frame = periodic_trace(2).frame()
        with pytest.raises(Exception):
            TraceReplayFeed(frame, chunk_size=0)
        with pytest.raises(Exception):
            FrameSlice(frame, 4, 2)
        feed = TraceReplayFeed(frame, chunk_size=3)
        assert len(feed) == 8
        slices = list(feed)
        assert [(s.start, s.stop) for s in slices] == [(0, 3), (3, 6), (6, 8)]
        assert list(feed), "feed must be re-iterable"


class TestIdentificationSession:
    """begin()/absorb()/finish() must match run() chunk for chunk."""

    def test_session_matches_run_bit_for_bit(self):
        frame = periodic_trace(40).frame()
        identifier = StreamingIdentifier(SeqPointSelector(), cadence=16, patience=3)
        pulled = identifier.run(replay(frame, chunk_size=5))

        session = identifier.begin(StreamingSlStatistics.for_frame(frame))
        converged = False
        for chunk in replay(frame, chunk_size=5):
            if session.absorb(chunk):
                converged = True
                break
        pushed = session.finish()
        assert converged == pushed.converged == pulled.converged
        assert pushed.iterations_consumed == pulled.iterations_consumed
        assert [c.to_dict() for c in pushed.checks] == [
            c.to_dict() for c in pulled.checks
        ]
        assert pushed.identification_error_pct == pulled.identification_error_pct
        assert pushed.projected_prefix_total_s == pulled.projected_prefix_total_s

    def test_session_accepts_record_chunks(self):
        # Each record chunk is a frame of its own, as a live upload is.
        records = periodic_trace(30).records
        identifier = StreamingIdentifier(SeqPointSelector(), cadence=12, patience=2)
        session = identifier.begin()
        for start in range(0, len(records), 7):
            if session.absorb(chunk_of(records[start : start + 7])):
                break
        run = session.finish()
        reference = identifier.run([chunk_of(records)])
        assert run.converged == reference.converged
        assert run.iterations_consumed == reference.iterations_consumed
        assert [c.to_dict() for c in run.checks] == [
            c.to_dict() for c in reference.checks
        ]
        assert run.selection.method == reference.selection.method

    def test_only_frame_slices_are_absorbed(self):
        session = StreamingIdentifier(SeqPointSelector()).begin()
        records = periodic_trace(1).records
        with pytest.raises(ConfigurationError, match="^feed chunks must be FrameSlice, got tuple$"):
            session.absorb(records)
        assert session.iterations_consumed == 0

    def test_absorb_after_convergence_is_a_noop(self):
        frame = periodic_trace(40).frame()
        identifier = StreamingIdentifier(SeqPointSelector(), cadence=8, patience=2)
        session = identifier.begin(StreamingSlStatistics.for_frame(frame))
        chunks = iter(replay(frame, chunk_size=8))
        while not session.absorb(next(chunks)):
            pass
        consumed = session.iterations_consumed
        assert session.absorb(next(chunks)) is True
        assert session.iterations_consumed == consumed

    def test_finish_empty_session_raises(self):
        session = StreamingIdentifier(SeqPointSelector()).begin()
        with pytest.raises(ConfigurationError):
            session.finish()

    def test_slices_absorb_once_per_check_window(self, monkeypatch):
        frame = periodic_trace(10).frame()
        calls = []
        original = StreamingSlStatistics.absorb_frame

        def counted(stats, source, start, stop):
            calls.append((start, stop))
            original(stats, source, start, stop)

        monkeypatch.setattr(StreamingSlStatistics, "absorb_frame", counted)
        identifier = StreamingIdentifier(SeqPointSelector(), cadence=16, patience=99)
        session = identifier.begin(StreamingSlStatistics.for_frame(frame))
        for chunk in replay(frame, chunk_size=3):
            session.absorb(chunk)
        assert calls == [(0, 16), (16, 32)]
        assert session.iterations_consumed == len(frame) == 40
        run = session.finish()
        assert calls[-1] == (32, 40)
        assert run.iterations_consumed == 40

    def test_bad_time_fails_where_its_window_is_absorbed(self):
        frame = with_time(periodic_trace(4).frame(), 5, float("nan"))
        identifier = StreamingIdentifier(SeqPointSelector(), cadence=4, patience=99)
        session = identifier.begin(StreamingSlStatistics.for_frame(frame))
        session.absorb(FrameSlice(frame, 0, 3))
        session.absorb(FrameSlice(frame, 3, 6))  # absorbs [0, 4) at the check
        assert session.iterations_consumed == 6
        with pytest.raises(TraceError, match=r"^iteration 5: non-finite time nan$"):
            session.absorb(FrameSlice(frame, 6, 9))
        # The window stays pending, so the stream cannot go on past it.
        assert session.iterations_consumed == 8
        with pytest.raises(TraceError, match=r"^iteration 5: "):
            session.finish()
        assert len(session.checks) == 1
