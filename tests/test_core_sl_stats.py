"""Unit tests for repro.core.sl_stats."""

import gc
import math
import weakref

import pytest

from repro.core.seqpoint import SeqPointSelector
from repro.core.sl_stats import SlStatistics
from repro.errors import TraceError
from repro.stream import StreamingSlStatistics
from tests.conftest import make_record, make_trace, trace_of, with_time


class TestSlStatistics:
    def test_groups_by_seq_len(self):
        trace = make_trace([(10, 1.0), (10, 2.0), (20, 5.0)])
        stats = SlStatistics.from_trace(trace)
        assert len(stats) == 2
        ten = stats.for_seq_len(10)
        assert ten.iterations == 2
        assert ten.mean_time_s == pytest.approx(1.5)
        assert ten.total_time_s == pytest.approx(3.0)

    def test_sorted_by_seq_len(self):
        trace = make_trace([(30, 1.0), (10, 1.0), (20, 1.0)])
        stats = SlStatistics.from_trace(trace)
        assert [s.seq_len for s in stats] == [10, 20, 30]
        assert stats.min_seq_len == 10
        assert stats.max_seq_len == 30

    def test_representative_closest_to_mean(self):
        trace = make_trace([(10, 1.0), (10, 2.0), (10, 1.4)])
        stats = SlStatistics.from_trace(trace)
        # Mean 1.4667: the 1.4 record is closest.
        assert stats.for_seq_len(10).representative.time_s == pytest.approx(1.4)

    def test_totals(self):
        trace = make_trace([(10, 1.0), (20, 2.0), (30, 3.0)])
        stats = SlStatistics.from_trace(trace)
        assert stats.total_time_s == pytest.approx(6.0)
        assert stats.total_iterations == 3

    def test_unknown_seq_len_raises(self):
        stats = SlStatistics.from_trace(make_trace([(10, 1.0)]))
        with pytest.raises(TraceError):
            stats.for_seq_len(99)

    def test_empty_trace_raises(self):
        trace = make_trace([])
        with pytest.raises(TraceError):
            SlStatistics.from_trace(trace)


class TestLazyRepresentatives:
    def test_columns_match_the_per_sl_views(self):
        trace = make_trace([(20, 2.0), (10, 1.0), (10, 3.0), (20, 4.0), (30, 1.5)])
        stats = SlStatistics.from_trace(trace)
        assert stats.seq_lens_column.tolist() == [s.seq_len for s in stats]
        assert stats.iterations_column.tolist() == [s.iterations for s in stats]
        assert stats.totals_column.tolist() == [s.total_time_s for s in stats]
        assert stats.means_column.tolist() == [s.mean_time_s for s in stats]
        assert [stats.representatives.record(i) for i in range(len(stats))] == [
            s.representative for s in stats
        ]

    def test_record_frames_keep_their_record_objects(self):
        trace = make_trace([(10, 1.0), (10, 2.0), (10, 1.4), (20, 5.0)])
        stat = SlStatistics.from_trace(trace).for_seq_len(10)
        assert stat.representative == trace.records[2]
        assert stat.representative is stat.representative

    def test_equality_compares_representatives(self):
        # Same SLs, counts and totals; only the representative differs.
        first = SlStatistics.from_trace(make_trace([(10, 1.0), (10, 3.0)]))
        second = SlStatistics.from_trace(make_trace([(10, 3.0), (10, 1.0)]))
        assert first.totals_column.tolist() == second.totals_column.tolist()
        assert first.stats[0].representative.time_s == 1.0
        assert second.stats[0].representative.time_s == 3.0
        assert first != second
        assert first == SlStatistics.from_trace(make_trace([(10, 1.0), (10, 3.0)]))

    @pytest.mark.parametrize("streamed", [False, True])
    def test_frame_freed_without_the_cycle_collector(self, streamed):
        """Statistics memoised on a frame hold no reference back to it."""
        pairs = [(sl, 0.01 * sl + 0.001 * i) for i in range(6) for sl in (10, 20, 30)]

        def select_and_drop() -> weakref.ref:
            if streamed:
                source = make_trace(pairs).frame()
                stream = StreamingSlStatistics.for_frame(source)
                stream.absorb_frame(source)
                stats = stream.statistics()
                frame = stream.frame()
            else:
                frame = make_trace(pairs).frame()
                stats = SlStatistics.from_trace(frame)
            assert SlStatistics.from_trace(frame) is stats
            assert stats.stats[1].representative.seq_len == 20
            SeqPointSelector(max_unique=1).select(frame)
            return weakref.ref(frame.time_s)

        select_and_drop()  # first use creates one-off module state
        gc.collect()
        gc.disable()
        try:
            column = select_and_drop()
            assert column() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNonFiniteTimes:
    def test_group_by_names_the_iteration(self):
        pairs = [(10, 1.0), (20, 2.0), (10, 1.5)]
        trace = trace_of(
            [make_record(100 + i, sl, time_s) for i, (sl, time_s) in enumerate(pairs)]
        )
        bad = with_time(trace.frame(), 1, math.nan)
        with pytest.raises(TraceError, match=r"^iteration 101: non-finite time nan$"):
            SlStatistics.from_trace(bad)
        with pytest.raises(TraceError, match="non-finite"):
            SeqPointSelector().select(bad)
