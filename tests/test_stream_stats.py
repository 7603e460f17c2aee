"""Unit tests for the incremental per-SL accumulator."""

import numpy as np
import pytest

from repro.api import AnalysisEngine, AnalysisSpec
from repro.core.seqpoint import SeqPointSelector
from repro.core.sl_stats import SlStatistics
from repro.errors import TraceError
from repro.stream import StreamingSlStatistics
from repro.train.frame import TraceFrame
from tests.conftest import chunk_of, make_record, make_trace, with_time

PAIRS = [
    (20, 0.20), (10, 0.11), (20, 0.22), (30, 0.29), (10, 0.10),
    (20, 0.21), (30, 0.31), (10, 0.12), (30, 0.30), (20, 0.19),
]


@pytest.fixture
def frame() -> TraceFrame:
    return make_trace(PAIRS).frame()


class TestAbsorb:
    def test_record_by_record_matches_batch(self, frame):
        # One frame per record: a live producer posting one at a time.
        stats = StreamingSlStatistics.for_frame(frame)
        for record in make_trace(PAIRS).records:
            stats.absorb_frame(chunk_of([record]).frame)
        assert stats.statistics() == SlStatistics.from_trace(frame)

    def test_record_chunk_matches_batch(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(chunk_of(make_trace(PAIRS).records).frame)
        assert stats.statistics() == SlStatistics.from_trace(frame)

    def test_frame_chunks_match_batch(self, frame):
        for chunk in (1, 3, 4, len(frame)):
            stats = StreamingSlStatistics.for_frame(frame)
            for start in range(0, len(frame), chunk):
                stats.absorb_frame(frame, start, min(start + chunk, len(frame)))
            assert stats.statistics() == SlStatistics.from_trace(frame)

    def test_mixed_record_and_frame_absorbs(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(chunk_of(make_trace(PAIRS).records[:4]).frame)
        stats.absorb_frame(frame, 4, len(frame))
        assert stats.statistics() == SlStatistics.from_trace(frame)

    def test_prefix_matches_batch_of_prefix(self, frame):
        trace = make_trace(PAIRS)
        for m in (1, 4, 7):
            stats = StreamingSlStatistics.for_frame(frame)
            stats.absorb_frame(frame, 0, m)
            prefix = TraceFrame.from_records(
                "toy", "synthetic", "config#1", 64, trace.records[:m]
            )
            assert stats.statistics() == SlStatistics.from_trace(prefix)

    def test_accounting(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(frame, 0, len(frame))
        assert len(stats) == stats.iterations == len(PAIRS)
        assert stats.unique_seq_lens == 3
        assert stats.total_time_s == pytest.approx(sum(t for _, t in PAIRS))
        means = stats.mean_times()
        assert set(means) == {10, 20, 30}
        assert means[10] == pytest.approx((0.11 + 0.10 + 0.12) / 3)


class TestValidation:
    def test_empty_frame_snapshot_rejected(self):
        stats = StreamingSlStatistics()
        with pytest.raises(TraceError, match="no iterations"):
            stats.frame()

    def test_non_positive_time_rejected(self):
        stats = StreamingSlStatistics()
        bad = chunk_of([make_record(0, 10, 1.0)]).frame
        bad.time_s[0] = -1.0  # past the frame's own construction check
        with pytest.raises(TraceError, match="non-positive"):
            stats.absorb_frame(bad)
        assert len(stats) == 0

    @pytest.mark.parametrize("bad_time", [float("nan"), float("inf")])
    def test_non_finite_record_time_rejected(self, bad_time):
        stats = StreamingSlStatistics()
        good = chunk_of([make_record(0, 10, 1.0), make_record(1, 10, 1.0)]).frame
        bad = with_time(good, 1, bad_time)
        stats.absorb_frame(bad, 0, 1)
        with pytest.raises(TraceError, match=r"^iteration 1: non-finite time"):
            stats.absorb_frame(bad, 1, 2)
        assert len(stats) == 1

    def test_non_finite_chunk_time_names_the_iteration(self):
        # A NaN in a real DS2 frame: absorbed unchecked, it drives
        # SeqPoint to its bin ceiling and a NaN projection.
        frame = AnalysisEngine().frame_for(
            AnalysisSpec(network="ds2", scale=0.05, seed=1)
        )
        bad = with_time(frame, 5, np.nan)
        stats = StreamingSlStatistics.for_frame(bad)
        stats.absorb_frame(bad, 0, 3)
        with pytest.raises(TraceError, match=r"^iteration 5: non-finite time nan$"):
            stats.absorb_frame(bad, 3, 8)
        assert len(stats) == 3
        with pytest.raises(TraceError, match=r"^iteration 5: non-finite time nan$"):
            SeqPointSelector().select(bad)

    def test_bad_chunk_bounds_rejected(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        with pytest.raises(TraceError, match="outside"):
            stats.absorb_frame(frame, 5, len(frame) + 1)
        with pytest.raises(TraceError, match="outside"):
            stats.absorb_frame(frame, -1, 2)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(TraceError, match="batch_size"):
            StreamingSlStatistics(batch_size=0)

    def test_empty_chunk_is_a_noop(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(frame, 3, 3)
        assert len(stats) == 0


class TestSnapshots:
    def test_frame_memoised_until_growth(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(frame, 0, 5)
        first = stats.frame()
        assert stats.frame() is first
        stats.absorb_frame(frame, 5, 6)
        assert stats.frame() is not first
        assert len(first) == 5  # the old snapshot is untouched

    def test_statistics_seed_the_frame_memo(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(frame, 0, len(frame))
        snapshot = stats.statistics()
        # Selectors calling the batch entry point on the streamed frame
        # must reuse the incremental group-by, not recompute it.
        assert SlStatistics.from_trace(stats.frame()) is snapshot

    def test_for_frame_copies_metadata(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(frame, 0, 2)
        prefix = stats.frame()
        assert prefix.model_name == frame.model_name
        assert prefix.dataset_name == frame.dataset_name
        assert prefix.config_name == frame.config_name
        assert prefix.batch_size == frame.batch_size

    def test_profiles_pool_deduplicates(self, frame):
        stats = StreamingSlStatistics.for_frame(frame)
        stats.absorb_frame(frame, 0, len(frame))
        # conftest's make_record keys group_times by runtime, so equal
        # profiles pool; the streamed pool must match the source one.
        assert len(stats.frame().profiles) == len(frame.profiles)

    def test_tgt_len_round_trips(self):
        records = [
            make_record(0, 10, 0.1, tgt_len=12),
            make_record(1, 20, 0.2, tgt_len=None),
            make_record(2, 10, 0.15, tgt_len=12),
        ]
        stats = StreamingSlStatistics()
        stats.absorb_frame(chunk_of(records).frame)
        prefix = stats.frame()
        assert prefix.tgt_len_at(0) == 12
        assert prefix.tgt_len_at(1) is None

    def test_growable_column_doubles_past_initial_capacity(self):
        stats = StreamingSlStatistics()
        records = [make_record(i, 10 + i % 5, 0.1 + i * 1e-4) for i in range(300)]
        stats.absorb_frame(chunk_of(records).frame)
        assert len(stats) == 300
        assert np.array_equal(
            stats.frame().index, np.arange(300, dtype=np.int64)
        )
