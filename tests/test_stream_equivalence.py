"""Streaming <-> batch equivalence on simulated epochs.

Two guarantees, asserted on real (tiny-scale) GNMT and DS2 traces:

* :class:`StreamingSlStatistics` fed in any chunking is bit-identical
  to the batch ``SlStatistics`` of the same prefix;
* a fully consumed stream reproduces :meth:`AnalysisEngine.run` exactly
  across models x selectors x seeds.
"""

import pytest

from repro.api import AnalysisEngine, AnalysisSpec
from repro.core.sl_stats import SlStatistics
from repro.stream import (
    StreamSpec,
    StreamingIdentifier,
    StreamingSlStatistics,
    TraceReplayFeed,
)
from repro.train.frame import TraceFrame
from tests.conftest import chunk_of

SCALE = 0.01


@pytest.fixture(scope="module")
def engine() -> AnalysisEngine:
    return AnalysisEngine()


def batch_prefix_stats(engine, spec, m):
    """The batch group-by of the epoch's first ``m`` iterations."""
    trace = engine.trace_for(spec)
    frame = engine.frame_for(spec)
    prefix = TraceFrame.from_records(
        model_name=frame.model_name,
        dataset_name=frame.dataset_name,
        config_name=frame.config_name,
        batch_size=frame.batch_size,
        records=trace.records[:m],
    )
    return SlStatistics.from_trace(prefix)


class TestChunkingBitIdentity:
    @pytest.mark.parametrize("network", ["gnmt", "ds2"])
    def test_chunk_sizes_agree_with_batch(self, engine, network):
        spec = AnalysisSpec(network=network, scale=SCALE)
        frame = engine.frame_for(spec)
        expected = SlStatistics.from_trace(frame)
        for chunk_size in (1, 7, len(frame)):
            stats = StreamingSlStatistics.for_frame(frame)
            for piece in TraceReplayFeed(frame, chunk_size=chunk_size):
                stats.absorb_frame(piece.frame, piece.start, piece.stop)
            assert stats.statistics() == expected, chunk_size

    @pytest.mark.parametrize("network", ["gnmt", "ds2"])
    def test_every_prefix_matches_batch(self, engine, network):
        spec = AnalysisSpec(network=network, scale=SCALE)
        frame = engine.frame_for(spec)
        stats = StreamingSlStatistics.for_frame(frame)
        for stop in range(1, len(frame) + 1):
            stats.absorb_frame(frame, stop - 1, stop)
            if stop % 7 == 0 or stop == len(frame):
                assert stats.statistics() == batch_prefix_stats(
                    engine, spec, stop
                ), stop

    def test_record_feed_matches_frame_feed(self, engine):
        spec = AnalysisSpec(network="gnmt", scale=SCALE)
        frame = engine.frame_for(spec)
        via_records = StreamingSlStatistics.for_frame(frame)
        for record in engine.trace_for(spec).records:
            via_records.absorb_frame(chunk_of([record]).frame)
        via_frame = StreamingSlStatistics.for_frame(frame)
        via_frame.absorb_frame(frame, 0, len(frame))
        assert via_records.statistics() == via_frame.statistics()


class TestFullConsumptionReproducesBatch:
    @pytest.mark.parametrize("network", ["gnmt", "ds2"])
    @pytest.mark.parametrize("selector", ["seqpoint", "frequent", "kmeans"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_exhausted_stream_equals_engine_run(
        self, engine, network, selector, seed
    ):
        spec = AnalysisSpec(
            network=network, scale=SCALE, seed=seed, selector=selector
        )
        batch = engine.run(spec)
        frame = engine.frame_for(spec)
        run = StreamingIdentifier(
            spec.build_selector(),
            cadence=max(1, len(frame) // 3),
            patience=10_000,  # never converge: consume everything
        ).run(
            TraceReplayFeed(frame, chunk_size=7),
            stats=StreamingSlStatistics.for_frame(frame),
        )
        assert not run.converged
        assert run.iterations_consumed == len(frame)
        # Bit-identical numbers, not approximations.
        assert run.identification_error_pct == batch.identification_error_pct
        assert run.projected_prefix_total_s == batch.projected_total_s
        assert run.prefix_total_s == batch.actual_total_s
        streamed = [
            (p.seq_len, p.tgt_len, p.weight, p.record.time_s)
            for p in run.selection.points
        ]
        batched = [
            (p.seq_len, p.tgt_len, p.weight, p.time_s) for p in batch.points
        ]
        assert streamed == batched

    def test_run_streaming_consistent_with_run(self, engine):
        """The engine wrapper agrees with the batch result it reports."""
        spec = AnalysisSpec(network="gnmt", scale=SCALE)
        result = engine.run_streaming(
            StreamSpec(analysis=spec, cadence=8, patience=10_000)
        )
        batch = engine.run(spec)
        assert not result.converged
        assert result.iterations_consumed == result.epoch_iterations
        assert result.matches_batch_selection
        assert (
            result.batch_identification_error_pct
            == batch.identification_error_pct
        )
        assert result.identification_error_pct == batch.identification_error_pct
        assert result.actual_total_s == batch.actual_total_s
        # A fully consumed stream extrapolates by a factor of one.
        assert result.projected_epoch_time_s == pytest.approx(
            batch.projected_total_s, rel=1e-12
        )

    def test_run_streaming_rejects_non_stream_specs(self, engine):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="StreamSpec"):
            engine.run_streaming(AnalysisSpec(network="gnmt", scale=SCALE))
