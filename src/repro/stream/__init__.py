"""Online (streaming) SeqPoint identification.

Everything the batch pipeline does after a *complete* logged epoch,
this package does on a *growing prefix* of one: iterations absorb into
an incremental per-SL accumulator
(:class:`~repro.stream.stats.StreamingSlStatistics`, bit-identical to
the batch group-by on the same prefix), a
:class:`~repro.stream.identifier.StreamingIdentifier` re-runs the
selector on a cadence, and the stream stops as soon as the selection
stabilises — typically well before the epoch ends, extending the
paper's profiling-cost-reduction argument to the logging phase itself.

Declarative entry points mirror the batch API: a
:class:`~repro.stream.spec.StreamSpec` JSON round-trips like
``AnalysisSpec``, :meth:`repro.api.engine.AnalysisEngine.run_streaming`
executes one, and ``repro stream`` is the same path from the shell.
:class:`~repro.stream.feed.TraceReplayFeed` replays cached epoch traces
(or trace artefacts) as simulated live feeds of columnar chunks.
"""

from repro.stream.feed import FrameSlice, TraceReplayFeed, replay
from repro.stream.identifier import (
    ConvergenceCheck,
    IdentificationSession,
    StreamingIdentifier,
    StreamingRun,
    sl_mix_drift,
)
from repro.stream.segments import (
    Segment,
    SegmentSummary,
    SegmentedResult,
    SegmentedSelector,
    StreamSegmenter,
    segment_frame,
)
from repro.stream.spec import StreamSpec
from repro.stream.stats import StreamingSlStatistics

__all__ = [
    "ConvergenceCheck",
    "FrameSlice",
    "IdentificationSession",
    "Segment",
    "SegmentSummary",
    "SegmentedResult",
    "SegmentedSelector",
    "StreamSegmenter",
    "StreamSpec",
    "StreamingIdentifier",
    "StreamingRun",
    "StreamingSlStatistics",
    "TraceReplayFeed",
    "replay",
    "segment_frame",
    "sl_mix_drift",
]
