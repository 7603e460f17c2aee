"""Feed adapters: things that produce iteration chunks for a stream.

A *feed* is any iterable of :class:`FrameSlice` chunks, each a columnar
window ``frame[start:stop)``.  A replayed trace yields consecutive
slices of one frame; a live producer (the daemon's
``/stream/<id>/feed``) turns each chunk of records it receives into a
frame of its own and yields the whole of it.

:class:`TraceReplayFeed` replays a logged
:class:`~repro.train.trace.TrainingTrace` / :class:`TraceFrame` — or a
trace artefact of any schema version — as such a stream, so every
cached epoch can exercise the online identification path exactly as a
live training run would.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import TraceError
from repro.train.frame import TraceFrame, as_frame
from repro.train.trace import TrainingTrace

__all__ = ["FrameSlice", "TraceReplayFeed", "replay"]


@dataclass(frozen=True)
class FrameSlice:
    """One columnar chunk of a feed: ``frame[start:stop)``."""

    frame: TraceFrame
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.stop <= len(self.frame):
            raise TraceError(
                f"slice [{self.start}, {self.stop}) outside the "
                f"{len(self.frame)}-iteration frame"
            )

    def __len__(self) -> int:
        return self.stop - self.start


class TraceReplayFeed:
    """Replay a logged trace as a stream of :class:`FrameSlice` chunks.

    ``chunk_size`` models the arrival granularity — 1 replays iteration
    by iteration; larger values mimic a producer that reports in
    batches.  The feed is re-iterable (each ``iter()`` starts over) and
    knows its epoch length, which live feeds generally would not.
    """

    def __init__(self, trace: TrainingTrace | TraceFrame, chunk_size: int = 1):
        if chunk_size <= 0:
            raise TraceError(f"chunk_size must be positive, got {chunk_size}")
        self.frame = as_frame(trace)
        if len(self.frame) == 0:
            raise TraceError("cannot replay an empty trace")
        self.chunk_size = chunk_size

    @classmethod
    def load(cls, path: str | Path, chunk_size: int = 1) -> "TraceReplayFeed":
        """Replay a trace artefact of any schema version."""
        return cls(TraceFrame.load(path), chunk_size=chunk_size)

    def __len__(self) -> int:
        """Epoch length in iterations (known only because this is a replay)."""
        return len(self.frame)

    def __iter__(self) -> Iterator[FrameSlice]:
        total = len(self.frame)
        for start in range(0, total, self.chunk_size):
            yield FrameSlice(
                frame=self.frame,
                start=start,
                stop=min(start + self.chunk_size, total),
            )


def replay(
    trace: TrainingTrace | TraceFrame, chunk_size: int = 1
) -> TraceReplayFeed:
    """Shorthand for :class:`TraceReplayFeed`."""
    return TraceReplayFeed(trace, chunk_size=chunk_size)
