"""Training trace: the logged record of a (simulated) training epoch.

This is the artefact the SeqPoint methodology consumes — per-iteration
sequence lengths and runtimes (step 1 of the paper's Fig 10 flowchart)
plus the counters and kernel statistics the characterisation figures
need.

The one trace form is the numpy-backed
:class:`~repro.train.frame.TraceFrame`; :class:`TrainingTrace` is a
read-only row-oriented view over exactly one frame.  A trace
constructed from records is columnarised once, at construction; its
``records`` are a tuple of :class:`IterationRecord` views built from
the frame on first read.  Nothing about a trace changes after it is
built.

Traces serialise to the binary columnar ``repro.training-trace.v3``
container or the columnar ``repro.training-trace.v2`` JSON (legacy v1
row files still load), so expensive epochs are generated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import TraceError
from repro.hw.counters import CounterSet
from repro.train.frame import TraceFrame

__all__ = ["IterationRecord", "TrainingTrace"]


@dataclass(frozen=True)
class IterationRecord:
    """One training iteration as logged by the runner."""

    index: int
    epoch: int
    seq_len: int
    tgt_len: int | None
    time_s: float
    launches: int
    counters: CounterSet
    group_times: dict[str, float]
    kernel_names: frozenset[str]

    def __post_init__(self) -> None:
        if self.time_s <= 0:
            raise TraceError(f"iteration {self.index}: non-positive time")
        if not math.isfinite(self.time_s):
            raise TraceError(
                f"iteration {self.index}: non-finite time "
                f"{float(self.time_s)!r}"
            )


class TrainingTrace:
    """An epoch (or more) of iterations plus phase accounting.

    A read-only row-oriented view over exactly one immutable
    :class:`TraceFrame`: the metadata and one-off phase totals are read
    from the frame, and all aggregate statistics delegate to vectorized
    column operations.
    """

    __slots__ = ("_frame", "_records")

    def __init__(
        self,
        model_name: str,
        dataset_name: str,
        config_name: str,
        batch_size: int,
        records: Iterable[IterationRecord] = (),
        autotune_s: float = 0.0,
        eval_s: float = 0.0,
    ):
        self._frame = TraceFrame.from_records(
            model_name=model_name,
            dataset_name=dataset_name,
            config_name=config_name,
            batch_size=batch_size,
            records=records,
            autotune_s=autotune_s,
            eval_s=eval_s,
        )
        self._records: tuple[IterationRecord, ...] | None = None

    @classmethod
    def from_frame(cls, frame: TraceFrame) -> "TrainingTrace":
        """Wrap a columnar frame without materialising any records."""
        trace = cls.__new__(cls)
        trace._frame = frame
        trace._records = None
        return trace

    # -- the frame and its row views ----------------------------------

    @property
    def model_name(self) -> str:
        return self._frame.model_name

    @property
    def dataset_name(self) -> str:
        return self._frame.dataset_name

    @property
    def config_name(self) -> str:
        return self._frame.config_name

    @property
    def batch_size(self) -> int:
        return self._frame.batch_size

    @property
    def autotune_s(self) -> float:
        """One-off autotune cost (paper §IV-C2; excluded from projections)."""
        return self._frame.autotune_s

    @property
    def eval_s(self) -> float:
        """End-of-epoch evaluation phase (paper §IV-C1, the ~2-3%)."""
        return self._frame.eval_s

    @property
    def records(self) -> tuple[IterationRecord, ...]:
        """Read-only row views, built from the frame on first read."""
        if self._records is None:
            self._records = self._frame.build_records()
        return self._records

    def frame(self) -> TraceFrame:
        """The canonical columnar form."""
        return self._frame

    def __len__(self) -> int:
        return len(self._frame)

    def __repr__(self) -> str:
        return (
            f"TrainingTrace({self.model_name!r}, {self.dataset_name!r}, "
            f"{self.config_name!r}, iterations={len(self)})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality, as the former dataclass provided."""
        if not isinstance(other, TrainingTrace):
            return NotImplemented
        return (
            self.model_name == other.model_name
            and self.dataset_name == other.dataset_name
            and self.config_name == other.config_name
            and self.batch_size == other.batch_size
            and self.autotune_s == other.autotune_s
            and self.eval_s == other.eval_s
            and self.records == other.records
        )

    __hash__ = None  # equality compares rows, which are not hashed

    # -- aggregate statistics (delegated to the columnar core) --------

    @property
    def total_time_s(self) -> float:
        """Training-iteration time (the paper's projected statistic)."""
        return self.frame().total_time_s

    @property
    def wall_time_s(self) -> float:
        """Everything a stopwatch would see, including one-off phases."""
        return self.total_time_s + self.autotune_s + self.eval_s

    @property
    def samples(self) -> int:
        return len(self) * self.batch_size

    @property
    def throughput(self) -> float:
        """Training throughput in samples/s (the speedup statistic)."""
        total = self.total_time_s
        if total <= 0:
            raise TraceError("empty trace has no throughput")
        return self.samples / total

    def seq_lens(self) -> list[int]:
        return self.frame().seq_len.tolist()

    def unique_seq_lens(self) -> list[int]:
        return self.frame().unique_seq_lens()

    def iteration_histogram(self) -> dict[int, int]:
        """Iteration count per unique sequence length (Fig 7 per-batch)."""
        return self.frame().iteration_histogram()

    def records_for_seq_len(self, seq_len: int) -> list[IterationRecord]:
        frame = self.frame()
        return [frame.record(int(i)) for i in frame.indices_for_seq_len(seq_len)]

    # -- persistence -------------------------------------------------

    def save(self, path: str | Path, *, version: int = 3) -> None:
        """Persist the trace: ``version=3`` binary columnar (default) or
        ``version=2`` columnar JSON (diffable)."""
        self._frame.save(path, version=version)

    @classmethod
    def load(cls, path: str | Path) -> "TrainingTrace":
        """Load a v3 (binary), v2 (columnar), or v1 (row) artefact."""
        return cls.from_frame(TraceFrame.load(path))
