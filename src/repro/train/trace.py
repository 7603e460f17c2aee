"""Training trace: the logged record of a (simulated) training epoch.

This is the artefact the SeqPoint methodology consumes — per-iteration
sequence lengths and runtimes (step 1 of the paper's Fig 10 flowchart)
plus the counters and kernel statistics the characterisation figures
need.

Since the columnar refactor the canonical storage is the numpy-backed
:class:`~repro.train.frame.TraceFrame`; :class:`TrainingTrace` is the
row-oriented compatibility view over it.  A trace constructed from
records columnarises on demand; a trace constructed from a frame
materialises :class:`IterationRecord` rows only when ``.records`` is
actually touched.  Mutations of the record list are version-tracked so
the cached frame is rebuilt exactly when it could have gone stale.

Traces serialise to the compact columnar ``repro.training-trace.v2``
JSON schema (v1 files load transparently), so expensive epochs are
generated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import TraceError
from repro.hw.counters import CounterSet
from repro.train.frame import SCHEMA_V1, TraceFrame
from repro.util.serialize import dump_json

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


class _RecordList(list):
    """A record list that version-stamps every mutation.

    :meth:`TrainingTrace.frame` compares the stamp against the one its
    cached frame was built from, so appends/clears through the public
    ``records`` list invalidate the columnar cache without any copying.
    """

    __slots__ = ("version",)

    def __init__(self, items: Iterable = ()):
        super().__init__(items)
        self.version = 0

    def _bump(self) -> None:
        self.version += 1


def _mutator(name):
    base = getattr(list, name)

    def wrapped(self, *args, **kwargs):
        self._bump()
        return base(self, *args, **kwargs)

    wrapped.__name__ = name
    return wrapped


for _name in (
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "__setitem__", "__delitem__", "__iadd__", "__imul__",
):
    setattr(_RecordList, _name, _mutator(_name))


class TrainingTrace:
    """An epoch (or more) of iteration records plus phase accounting.

    Thin row-oriented view over a columnar :class:`TraceFrame`; all
    aggregate statistics delegate to vectorized column operations.
    """

    def __init__(
        self,
        model_name: str,
        dataset_name: str,
        config_name: str,
        batch_size: int,
        records: Iterable[IterationRecord] | None = None,
        autotune_s: float = 0.0,
        eval_s: float = 0.0,
    ):
        if batch_size <= 0:
            raise TraceError("batch_size must be positive")
        self.model_name = model_name
        self.dataset_name = dataset_name
        self.config_name = config_name
        self.batch_size = batch_size
        #: One-off autotune cost (paper §IV-C2; excluded from projections).
        self.autotune_s = autotune_s
        #: End-of-epoch evaluation phase (paper §IV-C1, the ~2-3%).
        self.eval_s = eval_s
        self._records: _RecordList | None = _RecordList(records or ())
        self._frame: TraceFrame | None = None
        self._frame_version = -1

    @classmethod
    def from_frame(cls, frame: TraceFrame) -> "TrainingTrace":
        """Wrap a columnar frame without materialising any records."""
        trace = cls(
            model_name=frame.model_name,
            dataset_name=frame.dataset_name,
            config_name=frame.config_name,
            batch_size=frame.batch_size,
            autotune_s=frame.autotune_s,
            eval_s=frame.eval_s,
        )
        trace._records = None
        trace._frame = frame
        return trace

    # -- the two representations --------------------------------------

    @property
    def records(self) -> list[IterationRecord]:
        """Row-oriented view; materialised from the frame on first use."""
        if self._records is None:
            self._records = _RecordList(self._frame.build_records())
            self._frame_version = self._records.version
        return self._records

    @records.setter
    def records(self, records: Iterable[IterationRecord]) -> None:
        self._records = _RecordList(records)
        self._frame = None
        self._frame_version = -1

    def frame(self) -> TraceFrame:
        """The canonical columnar form, rebuilt only after mutations."""
        if self._records is None:
            frame = self._frame
        else:
            if (
                self._frame is None
                or self._frame_version != self._records.version
            ):
                self._frame = TraceFrame.from_records(
                    model_name=self.model_name,
                    dataset_name=self.dataset_name,
                    config_name=self.config_name,
                    batch_size=self.batch_size,
                    records=self._records,
                    autotune_s=self.autotune_s,
                    eval_s=self.eval_s,
                )
                self._frame_version = self._records.version
            frame = self._frame
        if frame.autotune_s != self.autotune_s or frame.eval_s != self.eval_s:
            frame = frame.with_phases(self.autotune_s, self.eval_s)
            self._frame = frame
        return frame

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
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

    __hash__ = None  # mutable, like the former (unhashable) dataclass

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
        """Persist the trace; ``version=3`` (binary columnar) is default.

        ``version=2`` writes the columnar JSON schema (diffable);
        ``version=1`` writes the legacy row-oriented schema for
        interoperability with pre-columnar consumers.
        """
        if version in (2, 3):
            self.frame().save(path, version=version)
        elif version == 1:
            payload = {
                "model_name": self.model_name,
                "dataset_name": self.dataset_name,
                "config_name": self.config_name,
                "batch_size": self.batch_size,
                "autotune_s": self.autotune_s,
                "eval_s": self.eval_s,
                "records": [
                    {
                        "index": r.index,
                        "epoch": r.epoch,
                        "seq_len": r.seq_len,
                        "tgt_len": r.tgt_len,
                        "time_s": r.time_s,
                        "launches": r.launches,
                        "counters": r.counters.as_dict(),
                        "group_times": r.group_times,
                        "kernel_names": sorted(r.kernel_names),
                    }
                    for r in self.records
                ],
            }
            dump_json(payload, path, SCHEMA_V1)
        else:
            raise TraceError(f"unknown trace format version {version!r}")

    @classmethod
    def load(cls, path: str | Path) -> "TrainingTrace":
        """Load a v3 (binary), v2 (columnar), or v1 (row) artefact."""
        return cls.from_frame(TraceFrame.load(path))
