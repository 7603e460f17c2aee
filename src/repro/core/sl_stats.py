"""Per-sequence-length statistics of a training trace.

Step 1 of the paper's mechanism: "calculate statistic *stat* per unique
sequence length".  For each unique SL the epoch exercised we keep its
iteration count (the weight source), its mean runtime (the clustered
statistic), and a representative iteration record (the actual iteration
a profiler would re-run).

The computation is a vectorized group-by over the trace's columnar
frame (``np.unique`` + ``np.bincount``) and is memoised on the frame,
so a sweep of selectors over one trace pays for the grouping once.  The
accumulation order matches the original per-record scan, keeping every
statistic bit-identical to the interpreted implementation.

The statistics stay columnar: one entry per unique SL in each of
``seq_lens_column``, ``iterations_column``, ``totals_column`` and
``means_column``, plus the representative rows as a compact frame of
their own.  :class:`SlStat` views and their :class:`IterationRecord`
representatives are built only when read, so the SeqPoint k-sweep,
which reads only the columns, builds records for its selected points
alone.  The statistics hold copies of the representative rows, never
the frame, so a frame's memo holds no reference cycle through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import TraceError
from repro.train.frame import TraceFrame, as_frame
from repro.train.trace import IterationRecord, TrainingTrace
from repro.util.stats import sequential_sum

__all__ = ["SlStat", "SlStatistics"]


@dataclass(frozen=True, eq=False)
class SlStat:
    """Statistics of all iterations at one unique sequence length."""

    seq_len: int
    iterations: int
    mean_time_s: float
    total_time_s: float
    #: The representative rows of the statistics this SL belongs to,
    #: and this SL's position among them.
    rows: TraceFrame = field(repr=False)
    row: int = field(repr=False)

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise TraceError(f"SL {self.seq_len}: no iterations")

    @cached_property
    def representative(self) -> IterationRecord:
        """The logged iteration whose runtime is closest to the mean —
        the concrete iteration to re-execute when this SL is selected."""
        return self.rows.record(self.row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlStat):
            return NotImplemented
        return (
            self.seq_len == other.seq_len
            and self.iterations == other.iterations
            and self.mean_time_s == other.mean_time_s
            and self.total_time_s == other.total_time_s
            and self.representative == other.representative
        )


class SlStatistics:
    """All per-SL statistics of one epoch, ordered by sequence length."""

    def __init__(
        self,
        seq_lens: np.ndarray,
        counts: np.ndarray,
        totals: np.ndarray,
        means: np.ndarray,
        representatives: TraceFrame,
    ):
        self.seq_lens_column = np.asarray(seq_lens, dtype=np.int64)
        self.iterations_column = np.asarray(counts, dtype=np.int64)
        self.totals_column = np.asarray(totals, dtype=np.float64)
        self.means_column = np.asarray(means, dtype=np.float64)
        #: One row per unique SL: the first logged iteration attaining
        #: the minimal ``|time - mean|`` at that SL.
        self.representatives = representatives

    @classmethod
    def from_trace(
        cls, trace: TrainingTrace | TraceFrame
    ) -> "SlStatistics":
        """Group a trace (or its frame) by unique sequence length."""
        frame = as_frame(trace)
        if len(frame) == 0:
            raise TraceError("cannot compute SL statistics of an empty trace")
        return frame.cached("sl_statistics", lambda: cls._from_frame(frame))

    @classmethod
    def _from_frame(cls, frame: TraceFrame) -> "SlStatistics":
        finite = np.isfinite(frame.time_s)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise TraceError(
                f"iteration {int(frame.index[bad])}: non-finite time "
                f"{float(frame.time_s[bad])!r}"
            )
        seq_lens, inverse, counts = np.unique(
            frame.seq_len, return_inverse=True, return_counts=True
        )
        inverse = inverse.reshape(-1)
        # bincount accumulates in array order, matching the sequential
        # per-group sums of the original scan bit for bit.
        totals = np.bincount(
            inverse, weights=frame.time_s, minlength=seq_lens.size
        )
        return cls.from_grouped(frame, seq_lens, counts, totals, inverse)

    @classmethod
    def from_grouped(
        cls,
        frame: TraceFrame,
        seq_lens: np.ndarray,
        counts: np.ndarray,
        totals: np.ndarray,
        inverse: np.ndarray,
    ) -> "SlStatistics":
        """Build statistics from an already computed grouping.

        The one representative-search implementation shared by the
        batch group-by above and the incremental accumulator
        (:class:`repro.stream.stats.StreamingSlStatistics`), so their
        asserted bit-identity cannot drift: ``seq_lens`` are the sorted
        unique SLs, ``counts``/``totals`` their per-group aggregates
        (accumulated in iteration order), and ``inverse`` maps each of
        ``frame``'s iterations onto its group.
        """
        times = frame.time_s
        means = totals / counts
        # Representative per SL: first record attaining the minimal
        # |time - mean| (ties resolved by iteration order, as min() did).
        deviation = np.abs(times - means[inverse])
        order = np.lexsort((np.arange(times.size), deviation, inverse))
        group_starts = np.searchsorted(
            inverse[order], np.arange(seq_lens.size)
        )
        return cls(
            seq_lens, counts, totals, means, frame.take(order[group_starts])
        )

    def __len__(self) -> int:
        return int(self.seq_lens_column.size)

    def __iter__(self):
        return iter(self.stats)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlStatistics):
            return NotImplemented
        return self.stats == other.stats

    def __repr__(self) -> str:
        return f"SlStatistics(unique_sls={len(self)})"

    @cached_property
    def stats(self) -> tuple[SlStat, ...]:
        """Per-SL views, built on first access."""
        return tuple(
            SlStat(
                seq_len=seq_len,
                iterations=count,
                mean_time_s=mean,
                total_time_s=total,
                rows=self.representatives,
                row=row,
            )
            for row, (seq_len, count, mean, total) in enumerate(
                zip(
                    self.seq_lens_column.tolist(),
                    self.iterations_column.tolist(),
                    self.means_column.tolist(),
                    self.totals_column.tolist(),
                )
            )
        )

    @property
    def total_time_s(self) -> float:
        return sequential_sum(self.totals_column)

    @property
    def total_iterations(self) -> int:
        return int(self.iterations_column.sum())

    @property
    def min_seq_len(self) -> int:
        return int(self.seq_lens_column[0])

    @property
    def max_seq_len(self) -> int:
        return int(self.seq_lens_column[-1])

    def for_seq_len(self, seq_len: int) -> SlStat:
        position = int(np.searchsorted(self.seq_lens_column, seq_len))
        if position < len(self) and self.seq_lens_column[position] == seq_len:
            return self.stats[position]
        raise TraceError(f"no iterations at sequence length {seq_len}")
