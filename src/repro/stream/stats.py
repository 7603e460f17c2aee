"""Incremental per-SL statistics over a growing iteration stream.

:class:`StreamingSlStatistics` is the online twin of
:class:`~repro.core.sl_stats.SlStatistics`: it absorbs iterations as
they arrive — each arrival is a columnar chunk ``frame[start:stop)`` of
a :class:`~repro.train.frame.TraceFrame` (a live producer's records
become a one-chunk frame first) — into growable numpy columns plus
per-SL running accumulators, and can at any moment produce

* a :class:`~repro.train.frame.TraceFrame` of the prefix consumed so
  far (:meth:`frame`), and
* an :class:`~repro.core.sl_stats.SlStatistics` of that prefix
  (:meth:`statistics`) that is **bit-identical** to the batch group-by
  ``SlStatistics.from_trace(prefix_frame)``.

Bit-identity holds because the running totals accumulate in arrival
order — the exact addition sequence ``np.bincount`` performs over the
batch column, however the stream is chunked — and the representative
search runs the same vectorized deviation + stable lexsort the batch
path uses.  The equivalence is
asserted across chunkings in ``tests/test_stream_equivalence.py`` and
property-tested over random traces in ``tests/test_properties_stream.py``.

The produced frame carries the incrementally built statistics in its
memo, so selectors running on it (via ``SlStatistics.from_trace``)
reuse the streaming group-by instead of recomputing it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.core.sl_stats import SlStatistics
from repro.train.frame import IterationProfile, TraceFrame
from repro.util.stats import sequential_sum

__all__ = ["StreamingSlStatistics"]


class _Column:
    """A growable numpy column with amortised-doubling appends."""

    __slots__ = ("_buffer", "_size")

    def __init__(self, dtype, capacity: int = 64):
        self._buffer = np.empty(capacity, dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed > self._buffer.size:
            capacity = self._buffer.size
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=self._buffer.dtype)
            grown[: self._size] = self._buffer[: self._size]
            self._buffer = grown

    def extend(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._buffer.dtype)
        self._reserve(values.size)
        self._buffer[self._size : self._size + values.size] = values
        self._size += values.size

    def view(self) -> np.ndarray:
        """The live prefix (a view — copy before handing it out)."""
        return self._buffer[: self._size]


class StreamingSlStatistics:
    """Online per-SL statistics of a growing trace prefix.

    Construct with the trace metadata (or :meth:`for_frame` to copy it
    from an existing frame), then :meth:`absorb_frame` chunks as they
    arrive.  ``autotune_s``/``eval_s`` default to zero: one-off phases
    are not part of the iteration stream.
    """

    def __init__(
        self,
        model_name: str = "stream",
        dataset_name: str = "stream",
        config_name: str = "stream",
        batch_size: int = 1,
        autotune_s: float = 0.0,
        eval_s: float = 0.0,
    ):
        if batch_size <= 0:
            raise TraceError("batch_size must be positive")
        self.model_name = model_name
        self.dataset_name = dataset_name
        self.config_name = config_name
        self.batch_size = batch_size
        self.autotune_s = autotune_s
        self.eval_s = eval_s
        self._index = _Column(np.int64)
        self._epoch = _Column(np.int64)
        self._seq_len = _Column(np.int64)
        self._tgt_len = _Column(np.int64)
        self._time_s = _Column(np.float64)
        self._profile_id = _Column(np.int64)
        self._profiles: list[IterationProfile] = []
        self._pool: dict[tuple, int] = {}
        #: Per-SL running (count, total) in arrival order — the same
        #: addition sequence np.bincount performs on the batch column.
        self._counts: dict[int, int] = {}
        self._totals: dict[int, float] = {}
        self._frame_cache: tuple[int, TraceFrame] | None = None
        self._stats_cache: tuple[int, SlStatistics] | None = None

    @classmethod
    def for_frame(cls, frame: TraceFrame) -> "StreamingSlStatistics":
        """An empty accumulator carrying ``frame``'s trace metadata."""
        return cls(
            model_name=frame.model_name,
            dataset_name=frame.dataset_name,
            config_name=frame.config_name,
            batch_size=frame.batch_size,
            autotune_s=frame.autotune_s,
            eval_s=frame.eval_s,
        )

    # -- shape --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return (
            f"StreamingSlStatistics({self.model_name!r}, "
            f"iterations={len(self)}, unique_sls={len(self._counts)})"
        )

    @property
    def iterations(self) -> int:
        return len(self)

    @property
    def unique_seq_lens(self) -> int:
        return len(self._counts)

    @property
    def total_time_s(self) -> float:
        return sequential_sum([self._totals[sl] for sl in sorted(self._totals)])

    def mean_times(self) -> dict[int, float]:
        """Current mean runtime per unique SL (drift-guard input)."""
        return {
            sl: self._totals[sl] / self._counts[sl]
            for sl in sorted(self._counts)
        }

    def iteration_counts(self) -> dict[int, int]:
        """Current iteration count per unique SL (drift-guard input)."""
        return {sl: self._counts[sl] for sl in sorted(self._counts)}

    # -- absorption ---------------------------------------------------

    def _pool_profile(self, profile: IterationProfile) -> int:
        key = profile.dedup_key()
        pid = self._pool.get(key)
        if pid is None:
            pid = self._pool[key] = len(self._profiles)
            self._profiles.append(profile)
        return pid

    def absorb_frame(
        self, frame: TraceFrame, start: int = 0, stop: int | None = None
    ) -> None:
        """Absorb ``frame[start:stop]`` as one columnar chunk.

        Columns append as slices, and each distinct source profile maps
        through the pool once per chunk, in first-appearance order.
        """
        stop = len(frame) if stop is None else stop
        if not 0 <= start <= stop <= len(frame):
            raise TraceError(
                f"chunk [{start}, {stop}) outside the {len(frame)}-iteration frame"
            )
        if start == stop:
            return
        seq_chunk = frame.seq_len[start:stop]
        time_chunk = frame.time_s[start:stop]
        if np.any(time_chunk <= 0.0):
            raise TraceError(f"iteration {len(self)}: non-positive time")
        finite = np.isfinite(time_chunk)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise TraceError(
                f"iteration {len(self) + bad}: non-finite time "
                f"{float(time_chunk[bad])!r}"
            )
        # Bulk-advance the running accumulators while preserving the
        # exact per-SL addition sequence: each SL's existing total rides
        # as a leading weight, and ``np.bincount`` folds weights
        # element by element in arrival order — so every total is the
        # same left fold one-iteration chunks produce, bit for bit
        # (``0.0 + old == old`` exactly for the seeded leading weight).
        seq_lens, inverse = np.unique(seq_chunk, return_inverse=True)
        inverse = inverse.reshape(-1)
        bins = seq_lens.size
        old_totals = np.fromiter(
            (self._totals.get(sl, 0.0) for sl in seq_lens.tolist()),
            np.float64,
            bins,
        )
        new_totals = np.bincount(
            np.concatenate((np.arange(bins, dtype=np.int64), inverse)),
            weights=np.concatenate((old_totals, time_chunk)),
            minlength=bins,
        )
        new_counts = np.bincount(inverse, minlength=bins)
        for position, sl in enumerate(seq_lens.tolist()):
            self._counts[sl] = self._counts.get(sl, 0) + int(
                new_counts[position]
            )
            self._totals[sl] = float(new_totals[position])
        self._index.extend(frame.index[start:stop])
        self._epoch.extend(frame.epoch[start:stop])
        self._seq_len.extend(seq_chunk)
        self._tgt_len.extend(frame.tgt_len[start:stop])
        self._time_s.extend(time_chunk)
        source_ids = frame.profile_id[start:stop]
        unique_ids, first_index = np.unique(source_ids, return_index=True)
        # Pool in first-appearance order (the dedupe_shapes idiom), as
        # one-iteration chunks do, so the pooled ids and their order
        # never depend on how the stream was chunked.
        arrival = unique_ids[np.argsort(first_index, kind="stable")]
        lookup = np.zeros(int(unique_ids[-1]) + 1, dtype=np.int64)
        lookup[arrival] = np.fromiter(
            (self._pool_profile(frame.profiles[pid]) for pid in arrival.tolist()),
            np.int64,
            arrival.size,
        )
        self._profile_id.extend(lookup[source_ids])

    # -- snapshots ----------------------------------------------------

    def frame(self) -> TraceFrame:
        """The consumed prefix as an immutable columnar frame.

        Rebuilt only when iterations were absorbed since the last call;
        the frame's memo carries the incrementally built per-SL
        statistics so downstream selectors share the streaming group-by.
        """
        if self._frame_cache is not None and self._frame_cache[0] == len(self):
            return self._frame_cache[1]
        if len(self) == 0:
            raise TraceError("no iterations absorbed yet")
        frame = TraceFrame(
            model_name=self.model_name,
            dataset_name=self.dataset_name,
            config_name=self.config_name,
            batch_size=self.batch_size,
            index=self._index.view().copy(),
            epoch=self._epoch.view().copy(),
            seq_len=self._seq_len.view().copy(),
            tgt_len=self._tgt_len.view().copy(),
            time_s=self._time_s.view().copy(),
            profile_id=self._profile_id.view().copy(),
            profiles=tuple(self._profiles),
            autotune_s=self.autotune_s,
            eval_s=self.eval_s,
        )
        self._frame_cache = (len(self), frame)
        return frame

    def statistics(self) -> SlStatistics:
        """Per-SL statistics of the prefix, from the running state.

        Counts and totals come straight from the accumulators; the
        representative search runs through the *shared* batch code path
        (:meth:`SlStatistics.from_grouped`), so the result is
        bit-identical to regrouping the prefix from scratch by
        construction.
        """
        if self._stats_cache is not None and self._stats_cache[0] == len(self):
            return self._stats_cache[1]
        frame = self.frame()
        seq_lens = np.fromiter(sorted(self._counts), np.int64, len(self._counts))
        counts = np.fromiter(
            (self._counts[sl] for sl in seq_lens.tolist()),
            np.int64,
            seq_lens.size,
        )
        totals = np.fromiter(
            (self._totals[sl] for sl in seq_lens.tolist()),
            np.float64,
            seq_lens.size,
        )
        # seq_lens is sorted-unique, so searchsorted reproduces the
        # inverse np.unique would return for the batch column; the
        # representative search itself is the shared batch code path.
        inverse = np.searchsorted(seq_lens, frame.seq_len)
        result = SlStatistics.from_grouped(
            frame, seq_lens, counts, totals, inverse
        )
        # Seed the frame's memo: SlStatistics.from_trace(frame) — what
        # every selector calls — now returns this object directly.
        frame.cached("sl_statistics", lambda: result)
        self._stats_cache = (len(self), result)
        return result
