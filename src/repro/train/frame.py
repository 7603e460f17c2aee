"""Columnar trace core: the canonical in-memory form of a trace.

SeqPoint's own premise (Key Observation 4) is that an epoch is dominated
by a small set of unique ``(batch, seq_len, tgt_len)`` shapes whose
iterations are bit-identical before measurement noise.  A
:class:`TraceFrame` exploits that twice:

* the *per-iteration* data that genuinely varies (index, epoch,
  sequence lengths, noised runtime) lives in parallel numpy columns, so
  every analysis (per-SL statistics, binning, histograms, projections)
  is a vectorized column operation instead of an interpreted scan of
  record objects;
* the *shape-invariant* payload (launch count, hardware counters,
  kernel-group times, kernel names) is stored once per unique shape in
  an :class:`IterationProfile` pool, with an integer ``profile_id``
  column mapping iterations onto it.

:class:`~repro.train.trace.TrainingTrace` and
:class:`~repro.train.trace.IterationRecord` are read-only row views
over one frame; records are built from it on demand, and a record list
becomes a frame once, through :meth:`TraceFrame.from_records`.

Frames serialise to the binary columnar ``repro.training-trace.v3``
container by default — an mmap-able ``.npt`` file whose cold load is a
handful of zero-copy dtype views plus an O(unique shapes) profile-pool
rebuild, no per-row parsing — or to the compact columnar v2 JSON
(``save(version=2)``, diffable).  Legacy v1 row JSON still loads but is
never written.  Every format round-trips bit-exactly: v3 stores the raw
float64 column bytes, and JSON uses shortest-round-trip float repr.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, TypeVar

import numpy as np

from repro.errors import TraceError
from repro.hw.counters import CounterSet
from repro.util.npt import ColumnStore, is_npt, write_columns
from repro.util.serialize import dump_json, read_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.train.trace import IterationRecord, TrainingTrace

__all__ = [
    "IterationProfile",
    "TraceFrame",
    "as_frame",
    "dedupe_shapes",
    "SCHEMA_V1",
    "SCHEMA_V2",
    "SCHEMA_V3",
]

SCHEMA_V1 = "repro.training-trace.v1"
SCHEMA_V2 = "repro.training-trace.v2"
SCHEMA_V3 = "repro.training-trace.v3"

#: Sentinel in the ``tgt_len`` column for "no target side" (single-ended
#: networks such as DS2).
NO_TGT = -1

_COUNTER_FIELDS = tuple(f.name for f in dataclass_fields(CounterSet))

_T = TypeVar("_T")


@dataclass(frozen=True)
class IterationProfile:
    """Shape-invariant payload shared by all iterations of one shape.

    Everything here is fully determined by the iteration's padded input
    shape (before run-to-run noise), which is why one profile can back
    arbitrarily many iterations.
    """

    launches: int
    counters: CounterSet
    group_times: dict[str, float]
    kernel_names: frozenset[str]

    def dedup_key(self) -> tuple:
        """Hashable identity used to pool equal profiles."""
        return (
            self.launches,
            self.counters,
            tuple(sorted(self.group_times.items())),
            self.kernel_names,
        )


class TraceFrame:
    """Numpy-backed columnar representation of a training trace.

    Parallel columns (one entry per iteration): ``index``, ``epoch``,
    ``seq_len``, ``tgt_len`` (``NO_TGT`` where absent), ``time_s``, and
    ``profile_id`` into the :attr:`profiles` pool.  Per-counter and
    per-kernel-group columns are derived lazily from the pool by fancy
    indexing.  Frames are treated as immutable; derived results may be
    memoised on them via :meth:`cached`.
    """

    __slots__ = (
        "model_name",
        "dataset_name",
        "config_name",
        "batch_size",
        "autotune_s",
        "eval_s",
        "index",
        "epoch",
        "seq_len",
        "tgt_len",
        "time_s",
        "profile_id",
        "_profiles",
        "storage",
        "_memo",
    )

    def __init__(
        self,
        model_name: str,
        dataset_name: str,
        config_name: str,
        batch_size: int,
        index: np.ndarray,
        epoch: np.ndarray,
        seq_len: np.ndarray,
        tgt_len: np.ndarray,
        time_s: np.ndarray,
        profile_id: np.ndarray,
        profiles: "tuple[IterationProfile, ...] | Callable[[], list[IterationProfile]]",
        autotune_s: float = 0.0,
        eval_s: float = 0.0,
        storage: ColumnStore | None = None,
    ):
        if batch_size <= 0:
            raise TraceError("batch_size must be positive")
        self.model_name = model_name
        self.dataset_name = dataset_name
        self.config_name = config_name
        self.batch_size = batch_size
        self.autotune_s = autotune_s
        self.eval_s = eval_s
        self.index = np.asarray(index, dtype=np.int64)
        self.epoch = np.asarray(epoch, dtype=np.int64)
        self.seq_len = np.asarray(seq_len, dtype=np.int64)
        self.tgt_len = np.asarray(tgt_len, dtype=np.int64)
        self.time_s = np.asarray(time_s, dtype=np.float64)
        self.profile_id = np.asarray(profile_id, dtype=np.int64)
        # A zero-arg callable defers the pool (v3 binary loads pass a
        # thunk over the container's CSR columns); it materialises on
        # first touch via the ``profiles`` property.
        self._profiles = profiles if callable(profiles) else tuple(profiles)
        #: The mmap-backed column container this frame views (v3 loads
        #: only); pins the mapping for the frame's lifetime and reports
        #: the real on-disk footprint to the cache's byte accounting.
        self.storage = storage
        self._memo: dict[str, Any] = {}
        n = self.index.size
        for name in ("epoch", "seq_len", "tgt_len", "time_s", "profile_id"):
            if getattr(self, name).size != n:
                raise TraceError(
                    f"column {name!r} has {getattr(self, name).size} entries, "
                    f"expected {n}"
                )
        if n:
            finite = np.isfinite(self.time_s)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise TraceError(
                    f"iteration {int(self.index[bad])}: non-finite time "
                    f"{float(self.time_s[bad])!r}"
                )
            if self.time_s.min() <= 0.0:
                bad = int(self.index[int(np.argmin(self.time_s))])
                raise TraceError(f"iteration {bad}: non-positive time")
            lo, hi = int(self.profile_id.min()), int(self.profile_id.max())
            pool = None if callable(self._profiles) else len(self._profiles)
            if lo < 0 or (pool is not None and hi >= pool):
                raise TraceError(
                    f"profile_id range [{lo}, {hi}] outside the "
                    f"{pool}-entry profile pool"
                )

    # -- construction -------------------------------------------------

    @classmethod
    def from_records(
        cls,
        model_name: str,
        dataset_name: str,
        config_name: str,
        batch_size: int,
        records: "Iterable[IterationRecord]",
        autotune_s: float = 0.0,
        eval_s: float = 0.0,
    ) -> "TraceFrame":
        """Columnarise a row-oriented record sequence, once."""
        records = tuple(records)
        pool: dict[tuple, int] = {}
        profiles: list[IterationProfile] = []
        profile_id = np.empty(len(records), dtype=np.int64)
        for position, record in enumerate(records):
            profile = IterationProfile(
                launches=record.launches,
                counters=record.counters,
                # The pool owns its dict: later mutation of the source
                # record's group_times must not corrupt the profile.
                group_times=dict(record.group_times),
                kernel_names=record.kernel_names,
            )
            key = profile.dedup_key()
            pid = pool.get(key)
            if pid is None:
                pid = pool[key] = len(profiles)
                profiles.append(profile)
            profile_id[position] = pid
        n = len(records)
        return cls(
            model_name=model_name,
            dataset_name=dataset_name,
            config_name=config_name,
            batch_size=batch_size,
            index=np.fromiter((r.index for r in records), np.int64, n),
            epoch=np.fromiter((r.epoch for r in records), np.int64, n),
            seq_len=np.fromiter((r.seq_len for r in records), np.int64, n),
            tgt_len=np.fromiter(
                (NO_TGT if r.tgt_len is None else r.tgt_len for r in records),
                np.int64,
                n,
            ),
            time_s=np.fromiter((r.time_s for r in records), np.float64, n),
            profile_id=profile_id,
            profiles=tuple(profiles),
            autotune_s=autotune_s,
            eval_s=eval_s,
        )

    def slice(self, start: int, stop: int) -> "TraceFrame":
        """The sub-frame of iterations ``[start, stop)``.

        Columns are numpy views into this frame and the profile pool is
        shared, so slicing is O(1); one-off phase times stay with the
        parent (a slice is a window on the iteration stream, not a
        smaller run).
        """
        if not 0 <= start < stop <= len(self):
            raise TraceError(
                f"slice [{start}, {stop}) outside the "
                f"{len(self)}-iteration frame"
            )
        return TraceFrame(
            model_name=self.model_name,
            dataset_name=self.dataset_name,
            config_name=self.config_name,
            batch_size=self.batch_size,
            index=self.index[start:stop],
            epoch=self.epoch[start:stop],
            seq_len=self.seq_len[start:stop],
            tgt_len=self.tgt_len[start:stop],
            time_s=self.time_s[start:stop],
            profile_id=self.profile_id[start:stop],
            profiles=self._profiles,
            storage=self.storage,
        )

    def take(self, rows: np.ndarray) -> "TraceFrame":
        """A compact frame of the iterations at ``rows``, in that order.

        The columns are copies and the profile pool is shared (and
        materialised), so the result keeps neither this frame nor its
        columns alive.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return TraceFrame(
            model_name=self.model_name,
            dataset_name=self.dataset_name,
            config_name=self.config_name,
            batch_size=self.batch_size,
            index=self.index[rows],
            epoch=self.epoch[rows],
            seq_len=self.seq_len[rows],
            tgt_len=self.tgt_len[rows],
            time_s=self.time_s[rows],
            profile_id=self.profile_id[rows],
            profiles=self.profiles,
        )

    def with_phases(self, autotune_s: float, eval_s: float) -> "TraceFrame":
        """A frame sharing these columns with different phase totals."""
        return TraceFrame(
            model_name=self.model_name,
            dataset_name=self.dataset_name,
            config_name=self.config_name,
            batch_size=self.batch_size,
            index=self.index,
            epoch=self.epoch,
            seq_len=self.seq_len,
            tgt_len=self.tgt_len,
            time_s=self.time_s,
            profile_id=self.profile_id,
            profiles=self._profiles,
            autotune_s=autotune_s,
            eval_s=eval_s,
            storage=self.storage,
        )

    # -- basic shape --------------------------------------------------

    @property
    def profiles(self) -> tuple[IterationProfile, ...]:
        """The interned profile pool, materialising a deferred one."""
        pool = self._profiles
        if callable(pool):
            pool = self._profiles = tuple(pool())
        return pool

    def __len__(self) -> int:
        return int(self.index.size)

    def __repr__(self) -> str:
        return (
            f"TraceFrame({self.model_name!r}, {self.dataset_name!r}, "
            f"{self.config_name!r}, iterations={len(self)}, "
            f"profiles={len(self.profiles)})"
        )

    def cached(self, key: str, build: Callable[[], _T]) -> _T:
        """Memoise ``build()`` on this (immutable) frame under ``key``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- aggregate statistics (vectorized) ----------------------------

    @property
    def total_time_s(self) -> float:
        """Training-iteration time (the paper's projected statistic)."""
        return float(self.time_s.sum())

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

    def unique_seq_lens(self) -> list[int]:
        return self.cached(
            "unique_seq_lens", lambda: np.unique(self.seq_len).tolist()
        )

    def iteration_histogram(self) -> dict[int, int]:
        """Iteration count per unique sequence length (Fig 7 per-batch)."""
        def build() -> dict[int, int]:
            values, counts = np.unique(self.seq_len, return_counts=True)
            return dict(zip(values.tolist(), counts.tolist()))

        return self.cached("iteration_histogram", build)

    def indices_for_seq_len(self, seq_len: int) -> np.ndarray:
        return np.flatnonzero(self.seq_len == seq_len)

    # -- derived columns ----------------------------------------------

    @property
    def launches(self) -> np.ndarray:
        """Per-iteration kernel-launch counts."""
        def build() -> np.ndarray:
            per_profile = np.fromiter(
                (p.launches for p in self.profiles),
                np.int64,
                len(self.profiles),
            )
            return per_profile[self.profile_id]

        return self.cached("launches", build)

    @property
    def counter_names(self) -> tuple[str, ...]:
        return _COUNTER_FIELDS

    def counter_column(self, name: str) -> np.ndarray:
        """Per-iteration values of one hardware counter."""
        if name not in _COUNTER_FIELDS:
            raise TraceError(f"unknown counter {name!r}")

        def build() -> np.ndarray:
            per_profile = np.fromiter(
                (getattr(p.counters, name) for p in self.profiles),
                np.float64,
                len(self.profiles),
            )
            return per_profile[self.profile_id]

        return self.cached(f"counter:{name}", build)

    def counter_totals(self) -> CounterSet:
        """Whole-trace counter sums as one :class:`CounterSet`."""
        return CounterSet(
            **{
                name: float(self.counter_column(name).sum())
                for name in _COUNTER_FIELDS
            }
        )

    @property
    def groups(self) -> tuple[str, ...]:
        """All kernel-group names observed, sorted."""
        def build() -> tuple[str, ...]:
            names: set[str] = set()
            for profile in self.profiles:
                names.update(profile.group_times)
            return tuple(sorted(names))

        return self.cached("groups", build)

    def group_time_column(self, group: str) -> np.ndarray:
        """Per-iteration device seconds spent in one kernel group."""
        def build() -> np.ndarray:
            per_profile = np.fromiter(
                (p.group_times.get(group, 0.0) for p in self.profiles),
                np.float64,
                len(self.profiles),
            )
            return per_profile[self.profile_id]

        return self.cached(f"group:{group}", build)

    # -- row views ----------------------------------------------------

    def tgt_len_at(self, i: int) -> int | None:
        value = int(self.tgt_len[i])
        return None if value == NO_TGT else value

    def record(self, i: int) -> "IterationRecord":
        """Materialise one row as an :class:`IterationRecord` view."""
        from repro.train.trace import IterationRecord

        profile = self.profiles[int(self.profile_id[i])]
        return IterationRecord(
            index=int(self.index[i]),
            epoch=int(self.epoch[i]),
            seq_len=int(self.seq_len[i]),
            tgt_len=self.tgt_len_at(i),
            time_s=float(self.time_s[i]),
            launches=profile.launches,
            counters=profile.counters,
            # Each materialised record owns its dict: a caller mutating
            # one record must not reach siblings or the profile pool.
            group_times=dict(profile.group_times),
            kernel_names=profile.kernel_names,
        )

    def build_records(self) -> "tuple[IterationRecord, ...]":
        """Materialise every row (the full row-oriented view)."""
        return tuple(self.record(i) for i in range(len(self)))

    def to_trace(self) -> "TrainingTrace":
        """Wrap this frame in the read-only row-oriented view."""
        from repro.train.trace import TrainingTrace

        return TrainingTrace.from_frame(self)

    # -- persistence --------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """The columnar v2 document (without the schema stamp)."""
        return {
            "model_name": self.model_name,
            "dataset_name": self.dataset_name,
            "config_name": self.config_name,
            "batch_size": self.batch_size,
            "autotune_s": self.autotune_s,
            "eval_s": self.eval_s,
            "iterations": {
                "index": self.index.tolist(),
                "epoch": self.epoch.tolist(),
                "seq_len": self.seq_len.tolist(),
                "tgt_len": [
                    None if value == NO_TGT else value
                    for value in self.tgt_len.tolist()
                ],
                "time_s": self.time_s.tolist(),
                "profile": self.profile_id.tolist(),
            },
            "profiles": [
                {
                    "launches": profile.launches,
                    "counters": profile.counters.as_dict(),
                    "group_times": profile.group_times,
                    "kernel_names": sorted(profile.kernel_names),
                }
                for profile in self.profiles
            ],
        }

    def save(self, path: str | Path, *, version: int = 3) -> None:
        """Persist this frame as a trace artefact.

        Version 3 (the default) writes the binary columnar ``.npt``
        container; version 2 writes the diffable columnar JSON.  Both
        load back bit-identically via :meth:`load`.  Legacy v1 is
        read-only.
        """
        if version == 3:
            self._save_npt(path)
        elif version == 2:
            dump_json(self.to_payload(), path, SCHEMA_V2)
        else:
            raise TraceError(
                f"unknown trace format version {version!r}; writable "
                "versions are 3 (binary) and 2 (JSON)"
            )

    def _save_npt(self, path: str | Path) -> None:
        """Write the v3 binary container (columns + CSR profile pool).

        The profile pool is interned: group and kernel names live once
        in string tables in the header, and each profile's entries are
        integer ids in ragged CSR arrays.  Entries are stored sorted by
        name so a rebuilt pool iterates in the same order as a v2 JSON
        load (whose dicts come back in sorted-key order).
        """
        group_names = sorted({g for p in self.profiles for g in p.group_times})
        kernel_names = sorted({k for p in self.profiles for k in p.kernel_names})
        group_index = {name: i for i, name in enumerate(group_names)}
        kernel_index = {name: i for i, name in enumerate(kernel_names)}

        pool = len(self.profiles)
        launches = np.fromiter((p.launches for p in self.profiles), np.int64, pool)
        counters = np.array(
            [
                [getattr(p.counters, field) for field in _COUNTER_FIELDS]
                for p in self.profiles
            ],
            dtype=np.float64,
        ).reshape(pool, len(_COUNTER_FIELDS))

        group_offsets = np.zeros(pool + 1, dtype=np.int64)
        group_ids: list[int] = []
        group_values: list[float] = []
        kernel_offsets = np.zeros(pool + 1, dtype=np.int64)
        kernel_ids: list[int] = []
        for i, profile in enumerate(self.profiles):
            for name in sorted(profile.group_times):
                group_ids.append(group_index[name])
                group_values.append(profile.group_times[name])
            group_offsets[i + 1] = len(group_ids)
            for name in sorted(profile.kernel_names):
                kernel_ids.append(kernel_index[name])
            kernel_offsets[i + 1] = len(kernel_ids)

        meta = {
            "model_name": self.model_name,
            "dataset_name": self.dataset_name,
            "config_name": self.config_name,
            "batch_size": self.batch_size,
            "autotune_s": self.autotune_s,
            "eval_s": self.eval_s,
            "counter_fields": list(_COUNTER_FIELDS),
            "group_names": group_names,
            "kernel_names": kernel_names,
        }
        write_columns(
            path,
            SCHEMA_V3,
            meta,
            [
                ("index", self.index),
                ("epoch", self.epoch),
                ("seq_len", self.seq_len),
                ("tgt_len", self.tgt_len),
                ("time_s", self.time_s),
                ("profile_id", self.profile_id),
                ("profile_launches", launches),
                ("profile_counters", counters),
                ("profile_group_offsets", group_offsets),
                ("profile_group_ids", np.asarray(group_ids, dtype=np.int64)),
                ("profile_group_values", np.asarray(group_values, dtype=np.float64)),
                ("profile_kernel_offsets", kernel_offsets),
                ("profile_kernel_ids", np.asarray(kernel_ids, dtype=np.int64)),
            ],
        )

    @classmethod
    def _from_npt(cls, store: ColumnStore) -> "TraceFrame":
        """Rebuild a frame over a v3 container's zero-copy views.

        The six iteration columns are dtype views straight into the
        mmap, and the profile pool is *deferred*: a cold load touches
        no per-row or per-profile Python objects at all.  The pool
        (O(unique shapes), not O(rows)) materialises from the CSR
        columns on first access.
        """
        meta = store.meta
        counter_fields = meta["counter_fields"]
        group_names = meta["group_names"]
        kernel_names = meta["kernel_names"]
        launches = store.column("profile_launches")
        profile_id = store.column("profile_id")
        if profile_id.size and int(profile_id.max()) >= launches.size:
            raise TraceError(
                f"profile_id range outside the {launches.size}-entry "
                "profile pool"
            )

        def materialise() -> "list[IterationProfile]":
            counters = store.column("profile_counters")
            group_offsets = store.column("profile_group_offsets")
            group_ids = store.column("profile_group_ids")
            group_values = store.column("profile_group_values")
            kernel_offsets = store.column("profile_kernel_offsets")
            kernel_ids = store.column("profile_kernel_ids")
            profiles = []
            for i in range(launches.size):
                counter_set = CounterSet(
                    **dict(zip(counter_fields, counters[i].tolist()))
                )
                lo, hi = int(group_offsets[i]), int(group_offsets[i + 1])
                group_times = {
                    group_names[gid]: value
                    for gid, value in zip(
                        group_ids[lo:hi].tolist(), group_values[lo:hi].tolist()
                    )
                }
                lo, hi = int(kernel_offsets[i]), int(kernel_offsets[i + 1])
                profiles.append(
                    IterationProfile(
                        launches=int(launches[i]),
                        counters=counter_set,
                        group_times=group_times,
                        kernel_names=frozenset(
                            kernel_names[kid]
                            for kid in kernel_ids[lo:hi].tolist()
                        ),
                    )
                )
            return profiles

        return cls(
            model_name=meta["model_name"],
            dataset_name=meta["dataset_name"],
            config_name=meta["config_name"],
            batch_size=meta["batch_size"],
            index=store.column("index"),
            epoch=store.column("epoch"),
            seq_len=store.column("seq_len"),
            tgt_len=store.column("tgt_len"),
            time_s=store.column("time_s"),
            profile_id=profile_id,
            profiles=materialise,
            autotune_s=meta["autotune_s"],
            eval_s=meta["eval_s"],
            storage=store,
        )

    @classmethod
    def from_payload(cls, document: dict[str, Any]) -> "TraceFrame":
        """Rebuild a frame from a v2 document."""
        columns = document["iterations"]
        profiles = tuple(
            IterationProfile(
                launches=row["launches"],
                counters=CounterSet(**row["counters"]),
                group_times=dict(row["group_times"]),
                kernel_names=frozenset(row["kernel_names"]),
            )
            for row in document["profiles"]
        )
        tgt = [
            NO_TGT if value is None else value for value in columns["tgt_len"]
        ]
        return cls(
            model_name=document["model_name"],
            dataset_name=document["dataset_name"],
            config_name=document["config_name"],
            batch_size=document["batch_size"],
            index=np.asarray(columns["index"], dtype=np.int64),
            epoch=np.asarray(columns["epoch"], dtype=np.int64),
            seq_len=np.asarray(columns["seq_len"], dtype=np.int64),
            tgt_len=np.asarray(tgt, dtype=np.int64),
            time_s=np.asarray(columns["time_s"], dtype=np.float64),
            profile_id=np.asarray(columns["profile"], dtype=np.int64),
            profiles=profiles,
            autotune_s=document["autotune_s"],
            eval_s=document["eval_s"],
        )

    @classmethod
    def _from_v1_document(cls, document: dict[str, Any]) -> "TraceFrame":
        """Columnarise a legacy row-oriented v1 document.

        Rows rebuild into :class:`IterationRecord` views and delegate to
        :meth:`from_records`, so v1 loads share one pooling path.
        """
        from repro.train.trace import IterationRecord

        records = [
            IterationRecord(
                index=row["index"],
                epoch=row["epoch"],
                seq_len=row["seq_len"],
                tgt_len=row["tgt_len"],
                time_s=row["time_s"],
                launches=row["launches"],
                counters=CounterSet(**row["counters"]),
                group_times=dict(row["group_times"]),
                kernel_names=frozenset(row["kernel_names"]),
            )
            for row in document["records"]
        ]
        return cls.from_records(
            model_name=document["model_name"],
            dataset_name=document["dataset_name"],
            config_name=document["config_name"],
            batch_size=document["batch_size"],
            records=records,
            autotune_s=document["autotune_s"],
            eval_s=document["eval_s"],
        )

    @classmethod
    def load_npt(cls, path: str | Path) -> "TraceFrame":
        """Load a binary v3 container, never falling back to JSON.

        A torn, emptied or foreign file raises
        :class:`~repro.errors.StorageError` or
        :class:`~repro.errors.TraceError` naming ``path``.
        """
        store = ColumnStore(path)
        if store.schema != SCHEMA_V3:
            raise TraceError(
                f"{Path(path)}: unknown binary trace schema "
                f"{store.schema!r}; expected {SCHEMA_V3!r}"
            )
        return cls._from_npt(store)

    @classmethod
    def load(cls, path: str | Path) -> "TraceFrame":
        """Load a trace artefact of any supported schema version.

        Binary v3 containers mmap and view (no row parsing); v2 and
        legacy v1 JSON parse.  All versions produce equal frames.
        """
        if is_npt(path):
            return cls.load_npt(path)
        document = read_json(path)
        schema = document.get("schema")
        if schema == SCHEMA_V2:
            return cls.from_payload(document)
        if schema == SCHEMA_V1:
            return cls._from_v1_document(document)
        raise TraceError(
            f"{Path(path)}: unknown trace schema {schema!r}; expected "
            f"{SCHEMA_V2!r} or {SCHEMA_V1!r}"
        )


def dedupe_shapes(
    seq_len: np.ndarray, tgt_len: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unique ``(seq_len, tgt_len)`` shapes in first-appearance order.

    The shared primitive of shape-memoized simulation: returns
    ``(first_iterations, profile_id)`` where ``first_iterations[j]`` is
    the iteration index at which unique shape ``j`` first appears
    (ascending, i.e. epoch order — autotune charges must accrue in this
    order to stay bit-identical to the per-iteration path) and
    ``profile_id[i]`` maps iteration ``i`` onto its shape.
    """
    shapes = np.stack([seq_len, tgt_len], axis=1)
    _, first_index, inverse = np.unique(
        shapes, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    # np.unique sorts lexicographically; re-rank by first appearance.
    appearance = np.argsort(first_index, kind="stable")
    rank = np.empty(appearance.size, dtype=np.int64)
    rank[appearance] = np.arange(appearance.size)
    return first_index[appearance], rank[inverse]


def as_frame(trace: "TraceFrame | TrainingTrace") -> TraceFrame:
    """Coerce a trace-like object to its columnar frame."""
    if isinstance(trace, TraceFrame):
        return trace
    frame = getattr(trace, "frame", None)
    if callable(frame):
        return frame()
    raise TypeError(
        f"expected a TraceFrame or TrainingTrace, got {type(trace).__name__}"
    )
