"""Content-addressed trace cache: memory-first, optionally on disk.

Simulating an identification epoch is the expensive step of every
analysis; everything downstream (selection, projection, sweeps over
selectors or thresholds) is orders of magnitude cheaper.  The cache
keys each trace by a stable hash of the spec fields that determine the
simulation (:meth:`AnalysisSpec.trace_fingerprint`), so any two
requests that would simulate the same epoch share one trace — within a
process through the in-memory map, and across processes through an
optional on-disk store of the trace's binary artefact.

Cached traces are frame-backed views: in memory they carry their
columnar :class:`~repro.train.frame.TraceFrame` (shared by every
analysis that hits the entry, including the memoised per-SL grouping),
and on disk they persist as binary columnar ``.npt`` containers whose
cold load is an mmap plus dtype views — concurrent sweep workers and
serve sessions reading one entry share page cache instead of each
parsing a private copy, and byte accounting uses the real file size.
``{key}.npt`` is the one format the cache reads and writes: an entry
left in any other format (such as a pre-binary ``{key}.json``) is a
miss, simulated again to the same answer.  A malformed artefact (a torn
or emptied file) is a miss too: under the key's file lock
``get_or_compute`` renames it to ``{key}.npt.corrupt`` and simulates
again, so one bad file never poisons its key.

Hit/miss counters make the reuse measurable (see
``benchmarks/bench_api_cache.py``); per-key locks make concurrent
``get_or_compute`` calls for the same key simulate once, which is what
lets :meth:`AnalysisEngine.run_many` deduplicate shared work.

Long-running services (:mod:`repro.serve`) keep one cache alive across
many requests, so the in-memory tier is bounded: construct with
``max_bytes`` and/or ``max_entries`` and the cache accounts every
resident trace's columnar footprint, admits new entries, and evicts
least-recently-used ones until it is back under budget.  Eviction only
drops the *memory* residency — the on-disk artefact (when a directory
is configured) remains the backing store, so an evicted key reloads as
a disk hit instead of re-simulating.  All counters (hits, misses,
evictions, resident bytes) mutate under one lock, so concurrent
sessions hammering a shared cache report exact numbers.

Disk-backed caches additionally coordinate *across processes*: writes
are atomic (temp file + rename, so readers never observe a partial
artefact) and ``get_or_compute`` holds a per-key advisory file lock for
the duration of a miss, so two worker processes racing on one key
produce exactly one simulation — the loser blocks, then loads the
winner's artefact as a disk hit.  That protocol is what lets the
process-parallel sweep executor (:mod:`repro.api.parallel`) fan workers
out over one shared cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.train.frame import TraceFrame
from repro.train.trace import TrainingTrace
from repro.util.filelock import file_lock
from repro.util.npt import CORRUPT_ERRORS, quarantine

__all__ = ["TraceCache", "trace_nbytes"]

#: Flat per-profile estimate: pooled profiles carry a CounterSet, a
#: group-times dict, and a kernel-name set — small next to the columns.
_PROFILE_NBYTES = 512


def _load_binary(path: Path) -> TrainingTrace:
    return TrainingTrace.from_frame(TraceFrame.load_npt(path))


def trace_nbytes(trace: TrainingTrace) -> int:
    """Footprint of a trace's columnar frame, in bytes.

    Frames backed by a binary container report the container's real
    on-disk size (the columns are views into that mapping, so the
    mapping *is* the footprint).  Purely in-memory frames fall back to
    summing column buffers plus a flat per-profile estimate.
    """
    frame = trace.frame()
    storage = frame.storage
    if storage is not None:
        return int(storage.nbytes)
    columns = (
        frame.index, frame.epoch, frame.seq_len,
        frame.tgt_len, frame.time_s, frame.profile_id,
    )
    return sum(int(column.nbytes) for column in columns) + (
        _PROFILE_NBYTES * len(frame.profiles)
    )


class TraceCache:
    """Keyed store of :class:`TrainingTrace` artefacts.

    ``max_bytes``/``max_entries`` bound the in-memory tier (LRU
    eviction, counted in ``evictions``); ``None`` means unbounded, the
    historical behaviour.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        #: key -> (trace, nbytes), least-recently-used first.
        self._memory: OrderedDict[str, tuple[TrainingTrace, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        #: format -> {"count", "seconds", "max_s"} for cold disk loads.
        self._loads: dict[str, dict[str, float]] = {}

    @staticmethod
    def key_for(fingerprint: Mapping[str, Any]) -> str:
        """Stable content hash of a fingerprint mapping."""
        canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _npt_path(self, key: str) -> Path | None:
        """Binary columnar artefact path (the one disk format)."""
        if self.directory is None:
            return None
        return self.directory / f"{key}.npt"

    def _admit(self, key: str, trace: TrainingTrace, size: int | None = None) -> None:
        """Insert ``key`` as most-recent and evict back under budget.

        Caller holds ``self._lock``.  Eviction walks LRU-first and may,
        when a single trace exceeds ``max_bytes`` on its own, refuse the
        new entry itself — admission control for pathological inputs.
        """
        if size is None:
            size = trace_nbytes(trace)
        previous = self._memory.pop(key, None)
        if previous is not None:
            self.bytes -= previous[1]
        self._memory[key] = (trace, size)
        self.bytes += size
        while self._memory and (
            (self.max_bytes is not None and self.bytes > self.max_bytes)
            or (self.max_entries is not None and len(self._memory) > self.max_entries)
        ):
            _, (_, evicted_size) = self._memory.popitem(last=False)
            self.bytes -= evicted_size
            self.evictions += 1

    def _record_load(self, fmt: str, seconds: float) -> None:
        """Account one cold disk load (caller holds ``self._lock``)."""
        entry = self._loads.setdefault(
            fmt, {"count": 0, "seconds": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["seconds"] += seconds
        entry["max_s"] = max(entry["max_s"], seconds)

    def get(self, key: str) -> TrainingTrace | None:
        """Look ``key`` up (memory, then disk), counting the outcome.

        The disk tier reads the binary ``.npt`` artefact (mmap + views);
        cold-load latency is recorded for :meth:`storage_stats`.  A
        malformed artefact counts as a miss.
        """
        return self._get(key, quarantine_corrupt=False)

    def _get(self, key: str, quarantine_corrupt: bool) -> TrainingTrace | None:
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return entry[0]
        path = self._npt_path(key)
        if path is not None:
            started = time.perf_counter()
            try:
                trace = _load_binary(path)
            except FileNotFoundError:
                pass
            except CORRUPT_ERRORS:
                if quarantine_corrupt:
                    quarantine(path)
            else:
                elapsed = time.perf_counter() - started
                with self._lock:
                    self._admit(key, trace)
                    self._record_load("binary", elapsed)
                    self.hits += 1
                return trace
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, trace: TrainingTrace) -> None:
        path = self._npt_path(key)
        size = None
        if path is not None:
            # Write-then-rename so a concurrent reader either sees the
            # previous artefact or the complete new one, never a prefix.
            staging = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            trace.save(staging)
            # Honest byte accounting: charge the real artefact size.
            size = staging.stat().st_size
            os.replace(staging, path)
        with self._lock:
            self._admit(key, trace, size)

    @contextmanager
    def _file_lock(self, key: str) -> Iterator[None]:
        """Exclusive inter-process lock for ``key`` (disk caches only)."""
        with file_lock(self.directory, key):
            yield

    def get_or_compute(
        self, key: str, compute: Callable[[], TrainingTrace]
    ) -> TrainingTrace:
        """Return the cached trace, computing and storing it on a miss.

        Concurrent callers with the same key serialise on a per-key
        lock — threads on an in-process lock, processes (for disk-backed
        caches) on an advisory file lock — so the expensive simulation
        runs exactly once; every other caller observes a hit.  A
        malformed artefact found under the lock is renamed to
        ``{key}.npt.corrupt`` and the trace computed again.
        """
        with self._lock:
            # Memory hits skip the locks entirely: entries are immutable
            # once stored and writes land by atomic rename, so the fast
            # path can never observe a partial artefact.
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return entry[0]
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock, self._file_lock(key):
            trace = self._get(key, quarantine_corrupt=True)
            if trace is None:
                trace = compute()
                self.put(key, trace)
            return trace

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._memory),
                "evictions": self.evictions,
                "bytes": self.bytes,
            }

    def storage_stats(self) -> dict[str, Any]:
        """Disk-tier observability: entry counts and cold-load latency.

        Separate from :meth:`stats` (whose exact shape is API) — this
        reports on-disk entry counts and the cold-load counters
        accumulated by :meth:`get`, both keyed by format (``"binary"``,
        the one format).
        """
        disk_entries = {"binary": 0}
        if self.directory is not None and self.directory.is_dir():
            disk_entries["binary"] = sum(1 for _ in self.directory.glob("*.npt"))
        with self._lock:
            cold_loads = {fmt: dict(entry) for fmt, entry in self._loads.items()}
        return {
            "directory": None if self.directory is None else str(self.directory),
            "disk_entries": disk_entries,
            "cold_loads": cold_loads,
        }

    def clear(self) -> None:
        """Drop in-memory entries and counters (disk files are kept)."""
        with self._lock:
            self._memory.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.bytes = 0
            self._loads = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        if not isinstance(key, str):
            return False
        path = self._npt_path(key)
        return path is not None and path.exists()
