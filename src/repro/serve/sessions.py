"""Multiplexed streaming sessions: many live identifications, one cache.

A :class:`StreamSession` wraps an incremental
:class:`~repro.stream.identifier.IdentificationSession` behind an id the
HTTP layer can address, in one of two feed styles:

* **live** — the client POSTs iteration chunks
  (``{"records": [{"seq_len": ..., "time_s": ...}, ...]}``) as its
  training run produces them; the server turns each chunk into one
  columnar frame, absorbs it as a slice, and reports the convergence
  snapshot after every chunk;
* **replay** — the session draws from the scenario's *cached* epoch
  trace and the client just POSTs ``{"advance": n}`` to consume the
  next ``n`` iterations.  Replay sessions resolve their epoch through
  the shared engine, so any number of concurrent sessions over the
  same scenario cost one simulation and hit one
  :class:`~repro.api.cache.TraceCache` entry — the multiplexing the
  service exists for.

Each session serialises its own feeds under a per-session lock (chunk
order is the stream's semantics), while different sessions proceed
fully concurrently.  The :class:`SessionManager` owns the id space and
the lifecycle: sessions are ``open`` until :meth:`StreamSession.finish`
packages the final :class:`~repro.stream.identifier.StreamingRun`
accounting, and ``DELETE`` drops them.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any

import numpy as np

from repro.api.engine import AnalysisEngine
from repro.errors import ConfigurationError
from repro.hw.counters import CounterSet
from repro.serve.protocol import NotFoundError, ProtocolError, parse_records
from repro.stream.feed import FrameSlice
from repro.stream.spec import StreamSpec
from repro.stream.stats import StreamingSlStatistics
from repro.train.frame import NO_TGT, IterationProfile, TraceFrame

__all__ = ["SessionManager", "StreamSession"]

#: Live uploads carry no kernel data: every posted iteration shares
#: this one profile.
_LIVE_PROFILE = IterationProfile(
    launches=1, counters=CounterSet(), group_times={}, kernel_names=frozenset()
)


class StreamSession:
    """One in-flight streaming identification addressed over HTTP."""

    def __init__(
        self,
        session_id: str,
        spec: StreamSpec,
        *,
        engine: AnalysisEngine,
        replay: bool = False,
    ):
        self.id = session_id
        self.spec = spec
        self.replay = replay
        self.created_s = time.time()
        self.state = "open"  # open -> finished -> (removed)
        self._lock = threading.Lock()
        self._cursor = 0
        if replay:
            # Through the shared cache: concurrent sessions over one
            # scenario share a single simulated epoch.
            self._frame = engine.frame_for(spec.analysis)
            stats = StreamingSlStatistics.for_frame(self._frame)
        else:
            analysis = spec.analysis
            self._frame = None
            stats = StreamingSlStatistics(
                model_name=analysis.network,
                dataset_name=analysis.dataset,
                config_name=f"config#{analysis.config}",
                batch_size=analysis.batch_size,
            )
        self._stats = stats
        self._session = spec.build_identifier().begin(stats)
        self._result: dict[str, Any] | None = None

    @property
    def converged(self) -> bool:
        return self._session.converged

    # -- feeding ------------------------------------------------------

    def _require_open(self) -> None:
        if self.state != "open":
            raise ConfigurationError(
                f"session {self.id} is {self.state}; feeds need an open session"
            )

    def feed_records(self, chunk: Any) -> dict[str, Any]:
        """Absorb one live chunk of client-posted iteration records.

        ``chunk`` is the posted ``{"records": [...]}`` object.  Every
        record is checked by :func:`~repro.serve.protocol.parse_records`
        before any is absorbed, so a refused chunk leaves the session as
        it was; an accepted chunk becomes one frame, absorbed whole as a
        slice.
        """
        if self.replay:
            raise ProtocolError(
                f"session {self.id} is a replay session; feed it {{'advance': n}}"
            )
        records = parse_records(chunk)
        with self._lock:
            self._require_open()
            first = self._session.iterations_consumed
            stats = self._stats
            size = len(records)
            frame = TraceFrame(
                model_name=stats.model_name,
                dataset_name=stats.dataset_name,
                config_name=stats.config_name,
                batch_size=stats.batch_size,
                index=np.arange(first, first + size),
                epoch=[record["epoch"] for record in records],
                seq_len=[record["seq_len"] for record in records],
                tgt_len=[
                    NO_TGT if record["tgt_len"] is None else record["tgt_len"]
                    for record in records
                ],
                time_s=[record["time_s"] for record in records],
                profile_id=np.zeros(size, dtype=np.int64),
                profiles=(_LIVE_PROFILE,),
            )
            self._session.absorb(FrameSlice(frame, 0, size))
            return self._snapshot_locked()

    def advance(self, iterations: int) -> dict[str, Any]:
        """Consume the next ``iterations`` of the cached epoch (replay)."""
        if not self.replay:
            raise ProtocolError(
                f"session {self.id} is live; feed it {{'records': [...]}}"
            )
        if iterations < 1:
            raise ProtocolError(f"advance must be >= 1, got {iterations}")
        with self._lock:
            self._require_open()
            total = len(self._frame)
            if self._cursor >= total:
                raise ConfigurationError(
                    f"session {self.id} exhausted its {total}-iteration epoch"
                )
            stop = min(self._cursor + iterations, total)
            self._session.absorb(FrameSlice(self._frame, self._cursor, stop))
            self._cursor = stop
            return self._snapshot_locked()

    # -- lifecycle ----------------------------------------------------

    def finish(self) -> dict[str, Any]:
        """Close the stream and return the final run accounting."""
        with self._lock:
            if self._result is None:
                run = self._session.finish()
                self.state = "finished"
                self._result = {
                    "converged": run.converged,
                    "iterations_consumed": run.iterations_consumed,
                    "method": run.method,
                    "checks": [check.to_dict() for check in run.checks],
                    "points": [
                        {
                            "seq_len": point.seq_len,
                            "tgt_len": point.tgt_len,
                            "weight": point.weight,
                            "time_s": point.record.time_s,
                        }
                        for point in run.selection.points
                    ],
                    "k": run.k,
                    "identification_error_pct": run.identification_error_pct,
                    "projected_prefix_total_s": run.projected_prefix_total_s,
                    "prefix_total_s": run.prefix_total_s,
                }
            return self._result

    # -- snapshots ----------------------------------------------------

    def _snapshot_locked(self) -> dict[str, Any]:
        session = self._session
        snapshot: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "replay": self.replay,
            "iterations_consumed": session.iterations_consumed,
            "converged": session.converged,
            "checks": len(session.checks),
            "last_check": session.checks[-1].to_dict() if session.checks else None,
        }
        if self.replay:
            snapshot["epoch_iterations"] = len(self._frame)
            snapshot["cursor"] = self._cursor
        return snapshot

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return self._snapshot_locked()


class SessionManager:
    """The service's table of live sessions."""

    def __init__(self, engine: AnalysisEngine, max_sessions: int | None = None):
        if max_sessions is not None and max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be positive, got {max_sessions}"
            )
        self.engine = engine
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._sessions: dict[str, StreamSession] = {}
        self._ids = itertools.count(1)
        self._opened = 0

    def create(self, spec: StreamSpec, *, replay: bool = False) -> StreamSession:
        with self._lock:
            if (
                self.max_sessions is not None
                and len(self._sessions) >= self.max_sessions
            ):
                raise ConfigurationError(
                    f"session table full ({self.max_sessions}); close one first"
                )
            session_id = f"s-{next(self._ids)}"
        # Construction may simulate (replay cache miss) — outside the
        # table lock so other sessions keep feeding meanwhile.
        session = StreamSession(session_id, spec, engine=self.engine, replay=replay)
        with self._lock:
            self._sessions[session_id] = session
            self._opened += 1
        return session

    def get(self, session_id: str) -> StreamSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise NotFoundError(f"no such session: {session_id}")
        return session

    def close(self, session_id: str) -> None:
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise NotFoundError(f"no such session: {session_id}")

    def sessions(self) -> list[StreamSession]:
        with self._lock:
            return list(self._sessions.values())

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            sessions = list(self._sessions.values())
            opened = self._opened
        converged = sum(1 for session in sessions if session.converged)
        return {
            "open": len(sessions),
            "opened_total": opened,
            "converged": converged,
        }
