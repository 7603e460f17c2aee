"""The always-on analysis daemon: stdlib HTTP/JSON over the job queue.

:class:`ServeApp` is the transport-free core — one method,
:meth:`ServeApp.handle`, routes ``(method, path, body)`` to the queue,
worker pool, session table, and cache, and returns ``(status,
envelope)``.  Unit tests drive it directly; the
:class:`ReproServer` wraps it in a
:class:`~http.server.ThreadingHTTPServer` so every client connection
gets its own thread while all of them share one engine and cache.

Endpoint map (all payloads JSON; see :mod:`repro.serve.protocol`):

========  ==========================  =======================================
method    path                        meaning
========  ==========================  =======================================
GET       ``/healthz``                liveness probe
GET       ``/stats``                  cache/queue/session/latency metrics
POST      ``/jobs``                   submit an analyze/sweep/stream/traffic job
GET       ``/jobs``                   list job status snapshots
GET       ``/jobs/<id>``              one job's status
GET       ``/jobs/<id>/result``       the finished job's result payload
POST      ``/jobs/<id>/cancel``       cancel (immediate if queued)
POST      ``/stream``                 open a streaming session
GET       ``/stream``                 list session snapshots
GET       ``/stream/<id>``            one session's convergence snapshot
POST      ``/stream/<id>/feed``       absorb a chunk (records or advance)
POST      ``/stream/<id>/finish``     close the stream, return the final run
DELETE    ``/stream/<id>``            drop the session
========  ==========================  =======================================

A client that disconnects mid-response only loses its own reply: the
handler swallows the broken pipe, the per-connection thread exits, and
jobs/sessions it had created keep running for a later poll.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import __version__
from repro.api.cache import TraceCache
from repro.api.engine import AnalysisEngine
from repro.models.plan import PLAN_CACHE, PlanStore
from repro.serve.metrics import MetricsRegistry, storage_snapshot
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    NotFoundError,
    ProtocolError,
    error_envelope,
    error_status,
    ok_envelope,
    parse_job_submission,
    parse_stream_open,
)
from repro.serve.queue import JobQueue
from repro.serve.sessions import SessionManager
from repro.serve.workers import WorkerPool

__all__ = ["ReproServer", "ServeApp", "MAX_BODY_BYTES"]

#: Largest request body the daemon reads.  Job specs are a few KiB and a
#: feed chunk of 100k records is under 10 MiB; anything larger is
#: refused before it is buffered.
MAX_BODY_BYTES = 32 * 1024 * 1024


class ServeApp:
    """Routing core of the service, independent of any transport."""

    def __init__(
        self,
        engine: AnalysisEngine | None = None,
        *,
        workers: int = 2,
        sweep_mode: str = "process",
        sweep_workers: int | None = None,
        queue_depth: int | None = None,
        max_sessions: int | None = None,
        plan_store_dir: str | None = None,
    ):
        self.engine = engine if engine is not None else AnalysisEngine()
        self.queue = JobQueue(max_depth=queue_depth)
        # The in-process engine and the sweep worker processes share
        # one plan store, so lowerings persist for the daemon's life
        # and across every pool it spawns.
        self.plan_store = (
            None if plan_store_dir is None else PlanStore(plan_store_dir)
        )
        self._previous_plan_store = (
            PLAN_CACHE.attach_store(self.plan_store)
            if self.plan_store is not None
            else None
        )
        self.workers = WorkerPool(
            self.queue,
            self.engine,
            workers=workers,
            sweep_mode=sweep_mode,
            sweep_workers=sweep_workers,
            plan_store_dir=plan_store_dir,
        )
        self.sessions = SessionManager(self.engine, max_sessions=max_sessions)
        self.metrics = MetricsRegistry()
        self.started_s = time.time()

    def start(self) -> None:
        self.workers.start()

    def close(self) -> None:
        self.workers.shutdown()
        if self.plan_store is not None:
            # Detach from the process-global cache so a closed app (a
            # test, a --check run) stops influencing later lowerings.
            PLAN_CACHE.attach_store(self._previous_plan_store)

    # -- routing -------------------------------------------------------

    def handle(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, dict[str, Any], str]:
        """Route one request; returns ``(status, envelope, endpoint)``.

        ``endpoint`` is the matched template (``GET /jobs/<id>`` and so
        on) — the latency histogram key, bounded no matter how many ids
        exist.
        """
        segments = [segment for segment in path.split("?")[0].split("/") if segment]
        try:
            endpoint, payload = self._route(method, segments, body)
            return 200, ok_envelope(payload), endpoint
        except Exception as exc:
            template = "/" + "/".join(segments[:1] + ["<id>"] * (len(segments) > 1))
            return error_status(exc), error_envelope(exc), f"{method} {template}"

    def _route(
        self, method: str, segments: list[str], body: Any
    ) -> tuple[str, dict[str, Any]]:
        if segments == ["healthz"] and method == "GET":
            return "GET /healthz", {"uptime_s": time.time() - self.started_s}
        if segments == ["stats"] and method == "GET":
            return "GET /stats", self.stats()
        if segments and segments[0] == "jobs":
            return self._route_jobs(method, segments, body)
        if segments and segments[0] == "stream":
            return self._route_stream(method, segments, body)
        raise NotFoundError(f"no such endpoint: {method} /{'/'.join(segments)}")

    def _route_jobs(
        self, method: str, segments: list[str], body: Any
    ) -> tuple[str, dict[str, Any]]:
        if len(segments) == 1:
            if method == "POST":
                job = self.queue.submit(parse_job_submission(body))
                return "POST /jobs", {"job": job.to_dict()}
            if method == "GET":
                return "GET /jobs", {
                    "jobs": [job.to_dict() for job in self.queue.jobs()]
                }
        elif len(segments) == 2 and method == "GET":
            return "GET /jobs/<id>", {"job": self.queue.get(segments[1]).to_dict()}
        elif len(segments) == 3 and segments[2] == "result" and method == "GET":
            job = self.queue.get(segments[1])
            if job.state == "failed":
                return "GET /jobs/<id>/result", {"job": job.to_dict()}
            if job.state != "done":
                raise ProtocolError(
                    f"job {job.id} is {job.state}; results need state 'done'"
                )
            return "GET /jobs/<id>/result", {"job": job.to_dict(), "result": job.result}
        elif len(segments) == 3 and segments[2] == "cancel" and method == "POST":
            job = self.queue.cancel(segments[1])
            return "POST /jobs/<id>/cancel", {"job": job.to_dict()}
        raise NotFoundError(f"no such endpoint: {method} /{'/'.join(segments)}")

    def _route_stream(
        self, method: str, segments: list[str], body: Any
    ) -> tuple[str, dict[str, Any]]:
        if len(segments) == 1:
            if method == "POST":
                spec, replay = parse_stream_open(body)
                session = self.sessions.create(spec, replay=replay)
                return "POST /stream", {"session": session.snapshot()}
            if method == "GET":
                return "GET /stream", {
                    "sessions": [s.snapshot() for s in self.sessions.sessions()]
                }
        elif len(segments) == 2:
            if method == "GET":
                return "GET /stream/<id>", {
                    "session": self.sessions.get(segments[1]).snapshot()
                }
            if method == "DELETE":
                self.sessions.close(segments[1])
                return "DELETE /stream/<id>", {"closed": segments[1]}
        elif len(segments) == 3 and segments[2] == "feed" and method == "POST":
            session = self.sessions.get(segments[1])
            if isinstance(body, dict) and "advance" in body:
                extra = sorted(set(body) - {"advance"})
                if extra:
                    raise ProtocolError(
                        f"advance feeds take no other fields, got: {', '.join(extra)}"
                    )
                if not isinstance(body["advance"], int) or isinstance(
                    body["advance"], bool
                ):
                    raise ProtocolError(
                        f"advance must be an int, got {body['advance']!r}"
                    )
                snapshot = session.advance(body["advance"])
            else:
                snapshot = session.feed_records(body)
            return "POST /stream/<id>/feed", {"session": snapshot}
        elif len(segments) == 3 and segments[2] == "finish" and method == "POST":
            session = self.sessions.get(segments[1])
            return "POST /stream/<id>/finish", {
                "result": session.finish(),
                "session": session.snapshot(),
            }
        raise NotFoundError(f"no such endpoint: {method} /{'/'.join(segments)}")

    # -- observability -------------------------------------------------

    def stats(self) -> dict[str, Any]:
        cache = self.engine.cache
        return {
            "protocol": PROTOCOL_VERSION,
            "version": __version__,
            "uptime_s": time.time() - self.started_s,
            "cache": {
                **cache.stats(),
                "max_bytes": cache.max_bytes,
                "max_entries": cache.max_entries,
                "directory": (
                    None if cache.directory is None else str(cache.directory)
                ),
            },
            "queue": self.queue.snapshot(),
            "sessions": self.sessions.snapshot(),
            "latency": self.metrics.snapshot(),
            "storage": storage_snapshot(cache, self.plan_store),
        }


class _Handler(BaseHTTPRequestHandler):
    """JSON-over-HTTP front end; one instance per request."""

    app: ServeApp  # injected via the subclass ReproServer builds
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # _respond writes headers and body separately; with Nagle's
    # algorithm on, a keep-alive client's delayed ACK holds the body
    # back about 40 ms.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; a daemon
    # serving a benchmark would drown in it.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _read_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        # Digits only: int() would also take signs, spaces and "1_000".
        length = int(header) if header.isascii() and header.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length < 0:
                raise ProtocolError(f"invalid Content-Length: {header!r}")
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        if len(raw) < length:
            # Client vanished mid-upload; treat like malformed input.
            raise ProtocolError("request body truncated")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None
        except RecursionError:
            # Deep nesting ("[[[[...") exhausts the decoder's recursion
            # limit long before the body-size cap.
            raise ProtocolError("request body is nested too deeply") from None

    def _respond(self, status: int, envelope: dict[str, Any]) -> None:
        data = json.dumps(envelope).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        endpoint = f"{method} {self.path.split('?')[0]}"
        try:
            try:
                body = self._read_body()
            except ProtocolError as exc:
                status, envelope = error_status(exc), error_envelope(exc)
            else:
                status, envelope, endpoint = self.app.handle(
                    method, self.path, body
                )
            self._respond(status, envelope)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client hung up mid-request or mid-response.  Nothing
            # to answer; server-side state (jobs, sessions) is intact.
            self.close_connection = True
        finally:
            self.app.metrics.observe(endpoint, time.perf_counter() - started)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class ReproServer:
    """The daemon: a threading HTTP server bound to a :class:`ServeApp`.

    ``port=0`` binds an ephemeral port (tests, ``--check``); the bound
    address is available as :attr:`url` immediately after construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        app: ServeApp | None = None,
        cache_dir: str | None = None,
        cache_max_bytes: int | None = None,
        cache_max_entries: int | None = None,
        **app_options: Any,
    ):
        if app is None:
            engine = AnalysisEngine(
                cache=TraceCache(
                    cache_dir,
                    max_bytes=cache_max_bytes,
                    max_entries=cache_max_entries,
                )
            )
            app = ServeApp(engine, **app_options)
        self.app = app
        handler = type("BoundHandler", (_Handler,), {"app": app})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._serving = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (the CLI path)."""
        self.app.start()
        self._serving.set()
        self._httpd.serve_forever()

    def start(self) -> None:
        """Run the accept loop on a background thread (tests, bench)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._serving.wait()

    def close(self) -> None:
        """Stop accepting, drain the workers, release the socket."""
        if self._serving.is_set():
            self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        self.app.close()

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
