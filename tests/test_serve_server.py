"""End-to-end tests for the analysis service.

The fast paths drive :class:`ServeApp` directly (no sockets); the
HTTP-contract tests run a real :class:`ReproServer` on an ephemeral
port and talk to it with ``urllib`` and raw sockets.
"""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.cache import TraceCache
from repro.api.engine import AnalysisEngine
from repro.api.parallel import SweepSpec, run_sweep
from repro.api.registry import SELECTORS
from repro.api.spec import AnalysisSpec
from repro.core.seqpoint import SeqPointSelector
from repro.errors import ConfigurationError
from repro.serve import ReproServer, ServeApp
from repro.serve.server import MAX_BODY_BYTES
from repro.stream.spec import StreamSpec

ANALYSIS = AnalysisSpec(network="gnmt", scale=0.02)
SWEEP = SweepSpec(networks=("gnmt",), scales=(0.02,), seeds=(0, 1))
STREAM = StreamSpec(analysis=ANALYSIS)

#: Periodic live-feed chunk whose per-SL means never move.
CYCLE = [
    {"seq_len": 10, "time_s": 0.1},
    {"seq_len": 20, "time_s": 0.2},
    {"seq_len": 30, "time_s": 0.3},
    {"seq_len": 40, "time_s": 0.4},
]

TERMINAL = ("done", "failed", "cancelled")


def wait_for(app: ServeApp, job_id: str, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        _, envelope, _ = app.handle("GET", f"/jobs/{job_id}")
        if envelope["job"]["state"] in TERMINAL:
            return envelope["job"]
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job_id} never finished: {envelope}")
        time.sleep(0.02)


@pytest.fixture()
def app():
    application = ServeApp(
        AnalysisEngine(cache=TraceCache()), workers=1, sweep_mode="serial"
    )
    application.start()
    yield application
    application.close()


class GateSelector:
    """A selector that parks in ``select`` until the test releases it."""

    def __init__(self, started: threading.Event, release: threading.Event):
        self.started = started
        self.release = release

    def select(self, trace):
        self.started.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("gate never released")
        return SeqPointSelector().select(trace)


@pytest.fixture()
def gate():
    """Register a blocking ``_serve_gate`` selector; yields its events."""
    started, release = threading.Event(), threading.Event()
    SELECTORS.register("_serve_gate")(
        lambda: GateSelector(started, release)
    )
    try:
        yield started, release
    finally:
        release.set()
        SELECTORS._entries.pop("_serve_gate")


class TestBitIdentity:
    """HTTP job results equal a direct engine run, field for field."""

    def test_analyze(self, app):
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": ANALYSIS.to_dict()}
        )
        job = wait_for(app, envelope["job"]["id"])
        assert job["state"] == "done"
        _, envelope, _ = app.handle("GET", f"/jobs/{job['id']}/result")
        direct = AnalysisEngine(cache=TraceCache()).run(ANALYSIS).to_dict()
        assert envelope["result"] == direct

    def test_sweep(self, app):
        _, envelope, _ = app.handle(
            "POST",
            "/jobs",
            {"kind": "sweep", "spec": SWEEP.to_dict(), "mode": "serial"},
        )
        job = wait_for(app, envelope["job"]["id"])
        assert job["state"] == "done"
        _, envelope, _ = app.handle("GET", f"/jobs/{job['id']}/result")
        direct = run_sweep(
            SWEEP, mode="serial", engine=AnalysisEngine(cache=TraceCache())
        ).to_dict()
        assert envelope["result"] == direct

    def test_stream(self, app):
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "stream", "spec": STREAM.to_dict()}
        )
        job = wait_for(app, envelope["job"]["id"])
        assert job["state"] == "done"
        _, envelope, _ = app.handle("GET", f"/jobs/{job['id']}/result")
        direct = (
            AnalysisEngine(cache=TraceCache()).run_streaming(STREAM).to_dict()
        )
        assert envelope["result"] == direct

    def test_sweep_process_mode_matches_serial(self, app):
        # The service's spawn-pool path (PR 3 workers, shared disk
        # cache) produces per-point results bit-identical to serial.
        _, envelope, _ = app.handle(
            "POST",
            "/jobs",
            {
                "kind": "sweep",
                "spec": SWEEP.to_dict(),
                "mode": "process",
                "workers": 1,
            },
        )
        job = wait_for(app, envelope["job"]["id"], timeout=120)
        assert job["state"] == "done"
        _, envelope, _ = app.handle("GET", f"/jobs/{job['id']}/result")
        run = envelope["result"]
        assert run["mode"] == "process"
        direct = run_sweep(
            SWEEP, mode="serial", engine=AnalysisEngine(cache=TraceCache())
        ).to_dict()
        assert run["results"] == direct["results"]


class TestCancellation:
    def test_cancel_queued_job(self, app, gate):
        started, release = gate
        blocker = AnalysisSpec(
            network="gnmt", scale=0.02, selector="_serve_gate"
        )
        _, first, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": blocker.to_dict()}
        )
        assert started.wait(timeout=10)  # the only worker is now parked
        _, second, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": ANALYSIS.to_dict()}
        )
        assert second["job"]["state"] == "queued"

        status, envelope, _ = app.handle(
            "POST", f"/jobs/{second['job']['id']}/cancel"
        )
        assert status == 200
        assert envelope["job"]["state"] == "cancelled"  # immediate

        release.set()
        assert wait_for(app, first["job"]["id"])["state"] == "done"
        # The cancelled job never ran.
        _, envelope, _ = app.handle("GET", f"/jobs/{second['job']['id']}")
        assert envelope["job"]["started_s"] is None

    def test_cancel_running_job(self, app, gate):
        started, release = gate
        blocker = AnalysisSpec(
            network="gnmt", scale=0.02, selector="_serve_gate"
        )
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": blocker.to_dict()}
        )
        job_id = envelope["job"]["id"]
        assert started.wait(timeout=10)

        _, envelope, _ = app.handle("POST", f"/jobs/{job_id}/cancel")
        assert envelope["job"]["state"] == "running"  # cooperative
        release.set()
        assert wait_for(app, job_id)["state"] == "cancelled"

        # The worker survived; the next job completes normally.
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": ANALYSIS.to_dict()}
        )
        assert wait_for(app, envelope["job"]["id"])["state"] == "done"

    def test_cancel_running_sweep_without_leaking_workers(self, app, gate):
        started, release = gate
        sweep = SweepSpec(
            networks=("gnmt",),
            scales=(0.02,),
            seeds=(0, 1, 2),
            selectors=("_serve_gate",),
        )
        _, envelope, _ = app.handle(
            "POST",
            "/jobs",
            {"kind": "sweep", "spec": sweep.to_dict(), "mode": "serial"},
        )
        job_id = envelope["job"]["id"]
        assert started.wait(timeout=10)  # first grid point in flight

        app.handle("POST", f"/jobs/{job_id}/cancel")
        release.set()
        assert wait_for(app, job_id)["state"] == "cancelled"

        # No result is retrievable for a cancelled job.
        status, envelope, _ = app.handle("GET", f"/jobs/{job_id}/result")
        assert status == 400
        assert envelope["error"]["type"] == "ProtocolError"

        # The worker thread is alive and well.
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": ANALYSIS.to_dict()}
        )
        assert wait_for(app, envelope["job"]["id"])["state"] == "done"


class TestFailedJobs:
    def test_failure_surfaces_one_structured_line(self, app):
        SELECTORS.register("_serve_boom")(
            lambda: type(
                "Boom",
                (),
                {
                    "select": lambda self, trace: (_ for _ in ()).throw(
                        ConfigurationError("exploded\nacross two lines")
                    )
                },
            )()
        )
        try:
            spec = AnalysisSpec(
                network="gnmt", scale=0.02, selector="_serve_boom"
            )
            _, envelope, _ = app.handle(
                "POST", "/jobs", {"kind": "analyze", "spec": spec.to_dict()}
            )
            job = wait_for(app, envelope["job"]["id"])
        finally:
            SELECTORS._entries.pop("_serve_boom")
        assert job["state"] == "failed"
        assert job["error"]["type"] == "ConfigurationError"
        assert job["error"]["message"] == "exploded across two lines"

        # /result on a failed job returns the status, not a payload.
        status, envelope, _ = app.handle("GET", f"/jobs/{job['id']}/result")
        assert status == 200
        assert "result" not in envelope
        assert envelope["job"]["error"]["type"] == "ConfigurationError"


class TestErrorContract:
    def test_unknown_endpoint_404(self, app):
        status, envelope, _ = app.handle("GET", "/nope")
        assert status == 404
        assert envelope["error"]["type"] == "NotFoundError"

    def test_unknown_job_404(self, app):
        status, envelope, _ = app.handle("GET", "/jobs/job-99")
        assert status == 404

    def test_malformed_submission_400(self, app):
        status, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "bogus", "spec": {}}
        )
        assert status == 400
        assert envelope["error"]["type"] == "ProtocolError"

    def test_result_before_done_400(self, app, gate):
        started, release = gate
        blocker = AnalysisSpec(
            network="gnmt", scale=0.02, selector="_serve_gate"
        )
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": blocker.to_dict()}
        )
        job_id = envelope["job"]["id"]
        assert started.wait(timeout=10)
        status, envelope, _ = app.handle("GET", f"/jobs/{job_id}/result")
        assert status == 400
        assert "running" in envelope["error"]["message"]
        release.set()
        wait_for(app, job_id)

    def test_wrong_method_404(self, app):
        status, _, _ = app.handle("DELETE", "/jobs/job-1")
        assert status == 404


class TestStatsAndEviction:
    def test_forced_eviction_is_visible_in_stats(self):
        app = ServeApp(
            AnalysisEngine(cache=TraceCache(max_entries=1)),
            workers=1,
            sweep_mode="serial",
        )
        app.start()
        try:
            for seed in (0, 1, 2):
                spec = AnalysisSpec(network="gnmt", scale=0.02, seed=seed)
                _, envelope, _ = app.handle(
                    "POST", "/jobs", {"kind": "analyze", "spec": spec.to_dict()}
                )
                assert wait_for(app, envelope["job"]["id"])["state"] == "done"
            _, envelope, _ = app.handle("GET", "/stats")
            cache = envelope["cache"]
            assert cache["misses"] == 3  # three distinct seeds simulated
            assert cache["entries"] == 1  # budget enforced
            assert cache["evictions"] == 2  # the two older seeds displaced
            assert cache["bytes"] > 0
            assert cache["max_entries"] == 1
        finally:
            app.close()

    def test_stats_shape(self, app):
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": ANALYSIS.to_dict()}
        )
        wait_for(app, envelope["job"]["id"])
        _, envelope, _ = app.handle("GET", "/stats")
        assert envelope["ok"] is True
        assert envelope["protocol"] == 1
        assert envelope["uptime_s"] >= 0
        assert {"hits", "misses", "entries", "evictions", "bytes"} <= set(
            envelope["cache"]
        )
        queue = envelope["queue"]
        assert queue["jobs"] == 1
        assert queue["states"]["done"] == 1
        assert envelope["sessions"]["open"] == 0


class TestStorageStats:
    """/stats storage section: per-format cold loads and the plan store."""

    def test_one_cold_load_of_each_format(self, tmp_path):
        from repro.models.plan import PLAN_CACHE

        # Seed the shared cache directory with a binary .npt written by
        # a sibling engine, and spec_b's trace planted by hand as a
        # legacy v2 JSON artefact under its key.  Binary is the one
        # format the cache reads: the JSON entry is a miss.
        spec_a = AnalysisSpec(network="gnmt", scale=0.02, seed=0)
        spec_b = AnalysisSpec(network="gnmt", scale=0.02, seed=1)
        seeder = AnalysisEngine(cache=TraceCache(tmp_path))
        seeder.trace_for(spec_a)  # writes {key_a}.npt
        scratch = AnalysisEngine(cache=TraceCache())
        scratch.trace_for(spec_b).save(
            tmp_path / f"{scratch.trace_key(spec_b)}.json", version=2
        )

        PLAN_CACHE.clear()  # force lowerings through the attached store
        app = ServeApp(
            AnalysisEngine(cache=TraceCache(tmp_path)),
            workers=1,
            sweep_mode="serial",
            plan_store_dir=str(tmp_path / "plans"),
        )
        app.start()
        try:
            for spec in (spec_a, spec_b):
                _, envelope, _ = app.handle(
                    "POST", "/jobs", {"kind": "analyze", "spec": spec.to_dict()}
                )
                assert wait_for(app, envelope["job"]["id"])["state"] == "done"
            _, envelope, _ = app.handle("GET", "/stats")
            storage = envelope["storage"]
            assert storage["directory"] == str(tmp_path)
            # spec_b was simulated again and stored as binary.
            assert storage["disk_entries"] == {"binary": 2}
            assert list(storage["cold_loads"]) == ["binary"]
            entry = storage["cold_loads"]["binary"]
            assert entry["count"] == 1
            assert entry["max_ms"] >= entry["mean_ms"] >= 0.0
            assert envelope["cache"]["misses"] == 1
            plan_store = storage["plan_store"]
            assert plan_store["entries"] > 0
            assert plan_store["misses"] > 0
        finally:
            app.close()

    def test_memory_only_storage_section(self, app):
        _, envelope, _ = app.handle("GET", "/stats")
        storage = envelope["storage"]
        assert storage["directory"] is None
        assert storage["cold_loads"] == {}
        assert storage["plan_store"] is None


class TestHostileFeeds:
    """A rejected live chunk is refused whole, before anything is
    absorbed: the session goes on as if it had never been sent."""

    GOOD = [{"seq_len": 12, "time_s": 0.15, "tgt_len": 9, "epoch": 1}]

    @staticmethod
    def run_session(app, chunks):
        """Open a live session, feed ``chunks``, finish; the envelopes."""
        spec = StreamSpec(analysis=ANALYSIS, cadence=4, patience=99)
        _, envelope, _ = app.handle("POST", "/stream", {"spec": spec.to_dict()})
        session_id = envelope["session"]["id"]
        feeds = [
            app.handle("POST", f"/stream/{session_id}/feed", {"records": chunk})
            for chunk in chunks
        ]
        finish = app.handle("POST", f"/stream/{session_id}/finish")
        return feeds, finish

    @pytest.mark.parametrize(
        "bad",
        [
            {"tgt_len": "abc"},
            {"tgt_len": 2.7},
            {"tgt_len": -5},
            {"tgt_len": 0},
            {"tgt_len": True},
            {"epoch": -1},
            {"epoch": 1.5},
            {"epoch": "0"},
            {"time_s": float("inf")},
            {"time_s": float("nan")},
            {"time_s": -0.1},
            {"time_s": 10**400},
            {"seq_len": 2.7},
            {"seq_len": "12"},
            {"seq_len": 2**63},
        ],
        ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items())[:24],
    )
    def test_rejected_chunk_leaves_the_session_untouched(self, app, bad):
        prefix = CYCLE * 3
        hostile = CYCLE + [{**CYCLE[0], **bad}]
        feeds, finish = self.run_session(app, [prefix, hostile, self.GOOD])
        status, envelope, _ = feeds[1]
        assert status == 400
        assert envelope["ok"] is False
        assert "\n" not in envelope["error"]["message"]
        assert envelope["error"]["message"].startswith("records[4]")

        clean_feeds, clean_finish = self.run_session(app, [prefix, self.GOOD])
        assert feeds[2][1]["session"]["iterations_consumed"] == len(prefix) + 1
        assert (
            feeds[2][1]["session"]["last_check"]
            == clean_feeds[1][1]["session"]["last_check"]
        )
        assert finish[0] == clean_finish[0] == 200
        assert finish[1]["result"] == clean_finish[1]["result"]


class TestConcurrentSessions:
    def test_two_live_sessions_converge_independently(self, app):
        # Same scenario, different convergence knobs: the eager session
        # needs fewer agreeing checks than the cautious one.
        ids = []
        for patience in (3, 5):
            spec = StreamSpec(analysis=ANALYSIS, cadence=20, patience=patience)
            _, envelope, _ = app.handle(
                "POST", "/stream", {"spec": spec.to_dict()}
            )
            ids.append(envelope["session"]["id"])

        # Interleave chunks between the two until both converge.
        eager, cautious = ids
        snapshots = {}
        for _ in range(40):
            for session_id in ids:
                if snapshots.get(session_id, {}).get("converged"):
                    continue
                _, envelope, _ = app.handle(
                    "POST", f"/stream/{session_id}/feed", {"records": CYCLE * 5}
                )
                snapshots[session_id] = envelope["session"]
            if all(snapshots[s]["converged"] for s in ids):
                break
        assert snapshots[eager]["converged"]
        assert snapshots[cautious]["converged"]
        # Convergence is per-session: the cautious one needed more data.
        assert (
            snapshots[cautious]["iterations_consumed"]
            > snapshots[eager]["iterations_consumed"]
        )

        for session_id in ids:
            _, envelope, _ = app.handle(
                "POST", f"/stream/{session_id}/finish"
            )
            assert envelope["result"]["converged"] is True
        _, envelope, _ = app.handle("GET", "/stats")
        assert envelope["sessions"]["converged"] == 2

    def test_replay_sessions_share_the_cache(self, app):
        spec = StreamSpec(analysis=ANALYSIS, cadence=8, patience=3)
        for _ in range(2):
            _, envelope, _ = app.handle(
                "POST", "/stream", {"spec": spec.to_dict(), "replay": True}
            )
            assert envelope["session"]["replay"] is True
        _, envelope, _ = app.handle("GET", "/stats")
        assert envelope["cache"]["misses"] == 1
        assert envelope["cache"]["hits"] >= 1
        assert envelope["sessions"]["open"] == 2


class TestHttpTransport:
    """Contract tests against a real socket-listening server."""

    @pytest.fixture()
    def server(self):
        with ReproServer(
            port=0, workers=1, sweep_mode="serial"
        ) as running:
            yield running

    @staticmethod
    def call(url, method="GET", payload=None, raw=None):
        data = raw if raw is not None else (
            None if payload is None else json.dumps(payload).encode()
        )
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_job_round_trip_over_http(self, server):
        status, envelope = self.call(
            f"{server.url}/jobs",
            "POST",
            {"kind": "analyze", "spec": ANALYSIS.to_dict()},
        )
        assert status == 200
        job_id = envelope["job"]["id"]
        deadline = time.monotonic() + 30
        while True:
            status, envelope = self.call(f"{server.url}/jobs/{job_id}")
            if envelope["job"]["state"] in TERMINAL:
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert envelope["job"]["state"] == "done"
        status, envelope = self.call(f"{server.url}/jobs/{job_id}/result")
        direct = AnalysisEngine(cache=TraceCache()).run(ANALYSIS).to_dict()
        assert envelope["result"] == direct

    def test_http_error_envelopes(self, server):
        status, envelope = self.call(f"{server.url}/jobs/job-42")
        assert status == 404
        assert envelope == {
            "v": 1,
            "ok": False,
            "error": {
                "type": "NotFoundError", "message": "no such job: job-42",
            },
        }
        status, envelope = self.call(
            f"{server.url}/jobs", "POST", raw=b"{not json"
        )
        assert status == 400
        assert envelope["error"]["type"] == "ProtocolError"
        assert "JSON" in envelope["error"]["message"]

    def test_survives_client_disconnect_mid_request(self, server):
        # Open a session, then abandon a feed upload halfway through.
        status, envelope = self.call(
            f"{server.url}/stream",
            "POST",
            {"spec": STREAM.to_dict()},
        )
        session_id = envelope["session"]["id"]

        for partial in (
            # Body shorter than Content-Length, then hang up.
            b"POST /stream/%s/feed HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nContent-Length: 500\r\n"
            b"\r\n{\"records\": [" % session_id.encode(),
            # Hang up mid request-line.
            b"GET /sta",
        ):
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(partial)
            # Abrupt close; give the handler thread a beat to unwind.
            time.sleep(0.1)

        # The server still answers, and the session is intact.
        status, envelope = self.call(f"{server.url}/stats")
        assert status == 200
        assert envelope["sessions"]["open"] == 1
        status, envelope = self.call(
            f"{server.url}/stream/{session_id}/feed",
            "POST",
            {"records": CYCLE},
        )
        assert status == 200
        assert envelope["session"]["iterations_consumed"] == len(CYCLE)

    def test_latency_metrics_accumulate(self, server):
        for _ in range(3):
            self.call(f"{server.url}/healthz")
        status, envelope = self.call(f"{server.url}/stats")
        latency = envelope["latency"]
        assert latency["GET /healthz"]["count"] == 3
        assert latency["GET /healthz"]["p50_ms"] >= 0

    @staticmethod
    def raw_request(server, request: bytes) -> tuple[int, dict, bytes]:
        """Send raw bytes; return (status, envelope, header block)."""
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(request)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(body), head

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"+7", b"1_0"])
    def test_malformed_content_length_gets_an_envelope(self, server, length):
        status, envelope, head = self.raw_request(
            server,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n{}"
            % length,
        )
        assert status == 400
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "ProtocolError"
        assert "Content-Length" in envelope["error"]["message"]
        assert "\n" not in envelope["error"]["message"]
        assert b"Connection: close" in head
        # The daemon keeps serving.
        assert self.call(f"{server.url}/healthz")[0] == 200

    def test_oversized_body_refused_before_reading(self, server):
        # Only the headers are sent: the daemon must answer without
        # waiting for (or buffering) the announced body.
        status, envelope, _ = self.raw_request(
            server,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1),
        )
        assert status == 400
        assert envelope["error"]["type"] == "ProtocolError"
        assert "limit" in envelope["error"]["message"]
        assert self.call(f"{server.url}/healthz")[0] == 200

    def test_deeply_nested_body_gets_an_envelope(self, server):
        # 200 KB is far below the body limit, yet 100,000 nested arrays
        # exhaust the JSON decoder's recursion limit.
        body = b"[" * 100_000 + b"]" * 100_000
        status, envelope, _ = self.raw_request(
            server,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert status == 400
        assert envelope["error"] == {
            "type": "ProtocolError",
            "message": "request body is nested too deeply",
        }
        assert self.call(f"{server.url}/healthz")[0] == 200

    @pytest.mark.skipif(
        not hasattr(socket, "TCP_QUICKACK"), reason="needs TCP_QUICKACK"
    )
    def test_keep_alive_responses_do_not_stall(self, server):
        # A steady keep-alive client delays its ACKs; a response written
        # in two sends must not wait for them (Nagle's algorithm).
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        round_trips = []
        try:
            for _ in range(10):
                if connection.sock is None:
                    connection.connect()
                connection.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0
                )
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.020
