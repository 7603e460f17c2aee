"""The open-loop workload: warm analyze jobs against ``repro serve``.

The daemon runs as a subprocess whose in-memory trace tier holds fewer
entries than the universe has trace keys, so a share of lookups reload
``.npt`` files from its cache directory.  The calling thread sends jobs
on a seeded Poisson schedule over one keep-alive connection; one
collector thread fetches results over a second.  Latency runs from each
job's scheduled send time, so a stalled sender shows up as lateness and
as latency of every job behind it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import MIN_OPS, answer_digest

#: (network, seed) of every job the workload submits, at SCALE.
UNIVERSE = (("gnmt", 1), ("gnmt", 2), ("ds2", 1), ("ds2", 2))
#: A warm job simulates nothing, so the scale only sizes the traces it
#: reloads and projects; a small one keeps the daemon's cold set-up short.
SCALE = 0.02
TARGETS = [1, 2, 3, 4, 5]
#: Offered load, jobs per second: a few people sharing one daemon.  It
#: is about a third of what one sender can offer while every response
#: stalls for ~44 ms, so the daemon's queue stays near empty and latency
#: is the service path, not queueing.
RATE = 8.0
#: In-memory trace entries the daemon keeps, of 5 per universe job.
MEMORY_ENTRIES = 12
#: How long the collector keeps polling after the last send.
DRAIN_S = 20.0
#: Pause between polls of a job that is not done yet.
POLL_GAP_S = 0.002
_NETWORK_ERRORS = (OSError, http.client.HTTPException, ValueError)


class Daemon:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, cache_dir: Path, log_path: Path):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2", "--sweep-mode", "serial",
            "--cache-dir", str(cache_dir),
            "--cache-max-entries", str(MEMORY_ENTRIES),
        ]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        line = self.process.stdout.readline()
        prefix = "repro serve listening on http://"
        if not line.startswith(prefix):
            self.stop()
            raise RuntimeError(
                f"daemon did not start ({line.strip()!r}); see {log_path}"
            )
        host, port = line[len(prefix):].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        """Interrupt the daemon (it drains its workers) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Client:
    """One keep-alive HTTP connection speaking the serve JSON protocol.

    Before each request the socket leaves quick-ACK mode, so the client
    ACKs the way a steady keep-alive peer does: delayed.  A response
    the daemon writes in two sends then waits for that ACK on every
    request, not on a share of requests that depends on arrival gaps,
    which keeps the stall it causes measurable and the latency
    distribution single-moded.
    """

    def __init__(self, host: str, port: int):
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict, float]:
        """``(status, envelope, round-trip seconds)`` of one request."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        if self.connection.sock is None:
            self.connection.connect()
        self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
        started = time.perf_counter()
        self.connection.request(method, path, body=data, headers=headers)
        response = self.connection.getresponse()
        envelope = json.loads(response.read())
        return response.status, envelope, time.perf_counter() - started

    def close(self) -> None:
        self.connection.close()


@dataclass
class JobRecord:
    """Client-side and daemon-side timing of one submitted job."""

    key: str
    due_s: float = 0.0
    late_s: float = 0.0
    post_rtt_s: float | None = None
    result_rtts: list[float] = field(default_factory=list)
    done_s: float | None = None
    ok: bool = False
    #: The answer arrived but differed from its reference.
    mismatch: bool = False
    queue_wait_s: float = 0.0
    run_s: float = 0.0


def _job_body(key: str) -> dict:
    network, seed = key.split("/")
    return {
        "kind": "analyze",
        "spec": {"network": network, "scale": SCALE, "seed": int(seed)},
        "projection": {"targets": TARGETS},
    }


class ServeOpen:
    """Set-up, open-loop phases and answer checks for ``serve-open``."""

    name = "serve-open"
    universe = tuple(f"{network}/{seed}" for network, seed in UNIVERSE)

    def __init__(self, seed: int, workdir: Path, digests: dict[str, str], root: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.digests = digests
        self.root = root
        self.daemon: Daemon | None = None
        self.sender: Client | None = None
        self.collector: Client | None = None
        self.references: dict[str, str] = {}
        self.answers: dict[str, dict] = {}
        self._setups = 0
        self._give_up_at = math.inf

    # -- set-up and teardown ---------------------------------------------

    def setup(self) -> None:
        """Start a fresh daemon on an empty cache and answer the universe once."""
        self.stop()
        self._setups += 1
        cache_dir = self.workdir / f"serve-cache-{self._setups}"
        cache_dir.mkdir()
        self.daemon = Daemon(
            self.root, cache_dir, self.workdir / f"serve-{self._setups}.log"
        )
        self.sender = Client(self.daemon.host, self.daemon.port)
        self.collector = Client(self.daemon.host, self.daemon.port)
        self.references.clear()
        for key in self.universe:
            status, envelope, _ = self.sender.call("POST", "/jobs", _job_body(key))
            if status != 200:
                raise RuntimeError(f"set-up job {key} refused: {envelope}")
            record = JobRecord(key)
            self._await(record, envelope["job"]["id"], give_up_at=time.perf_counter() + 60)
            if not record.ok:
                raise RuntimeError(f"set-up job {key} failed or differs from its committed digest")

    def stop(self) -> None:
        for client in (self.sender, self.collector):
            if client is not None:
                client.close()
        self.sender = self.collector = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def stats(self) -> dict:
        status, envelope, _ = self.sender.call("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return envelope

    # -- answers ----------------------------------------------------------

    def _check(self, key: str, result: dict) -> bool:
        digest = answer_digest(result)
        committed = self.digests.get(key)
        if committed is not None and committed != digest:
            return False
        if self.references.setdefault(key, digest) != digest:
            return False
        self.answers.setdefault(key, result)
        return True

    def proj_err_pct(self) -> float:
        errors = [
            abs(projection["error_pct"])
            for key in self.universe
            for projection in self.answers[key]["projections"]
        ]
        return sum(errors) / len(errors)

    # -- the open loop ----------------------------------------------------

    def _await(self, record: JobRecord, job_id: str, give_up_at: float) -> None:
        """Poll one job's result until it is done, failed, or abandoned."""
        while True:
            status, envelope, rtt = self.collector.call("GET", f"/jobs/{job_id}/result")
            record.result_rtts.append(rtt)
            if status == 200:
                record.done_s = time.perf_counter()
                job = envelope["job"]
                if job["started_s"] is not None and job["finished_s"] is not None:
                    record.queue_wait_s = job["started_s"] - job["submitted_s"]
                    record.run_s = job["finished_s"] - job["started_s"]
                result = envelope.get("result")
                if result is not None:
                    record.ok = self._check(record.key, result)
                    record.mismatch = not record.ok
                return
            # 400 means "not done yet"; anything else is a failure.
            if status != 400 or time.perf_counter() > min(give_up_at, self._give_up_at):
                return
            time.sleep(POLL_GAP_S)

    def _collect(self, handoff: queue.Queue) -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            record, job_id = item
            try:
                self._await(record, job_id, give_up_at=math.inf)
            except _NETWORK_ERRORS as exc:
                print(f"serve-open: collecting {job_id}: {exc}", file=sys.stderr)

    def phase(self, seconds: float) -> tuple[list[JobRecord], float]:
        """One open-loop window; returns the job records and its origin."""
        count = max(MIN_OPS, round(RATE * seconds))
        # A Poisson process conditioned on `count` arrivals in the
        # window: sorted uniform offsets.
        offsets = sorted(self.rng.uniform(0.0, seconds) for _ in range(count))
        records = [JobRecord(self.rng.choice(self.universe)) for _ in range(count)]
        handoff: queue.Queue = queue.Queue()
        self._give_up_at = math.inf
        collector = threading.Thread(target=self._collect, args=(handoff,), name="collector")
        collector.start()
        origin = time.perf_counter() + 0.05
        try:
            for record, offset in zip(records, offsets):
                record.due_s = origin + offset
                delay = record.due_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                record.late_s = time.perf_counter() - record.due_s
                try:
                    status, envelope, rtt = self.sender.call(
                        "POST", "/jobs", _job_body(record.key)
                    )
                except _NETWORK_ERRORS as exc:
                    print(f"serve-open: submitting: {exc}", file=sys.stderr)
                    continue
                record.post_rtt_s = rtt
                if status == 200:
                    handoff.put((record, envelope["job"]["id"]))
        finally:
            self._give_up_at = time.perf_counter() + DRAIN_S
            handoff.put(None)
            collector.join()
        return records, origin
