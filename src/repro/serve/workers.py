"""The service's worker tier: queue consumers over one shared engine.

A :class:`WorkerPool` runs N daemon threads, each blocking on
:meth:`~repro.serve.queue.JobQueue.next_job` and executing claimed jobs
against one shared :class:`~repro.api.engine.AnalysisEngine` — so every
job, whatever its kind, deduplicates simulation work through the same
(optionally disk-backed, LRU-bounded) :class:`~repro.api.cache.TraceCache`.

``analyze`` and ``stream`` jobs run on the engine directly.  ``sweep``
jobs reuse the process-parallel machinery from PR 3: in ``process``
mode the worker thread spins up the same spawn
:class:`~concurrent.futures.ProcessPoolExecutor` the batch sweep
engine uses (same initializer, same fcntl-locked shared cache
directory), but submits the plan's simulations and analyses as
individual futures so the job's cancel event can be honoured *between*
futures — a cancelled sweep cancels everything still pending, drains
the pool, and exits without leaking worker processes.  ``serial`` mode
runs the same plan in-thread with a cancellation checkpoint between
grid points; both modes produce results bit-identical to
:func:`repro.api.parallel.run_sweep`.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path
from typing import Any

from repro.api.engine import AnalysisEngine
from repro.api.parallel import (
    SWEEP_MODES,
    SweepRun,
    _worker_analyze,
    _worker_init,
    _worker_simulate,
    plan_sweep,
)
from repro.errors import ConfigurationError
from repro.serve.protocol import JobRequest
from repro.serve.queue import Job, JobCancelled, JobQueue

__all__ = ["WorkerPool"]

#: How often a sweep job re-checks its cancel event while futures run.
_CANCEL_POLL_S = 0.1


class WorkerPool:
    """N threads draining a :class:`JobQueue` into a shared engine."""

    def __init__(
        self,
        queue: JobQueue,
        engine: AnalysisEngine,
        *,
        workers: int = 2,
        sweep_mode: str = "process",
        sweep_workers: int | None = None,
        plan_store_dir: str | Path | None = None,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        if sweep_mode not in SWEEP_MODES:
            raise ConfigurationError(
                f"sweep_mode must be one of: {', '.join(SWEEP_MODES)}, "
                f"got {sweep_mode!r}"
            )
        if sweep_workers is not None and sweep_workers < 1:
            raise ConfigurationError(
                f"sweep_workers must be positive, got {sweep_workers}"
            )
        self.queue = queue
        self.engine = engine
        self.sweep_mode = sweep_mode
        self.sweep_workers = sweep_workers
        #: Shared with sweep worker processes so lowerings persist
        #: across pool lifetimes (one per machine, not one per spawn).
        self.plan_store_dir = None if plan_store_dir is None else Path(plan_store_dir)
        self._threads = [
            threading.Thread(
                target=self._loop, name=f"serve-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            for thread in self._threads:
                thread.start()

    def shutdown(self) -> None:
        """Close the queue and join every worker thread."""
        self.queue.close()
        if self._started:
            for thread in self._threads:
                thread.join()

    # -- the worker loop ----------------------------------------------

    def _loop(self) -> None:
        while True:
            job = self.queue.next_job()
            if job is None:
                return
            try:
                result = self._execute(job)
            except JobCancelled:
                self.queue.mark_cancelled(job)
            except Exception as exc:
                # A failing job must never take its worker down; the
                # failure (ReproError or a genuine bug) is recorded on
                # the job and surfaces to the client as one line.
                self.queue.fail(job, exc)
            else:
                self.queue.finish(job, result)

    def _execute(self, job: Job) -> dict[str, Any]:
        request = job.request
        job.check_cancelled()
        if request.kind == "analyze":
            payload = self.engine.run(request.spec, request.projection).to_dict()
        elif request.kind == "stream":
            payload = self.engine.run_streaming(request.spec).to_dict()
        elif request.kind == "traffic":
            payload = self.engine.run_traffic(request.spec).to_dict()
        else:
            payload = self._run_sweep(job, request).to_dict()
        # A cancel that lands while the final selector call is in
        # flight still wins — the client asked for no result.
        job.check_cancelled()
        return payload

    # -- sweep execution with cancellation checkpoints ----------------

    def _run_sweep(self, job: Job, request: JobRequest) -> SweepRun:
        mode = request.mode or self.sweep_mode
        if mode == "process":
            return self._run_sweep_process(job, request)
        return self._run_sweep_serial(job, request)

    def _run_sweep_serial(self, job: Job, request: JobRequest) -> SweepRun:
        sweep = request.spec
        plan = plan_sweep(sweep, self.engine.noise_sigma)
        for simulation in plan.simulations:
            job.check_cancelled()
            self.engine.trace_for(simulation)
        results = []
        for point in plan.points:
            job.check_cancelled()
            results.append(self.engine.run(point, plan.projection))
        return SweepRun(
            sweep=sweep,
            projection=plan.projection,
            results=tuple(results),
            mode="serial",
            workers=1,
            trace_keys=plan.trace_keys,
        )

    def _await(self, job: Job, futures: list[Future]) -> list[Any]:
        """Collect futures in order, polling the job's cancel event.

        On cancellation everything still pending is cancelled before
        :class:`JobCancelled` propagates; in-flight tasks finish (their
        writes land in the shared cache and stay reusable), and the
        caller's pool context drains them before returning.
        """
        try:
            results = []
            for future in futures:
                while True:
                    try:
                        results.append(future.result(timeout=_CANCEL_POLL_S))
                        break
                    except FutureTimeout:
                        job.check_cancelled()
            return results
        except JobCancelled:
            for future in futures:
                future.cancel()
            raise

    def _run_sweep_process(self, job: Job, request: JobRequest) -> SweepRun:
        sweep = request.spec
        workers = request.workers or self.sweep_workers or os.cpu_count() or 1
        plan = plan_sweep(sweep, self.engine.noise_sigma)
        directory = self.engine.cache.directory
        staging = None
        if directory is None:
            staging = tempfile.TemporaryDirectory(prefix="repro-serve-sweep-")
            directory = Path(staging.name)
        projection_payload = (
            None if plan.projection is None else plan.projection.to_dict()
        )
        try:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(
                    str(directory),
                    self.engine.noise_sigma,
                    None
                    if self.plan_store_dir is None
                    else str(self.plan_store_dir),
                ),
            ) as pool:
                job.check_cancelled()
                # Phase 1: each unique epoch exactly once into the
                # shared fcntl-locked disk cache.
                self._await(
                    job,
                    [
                        pool.submit(_worker_simulate, spec.to_dict())
                        for spec in plan.simulations
                    ],
                )
                # Phase 2: per-point analyses, all traces disk hits now.
                results = self._await(
                    job,
                    [
                        pool.submit(_worker_analyze, (point.to_dict(), projection_payload))
                        for point in plan.points
                    ],
                )
        finally:
            if staging is not None:
                staging.cleanup()
        return SweepRun(
            sweep=sweep,
            projection=plan.projection,
            results=tuple(results),
            mode="process",
            workers=workers,
            trace_keys=plan.trace_keys,
        )
