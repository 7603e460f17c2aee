"""The analysis engine: spec in, selection + projections out.

:class:`AnalysisEngine` is the one resolution path from a declarative
:class:`~repro.api.spec.AnalysisSpec` to simulated results.  It builds
the model, corpus, and batching pipeline through the registries, runs
the identification epoch through the :class:`TraceCache`, applies the
named selector, and projects epoch time/throughput onto any requested
Table II configurations.  ``repro.experiments.setups`` delegates here,
so the experiment harness, the CLI, and programmatic callers all share
one cache and produce identical numbers for identical requests.

``run_many`` fans a batch of specs out over a thread pool; the cache's
per-key locking deduplicates shared simulations, so e.g. a sweep of
five selectors over one scenario costs one epoch, not five.  For grids
large enough that the GIL is the bottleneck, ``run_sweep`` hands a
declarative :class:`~repro.api.parallel.SweepSpec` to the
process-parallel executor in :mod:`repro.api.parallel`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace
from threading import Lock
from typing import Any

from repro.api.cache import TraceCache
from repro.api.registry import BATCHING, DATASETS, MODELS, build_batching
from repro.api.spec import AnalysisSpec, ProjectionSpec
from repro.core.projection import (
    project_epoch_time,
    project_logged_time,
    project_throughput,
    uplift_pct,
)
from repro.core.selection import Selection
from repro.core.seqpoint import SeqPointResult
from repro.data.batching import BatchingPolicy
from repro.errors import ConfigurationError
from repro.data.dataset import SequenceDataset
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.models.spec import Model
from repro.train.frame import TraceFrame
from repro.train.runner import TrainingRunSimulator
from repro.train.trace import TrainingTrace
from repro.util.stats import percent_error

__all__ = [
    "AnalysisEngine",
    "AnalysisResult",
    "ConfigProjection",
    "SelectedPointSummary",
    "StreamingAnalysisResult",
    "TrafficAnalysisResult",
    "TrafficProjection",
    "ResolvedAnalysis",
    "default_engine",
    "trace_key",
    "EVAL_FRACTION",
    "NOISE_SIGMA",
]

#: Held-out split for the evaluation phase (paper §IV-C1, ~2-3%).
EVAL_FRACTION = 0.02
#: Seed of the train/eval split — fixed so every config sees one corpus.
SPLIT_SEED = 7
#: Run-to-run measurement jitter of real hardware (log-normal sigma).
#: Deterministic per (config, iteration), so analyses stay exactly
#: reproducible while error magnitudes stay honest.
NOISE_SIGMA = 0.02


def trace_key(spec: AnalysisSpec, noise_sigma: float = NOISE_SIGMA) -> str:
    """Content-address of the identification trace a spec implies.

    Module-level so planners (:mod:`repro.api.parallel`) can dedupe
    simulation work without instantiating an engine; the engine method
    delegates here with its own noise model.
    """
    fingerprint = dict(spec.trace_fingerprint())
    fingerprint["noise_sigma"] = noise_sigma
    return TraceCache.key_for(fingerprint)


@dataclass(frozen=True)
class ResolvedAnalysis:
    """A scenario's named parts, resolved to concrete objects.

    Shared by every spec with the same (network, dataset, batching,
    batch_size, scale) — config, seed, and selector do not change what
    resolution produces.
    """

    model: Model
    train_data: SequenceDataset
    eval_data: SequenceDataset
    batching: BatchingPolicy


@dataclass(frozen=True)
class SelectedPointSummary:
    """One selected iteration, reduced to its serializable essentials."""

    seq_len: int
    tgt_len: int | None
    weight: float
    time_s: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq_len": self.seq_len,
            "tgt_len": self.tgt_len,
            "weight": self.weight,
            "time_s": self.time_s,
        }


@dataclass(frozen=True)
class ConfigProjection:
    """Projected vs actual behaviour on one Table II configuration."""

    config: int
    config_name: str
    projected_time_s: float
    actual_time_s: float
    error_pct: float
    projected_throughput: float
    actual_throughput: float
    #: Throughput uplift relative to the spec's identification config.
    projected_uplift_pct: float
    actual_uplift_pct: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "config_name": self.config_name,
            "projected_time_s": self.projected_time_s,
            "actual_time_s": self.actual_time_s,
            "error_pct": self.error_pct,
            "projected_throughput": self.projected_throughput,
            "actual_throughput": self.actual_throughput,
            "projected_uplift_pct": self.projected_uplift_pct,
            "actual_uplift_pct": self.actual_uplift_pct,
        }


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one analysis produced, JSON-serializable throughout.

    ``selection`` keeps the full :class:`Selection` for programmatic
    reuse (further projections, export); ``to_dict`` emits the
    summarised ``points`` instead so results serialise compactly.
    """

    spec: AnalysisSpec
    selection: Selection
    points: tuple[SelectedPointSummary, ...]
    iterations: int
    unique_seq_lens: int
    #: Bins used by SeqPoint; ``None`` for selectors without binning.
    k: int | None
    identification_error_pct: float
    projected_total_s: float
    actual_total_s: float
    projections: tuple[ConfigProjection, ...]

    @property
    def method(self) -> str:
        return self.selection.method

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "method": self.method,
            "points": [point.to_dict() for point in self.points],
            "iterations": self.iterations,
            "unique_seq_lens": self.unique_seq_lens,
            "iterations_to_profile": self.selection.iterations_to_profile,
            "k": self.k,
            "identification_error_pct": self.identification_error_pct,
            "projected_total_s": self.projected_total_s,
            "actual_total_s": self.actual_total_s,
            "projections": [p.to_dict() for p in self.projections],
        }


@dataclass(frozen=True)
class StreamingAnalysisResult:
    """One online identification, with its full-epoch ground truth.

    The streaming path consumed ``iterations_consumed`` of the
    ``epoch_iterations``-long logged epoch; ``projected_epoch_time_s``
    extrapolates the converged prefix projection to the full epoch and
    ``projection_error_pct`` scores it against the epoch's actual
    time — the number the paper's threshold ``e`` bounds for the batch
    pipeline.  ``matches_batch_selection`` reports whether the early
    stop selected the same ``(seq_len, tgt_len)`` set the batch
    analysis of the complete epoch picks.
    """

    spec: "Any"  # StreamSpec (typed loosely to keep the import lazy)
    converged: bool
    iterations_consumed: int
    epoch_iterations: int
    checks: tuple["Any", ...]
    points: tuple[SelectedPointSummary, ...]
    k: int | None
    identification_error_pct: float
    projected_epoch_time_s: float
    actual_total_s: float
    projection_error_pct: float
    matches_batch_selection: bool
    batch_identification_error_pct: float
    selection: Selection = dataclass_field(repr=False)

    @property
    def method(self) -> str:
        return self.selection.method

    @property
    def fraction_consumed(self) -> float:
        return self.iterations_consumed / self.epoch_iterations

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "method": self.method,
            "converged": self.converged,
            "iterations_consumed": self.iterations_consumed,
            "epoch_iterations": self.epoch_iterations,
            "fraction_consumed": self.fraction_consumed,
            "checks": [check.to_dict() for check in self.checks],
            "points": [point.to_dict() for point in self.points],
            "k": self.k,
            "identification_error_pct": self.identification_error_pct,
            "projected_epoch_time_s": self.projected_epoch_time_s,
            "actual_total_s": self.actual_total_s,
            "projection_error_pct": self.projection_error_pct,
            "matches_batch_selection": self.matches_batch_selection,
            "batch_identification_error_pct": (
                self.batch_identification_error_pct
            ),
        }


@dataclass(frozen=True)
class TrafficProjection:
    """Projected vs actual serving time on one Table II configuration.

    The batch composition is fixed by the base run (the dynamic
    batcher sees arrivals, not device speed), so a target config
    re-times the *same* batches; the projection prices only the
    selected (batch, SL) cells on the target device.
    """

    config: int
    config_name: str
    projected_serving_s: float
    actual_serving_s: float
    error_pct: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "config_name": self.config_name,
            "projected_serving_s": self.projected_serving_s,
            "actual_serving_s": self.actual_serving_s,
            "error_pct": self.error_pct,
        }


@dataclass(frozen=True)
class TrafficAnalysisResult:
    """One traffic-driven serving run, identified and projected.

    ``actual_total_s`` is the run's total device (serving compute)
    time; ``makespan_s`` adds the queueing story (when the last batch
    finished).  ``latency``/``queue_wait`` are SLO-style histogram
    snapshots over per-request end-to-end latency and device-queue
    wait.  The streaming block reports how the online identifier fared
    against the live batch stream — including how often the drift
    guard reset on mixture shifts.
    """

    spec: "Any"  # TrafficSpec (typed loosely to keep the import lazy)
    requests: int
    batches: int
    unique_seq_lens: int
    points: tuple[SelectedPointSummary, ...]
    k: int | None
    identification_error_pct: float
    projected_total_s: float
    actual_total_s: float
    makespan_s: float
    latency: dict[str, Any]
    queue_wait: dict[str, Any]
    converged: bool
    iterations_consumed: int
    checks: tuple["Any", ...]
    drift_resets: int
    streaming_projection_error_pct: float
    matches_batch_selection: bool
    projections: tuple[TrafficProjection, ...]
    selection: Selection = dataclass_field(repr=False)

    @property
    def method(self) -> str:
        return self.selection.method

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "method": self.method,
            "requests": self.requests,
            "batches": self.batches,
            "unique_seq_lens": self.unique_seq_lens,
            "points": [point.to_dict() for point in self.points],
            "k": self.k,
            "identification_error_pct": self.identification_error_pct,
            "projected_total_s": self.projected_total_s,
            "actual_total_s": self.actual_total_s,
            "makespan_s": self.makespan_s,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "converged": self.converged,
            "iterations_consumed": self.iterations_consumed,
            "checks": [check.to_dict() for check in self.checks],
            "drift_resets": self.drift_resets,
            "streaming_projection_error_pct": (
                self.streaming_projection_error_pct
            ),
            "matches_batch_selection": self.matches_batch_selection,
            "projections": [p.to_dict() for p in self.projections],
        }


class AnalysisEngine:
    """Resolves and executes :class:`AnalysisSpec` requests."""

    def __init__(
        self,
        cache: TraceCache | None = None,
        noise_sigma: float = NOISE_SIGMA,
    ):
        self.cache = cache if cache is not None else TraceCache()
        self.noise_sigma = noise_sigma
        self._resolved: dict[tuple, ResolvedAnalysis] = {}
        self._runners: dict[tuple, TrainingRunSimulator] = {}
        self._state_lock = Lock()

    # -- resolution ---------------------------------------------------

    def resolve(self, spec: AnalysisSpec) -> ResolvedAnalysis:
        """Build (and memoise) the spec's model, data, and pipeline."""
        key = (
            spec.network, spec.dataset, spec.batching,
            spec.batch_size, spec.scale,
        )
        with self._state_lock:
            resolved = self._resolved.get(key)
            if resolved is None:
                corpus = DATASETS.create(spec.dataset, scale=spec.scale)
                train, evaluation = corpus.split(EVAL_FRACTION, seed=SPLIT_SEED)
                resolved = ResolvedAnalysis(
                    model=MODELS.create(spec.network),
                    train_data=train,
                    eval_data=evaluation,
                    batching=build_batching(
                        spec.batching, spec.batch_size, dataset=spec.dataset
                    ),
                )
                self._resolved[key] = resolved
            return resolved

    def runner_for(self, spec: AnalysisSpec) -> TrainingRunSimulator:
        """Training simulator for the spec's scenario and config."""
        resolved = self.resolve(spec)
        key = (
            spec.network, spec.dataset, spec.batching,
            spec.batch_size, spec.scale, spec.config, spec.seed,
        )
        with self._state_lock:
            runner = self._runners.get(key)
            if runner is None:
                runner = TrainingRunSimulator(
                    model=resolved.model,
                    dataset=resolved.train_data,
                    batching=resolved.batching,
                    device=GpuDevice(paper_config(spec.config)),
                    eval_dataset=resolved.eval_data,
                    noise_sigma=self.noise_sigma,
                    # One dataset and one batching plan; each config is
                    # a separate physical run with its own jitter.
                    seed=spec.seed,
                    noise_seed=spec.config,
                )
                self._runners[key] = runner
            return runner

    def trace_key(self, spec: AnalysisSpec) -> str:
        """Cache key of the spec's identification trace."""
        return trace_key(spec, self.noise_sigma)

    def trace_for(self, spec: AnalysisSpec) -> TrainingTrace:
        """The spec's simulated identification epoch, through the cache.

        The returned trace is a thin view over a columnar
        :class:`TraceFrame`; no per-iteration records are materialised
        unless a caller explicitly touches ``.records``.
        """
        return self.cache.get_or_compute(
            self.trace_key(spec),
            lambda: self.runner_for(spec).run_epoch(include_eval=True),
        )

    def frame_for(self, spec: AnalysisSpec) -> TraceFrame:
        """The identification epoch's columnar frame (cached)."""
        return self.trace_for(spec).frame()

    # -- execution ----------------------------------------------------

    def _select(
        self, spec: AnalysisSpec, trace: TrainingTrace
    ) -> tuple[Selection, int | None, float, float]:
        """Apply the spec's selector; uniform numbers for any method.

        Selectors receive the columnar frame, so a sweep of selectors
        over one scenario shares a single vectorized per-SL grouping.
        """
        outcome = spec.build_selector().select(trace.frame())
        if isinstance(outcome, SeqPointResult):
            return (
                outcome.selection,
                outcome.k,
                outcome.identification_error_pct,
                outcome.projected_total_s,
            )
        projected = project_logged_time(outcome)
        error = percent_error(projected, trace.total_time_s)
        return outcome, None, error, projected

    def _project(
        self,
        spec: AnalysisSpec,
        selection: Selection,
        targets: tuple[int, ...],
    ) -> tuple[ConfigProjection, ...]:
        base_projected_tp = project_throughput(selection, self.runner_for(spec))
        base_actual_tp = self.trace_for(spec).throughput

        projections = []
        for target in targets:
            target_spec = replace(spec, config=target)
            target_runner = self.runner_for(target_spec)
            target_trace = self.trace_for(target_spec)
            projected_s = project_epoch_time(selection, target_runner)
            projected_tp = project_throughput(selection, target_runner)
            actual_tp = target_trace.throughput
            projections.append(
                ConfigProjection(
                    config=target,
                    config_name=paper_config(target).name,
                    projected_time_s=projected_s,
                    actual_time_s=target_trace.total_time_s,
                    error_pct=percent_error(
                        projected_s, target_trace.total_time_s
                    ),
                    projected_throughput=projected_tp,
                    actual_throughput=actual_tp,
                    projected_uplift_pct=uplift_pct(
                        base_projected_tp, projected_tp
                    ),
                    actual_uplift_pct=uplift_pct(base_actual_tp, actual_tp),
                )
            )
        return tuple(projections)

    def run(
        self,
        spec: AnalysisSpec,
        projection: ProjectionSpec | None = None,
    ) -> AnalysisResult:
        """Simulate, select, and project one analysis request.

        Without a ``projection`` the result projects onto the spec's
        own identification config (the paper's identification-error
        check); pass ``ProjectionSpec()`` for all five Table II configs.
        """
        trace = self.trace_for(spec)
        selection, k, error, projected = self._select(spec, trace)
        targets = (
            projection.targets if projection is not None else (spec.config,)
        )
        return AnalysisResult(
            spec=spec,
            selection=selection,
            points=tuple(
                SelectedPointSummary(
                    seq_len=point.seq_len,
                    tgt_len=point.tgt_len,
                    weight=point.weight,
                    time_s=point.record.time_s,
                )
                for point in selection.points
            ),
            iterations=len(trace),
            unique_seq_lens=len(trace.unique_seq_lens()),
            k=k,
            identification_error_pct=error,
            projected_total_s=projected,
            actual_total_s=trace.total_time_s,
            projections=self._project(spec, selection, targets),
        )

    def run_many(
        self,
        specs: list[AnalysisSpec] | tuple[AnalysisSpec, ...],
        projection: ProjectionSpec | None = None,
        max_workers: int | None = None,
    ) -> list[AnalysisResult]:
        """Run a batch of specs concurrently; results in input order.

        Shared work deduplicates through the trace cache: specs that
        differ only in selector reuse one identification epoch.
        """
        specs = list(specs)
        if not specs:
            return []
        if max_workers is None:
            max_workers = min(len(specs), os.cpu_count() or 4)
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(lambda s: self.run(s, projection), specs))

    def run_streaming(self, stream: "Any") -> StreamingAnalysisResult:
        """Execute a :class:`~repro.stream.spec.StreamSpec` online.

        The scenario's cached epoch trace replays as a simulated live
        feed (chunked per the spec); the identifier consumes it until
        the selection stabilises, then the converged prefix projection
        is scored against the full epoch and against the batch analysis
        of the same spec (which shares the cached trace, so the ground
        truth costs no extra simulation).
        """
        from repro.stream.feed import TraceReplayFeed
        from repro.stream.spec import StreamSpec
        from repro.stream.stats import StreamingSlStatistics

        if not isinstance(stream, StreamSpec):
            raise ConfigurationError(
                f"run_streaming expects a StreamSpec, got {type(stream).__name__}"
            )
        frame = self.frame_for(stream.analysis)
        feed = TraceReplayFeed(frame, chunk_size=stream.chunk_size)
        run = stream.build_identifier().run(
            feed, stats=StreamingSlStatistics.for_frame(frame)
        )
        projected_epoch = run.project_epoch_time(len(frame))
        batch = self.run(stream.analysis)
        selected = {(p.seq_len, p.tgt_len) for p in run.selection.points}
        batch_selected = {(p.seq_len, p.tgt_len) for p in batch.points}
        return StreamingAnalysisResult(
            spec=stream,
            converged=run.converged,
            iterations_consumed=run.iterations_consumed,
            epoch_iterations=len(frame),
            checks=run.checks,
            points=tuple(
                SelectedPointSummary(
                    seq_len=point.seq_len,
                    tgt_len=point.tgt_len,
                    weight=point.weight,
                    time_s=point.record.time_s,
                )
                for point in run.selection.points
            ),
            k=run.k,
            identification_error_pct=run.identification_error_pct,
            projected_epoch_time_s=projected_epoch,
            actual_total_s=frame.total_time_s,
            projection_error_pct=percent_error(
                projected_epoch, frame.total_time_s
            ),
            matches_batch_selection=selected == batch_selected,
            batch_identification_error_pct=batch.identification_error_pct,
            selection=run.selection,
        )

    def run_traffic(
        self, traffic: "Any", *, plan_store_dir: "str | None" = None
    ) -> TrafficAnalysisResult:
        """Execute a :class:`~repro.traffic.spec.TrafficSpec`.

        A seeded arrival process paces requests bootstrap-resampled
        from the scenario's training corpus (per the spec's mixture
        schedule); the dynamic batcher forms device batches; the
        serving loop times them through the batched pipeline.  The
        resulting frame is identified with the spec's selector, the
        live batch stream is replayed through the streaming identifier
        (formation-instant chunks, drift guard active), and serving
        time is projected onto any target configurations by re-timing
        the *same* batch composition there.

        ``plan_store_dir`` attaches a cross-process
        :class:`~repro.models.plan.PlanStore` for the duration of the
        run (as sweep/serve already do), so repeated traffic
        simulations share lowered plans machine-wide.

        ``arrival="offline"`` degenerates to the classic §VII-E
        inference pass: the evaluation split is served as one epoch of
        :class:`~repro.train.inference.InferenceRunSimulator` batches
        (``experiments/inference.py`` routes here, bit-identically).
        """
        from repro.models.plan import PLAN_CACHE, PlanStore
        from repro.traffic.spec import TrafficSpec

        if not isinstance(traffic, TrafficSpec):
            raise ConfigurationError(
                f"run_traffic expects a TrafficSpec, got {type(traffic).__name__}"
            )
        previous = (
            PLAN_CACHE.attach_store(PlanStore(plan_store_dir))
            if plan_store_dir is not None
            else None
        )
        try:
            return self._run_traffic(traffic)
        finally:
            if plan_store_dir is not None:
                PLAN_CACHE.attach_store(previous)

    def _run_traffic(self, traffic: "Any") -> TrafficAnalysisResult:
        from repro.core.projection import project_total
        from repro.stream.feed import TraceReplayFeed
        from repro.stream.stats import StreamingSlStatistics
        from repro.traffic.batcher import form_batches
        from repro.traffic.feed import TrafficFeed
        from repro.traffic.simulator import TrafficSimulator, latency_snapshot
        from repro.traffic.workload import sample_requests
        from repro.train.inference import InferenceRunSimulator

        spec = traffic.analysis
        resolved = self.resolve(spec)
        policy = (
            resolved.batching
            if traffic.pad_multiple is None
            else BATCHING.create(
                spec.batching, spec.batch_size,
                pad_multiple=traffic.pad_multiple,
            )
        )
        targets = () if traffic.targets is None else traffic.targets

        if traffic.arrival == "offline":
            def simulator(config: int) -> InferenceRunSimulator:
                return InferenceRunSimulator(
                    resolved.model,
                    resolved.eval_data,
                    policy,
                    GpuDevice(paper_config(config)),
                    seed=spec.seed,
                )

            base = simulator(spec.config)
            trace = base.run_pass()
            frame = trace.frame()
            selection, k, error, projected = self._select(spec, trace)
            projections = []
            for target in targets:
                other = simulator(target)
                actual = other.run_pass().total_time_s
                projected_target = project_total(
                    selection,
                    lambda point: other.measure_seq_len(
                        point.seq_len, point.tgt_len
                    ),
                )
                projections.append(
                    TrafficProjection(
                        config=target,
                        config_name=paper_config(target).name,
                        projected_serving_s=projected_target,
                        actual_serving_s=actual,
                        error_pct=percent_error(projected_target, actual),
                    )
                )
            # Full batches serve batch_size requests each; an eval set
            # smaller than one batch is served whole, as one ragged batch.
            requests_served = min(frame.samples, len(resolved.eval_data))
            feed: "Any" = TraceReplayFeed(frame, chunk_size=1)
            # Per request: each waits for its batch alone (no queueing in
            # a replayed batch).
            latency_s = frame.time_s.repeat(requests_served // len(frame))
            latency = latency_snapshot(latency_s)
            queue_wait = latency_snapshot(latency_s * 0.0)
            makespan = frame.total_time_s
        else:
            workload = sample_requests(
                resolved.train_data, traffic.phases, traffic.requests,
                spec.seed,
            )
            arrival_s = traffic.build_arrivals().times(
                len(workload), spec.seed
            )
            batches = form_batches(
                arrival_s, workload.seq_len, workload.tgt_len, policy,
                traffic.max_wait_s,
            )
            base_sim = TrafficSimulator(
                resolved.model, spec.dataset, policy,
                GpuDevice(paper_config(spec.config)),
            )
            served = base_sim.serve(workload, arrival_s, batches)
            frame = served.frame
            selection, k, error, projected = self._select(
                spec, frame.to_trace()
            )
            base_cost = project_total(
                selection,
                lambda point: base_sim.measure_seq_len(
                    point.seq_len, point.tgt_len
                ),
            )
            projections = []
            for target in targets:
                target_sim = TrafficSimulator(
                    resolved.model, spec.dataset, policy,
                    GpuDevice(paper_config(target)),
                )
                actual = target_sim.serve(
                    workload, arrival_s, batches
                ).frame.total_time_s
                # Speedup-style projection (paper Figs 15/16): price
                # the selected cells on both devices and scale the
                # *measured* base serving time by the cost ratio, so
                # ragged flush batches cancel instead of being priced
                # as full ones.
                target_cost = project_total(
                    selection,
                    lambda point: target_sim.measure_seq_len(
                        point.seq_len, point.tgt_len
                    ),
                )
                projected_target = (
                    frame.total_time_s * target_cost / base_cost
                )
                projections.append(
                    TrafficProjection(
                        config=target,
                        config_name=paper_config(target).name,
                        projected_serving_s=projected_target,
                        actual_serving_s=actual,
                        error_pct=percent_error(projected_target, actual),
                    )
                )
            requests_served = len(workload)
            feed = TrafficFeed(served)
            latency = served.latency_percentiles()
            queue_wait = served.queue_wait_percentiles()
            makespan = served.makespan_s

        run = traffic.build_identifier().run(
            feed, stats=StreamingSlStatistics.for_frame(frame)
        )
        projected_serving = run.project_epoch_time(len(frame))
        selected = {(p.seq_len, p.tgt_len) for p in run.selection.points}
        batch_selected = {(p.seq_len, p.tgt_len) for p in selection.points}
        return TrafficAnalysisResult(
            spec=traffic,
            requests=requests_served,
            batches=len(frame),
            unique_seq_lens=len(frame.unique_seq_lens()),
            points=tuple(
                SelectedPointSummary(
                    seq_len=point.seq_len,
                    tgt_len=point.tgt_len,
                    weight=point.weight,
                    time_s=point.record.time_s,
                )
                for point in selection.points
            ),
            k=k,
            identification_error_pct=error,
            projected_total_s=projected,
            actual_total_s=frame.total_time_s,
            makespan_s=makespan,
            latency=latency,
            queue_wait=queue_wait,
            converged=run.converged,
            iterations_consumed=run.iterations_consumed,
            checks=run.checks,
            drift_resets=sum(
                1 for check in run.checks if check.drift_reset
            ),
            streaming_projection_error_pct=percent_error(
                projected_serving, frame.total_time_s
            ),
            matches_batch_selection=selected == batch_selected,
            projections=tuple(projections),
            selection=selection,
        )

    def run_sweep(
        self,
        sweep: "Any",
        *,
        mode: str = "process",
        workers: int | None = None,
        cache_dir: "str | None" = None,
        plan_store_dir: "str | None" = None,
    ) -> "Any":
        """Execute a :class:`~repro.api.parallel.SweepSpec` grid.

        Process mode shares this engine's on-disk cache directory with
        the workers (falling back to ``cache_dir`` or a per-sweep
        temporary directory for memory-only caches); serial mode runs on
        this engine directly.  ``plan_store_dir`` shares
        compiled lowerings machine-wide.  See
        :func:`repro.api.parallel.run_sweep`.
        """
        from repro.api.parallel import run_sweep

        return run_sweep(
            sweep,
            engine=self,
            mode=mode,
            workers=workers,
            cache_dir=cache_dir,
            plan_store_dir=plan_store_dir,
        )


_DEFAULT_ENGINE: AnalysisEngine | None = None
_DEFAULT_LOCK = Lock()


def default_engine() -> AnalysisEngine:
    """The process-wide engine the CLI and experiments harness share."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = AnalysisEngine()
        return _DEFAULT_ENGINE
