"""Process-parallel sweep engine: plan a grid, simulate once, fan out.

SeqPoint's headline experiments are *sweeps* — many analysis points
varying the network, corpus scale, identification config, data-order
seed, and selector (the paper's target-count and hardware-speedup
axes).  :class:`SweepSpec` describes such a grid declaratively (and
JSON round-trips, like :class:`~repro.api.spec.AnalysisSpec`);
:func:`plan_sweep` expands it and deduplicates the underlying
simulation work; :func:`run_sweep` executes the plan serially or — the
headline mode — on a :class:`~concurrent.futures.ProcessPoolExecutor`
so the numpy-heavy selection and projection work escapes the GIL.

The process protocol is deliberately narrow: workers receive only
serialized specs (``to_dict`` payloads) and share simulated epochs
through the content-addressed on-disk
:class:`~repro.api.cache.TraceCache`, whose per-key file locks
guarantee one simulation per unique trace even when sweeps race.  The
planner schedules each unique trace key exactly once *before* the
per-point analyses fan out, so no two points ever wait on the same
epoch.  Results are bit-identical to looping
:meth:`AnalysisEngine.run` serially over the expanded grid (asserted
in ``tests/test_api_parallel.py``); ``benchmarks/bench_parallel_sweep.py``
measures the wall-clock win.

Below the trace cache, each worker process additionally shares the
process-wide compiled-plan cache (:data:`repro.models.plan.PLAN_CACHE`)
and the per-config measurement stores (:mod:`repro.hw.device`), so a
worker that simulates several grid points lowers and times each unique
``(model, shape, config)`` exactly once no matter how many points
touch it.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.api.cache import TraceCache
from repro.api.engine import NOISE_SIGMA, AnalysisEngine, AnalysisResult, trace_key
from repro.api.spec import (
    DEFAULT_BATCH_SIZE,
    AnalysisSpec,
    ProjectionSpec,
    SpecBase,
    _freeze_kwargs,
    option,
)
from repro.errors import ConfigurationError
from repro.models.plan import PLAN_CACHE, PlanStore

__all__ = ["SweepSpec", "SweepPlan", "SweepRun", "plan_sweep", "run_sweep", "SWEEP_MODES"]

#: Execution modes :func:`run_sweep` accepts.
SWEEP_MODES = ("serial", "process")


def _axis(name: str, value: Any, convert) -> tuple:
    """Normalise one grid axis: scalar or sequence → deduped tuple."""
    if (
        isinstance(value, (str, bytes, Mapping))
        or not hasattr(value, "__iter__")
    ):
        # A Mapping is a scalar here: the dict form of one selector
        # entry, not a sequence of its keys.
        value = (value,)
    try:
        items = tuple(convert(item) for item in value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a sequence of values, got {value!r}") from None
    if not items:
        raise ConfigurationError(f"{name} cannot be empty")
    try:
        return tuple(dict.fromkeys(items))  # dedupe, first appearance wins
    except TypeError:
        # Selector kwargs may carry unhashable (list-valued) JSON; fall
        # back to a scan so they dedupe instead of crashing.
        deduped: list = []
        for item in items:
            if item not in deduped:
                deduped.append(item)
        return tuple(deduped)


def _normalise_selector(entry: Any) -> tuple[str, tuple[tuple[str, Any], ...]]:
    """One selector axis entry → ``(name, frozen kwargs)``.

    Accepts a bare registry name, a ``{"selector": ..., "kwargs": ...}``
    mapping (the JSON form), or an already-normalised pair.
    """
    if isinstance(entry, str):
        return entry, ()
    if isinstance(entry, Mapping):
        unknown = sorted(set(entry) - {"selector", "kwargs"})
        if unknown:
            raise ConfigurationError(
                f"unknown selector entry fields: {', '.join(unknown)}; "
                "expected 'selector' and optionally 'kwargs'"
            )
        name = entry.get("selector")
        if not isinstance(name, str):
            raise ConfigurationError(f"selector entries need a string 'selector', got {name!r}")
        return name, _freeze_kwargs(entry.get("kwargs", ()))
    try:
        name, kwargs = entry
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"selector entries must be names, mappings, or (name, kwargs) pairs, got {entry!r}"
        ) from None
    if not isinstance(name, str):
        raise ConfigurationError(f"selector entries need a string name, got {name!r}")
    return name, _freeze_kwargs(kwargs)


@dataclass(frozen=True)
class SweepSpec(SpecBase):
    """A grid of analyses, declaratively.

    The expansion order is documented and stable — networks, then
    scales, then batch sizes, then identification configs, then seeds,
    then selectors, slowest axis first — so results line up with
    :meth:`expand` positionally.  ``targets`` names the configurations
    every point projects onto (``None``: each point's own
    identification config, the paper's identification-error check).
    """

    networks: tuple[str, ...] = option(
        help="comma-separated networks, e.g. gnmt,ds2", parse="list"
    )
    scales: tuple[float, ...] = option(
        (1.0,),
        help="comma-separated corpus scales in (0, 1] (default 0.1)",
        parse="list",
        cli_default=(0.1,),
    )
    batch_sizes: tuple[int, ...] = option(
        (DEFAULT_BATCH_SIZE,),
        help=f"comma-separated batch sizes (default {DEFAULT_BATCH_SIZE})",
        parse="list",
    )
    configs: tuple[int, ...] = option(
        (1,), help="comma-separated identification configs (default 1)", parse="list"
    )
    seeds: tuple[int, ...] = option(
        (0,), help="comma-separated data-order seeds (default 0)", parse="list"
    )
    selectors: tuple[Any, ...] = option(
        ("seqpoint",),
        help="comma-separated selector names (default seqpoint); "
        "selector kwargs need a --spec file",
        parse="list",
    )
    targets: tuple[int, ...] | None = option(
        None,
        help="comma-separated Table II configs to project every point onto, "
        "or 'all' (default: each point's identification config)",
        parse="targets",
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "networks", _axis("networks", self.networks, str))
        object.__setattr__(self, "scales", _axis("scales", self.scales, float))
        object.__setattr__(self, "batch_sizes", _axis("batch_sizes", self.batch_sizes, int))
        object.__setattr__(self, "configs", _axis("configs", self.configs, int))
        object.__setattr__(self, "seeds", _axis("seeds", self.seeds, int))
        object.__setattr__(
            self, "selectors", _axis("selectors", self.selectors, _normalise_selector)
        )
        if self.targets is not None:
            object.__setattr__(
                self, "targets", ProjectionSpec(targets=self.targets).targets
            )
        # Expand once: validates every point now (not mid-sweep) and
        # caches the tuple so planners don't pay the product again.
        object.__setattr__(self, "_points", self._expand())

    def projection(self) -> ProjectionSpec | None:
        return None if self.targets is None else ProjectionSpec(targets=self.targets)

    def expand(self) -> tuple[AnalysisSpec, ...]:
        """Every analysis point of the grid, in documented order."""
        return self._points

    def _expand(self) -> tuple[AnalysisSpec, ...]:
        points = []
        for network in self.networks:
            for scale in self.scales:
                for batch_size in self.batch_sizes:
                    for config in self.configs:
                        for seed in self.seeds:
                            for selector, kwargs in self.selectors:
                                points.append(
                                    AnalysisSpec(
                                        network=network,
                                        batch_size=batch_size,
                                        config=config,
                                        scale=scale,
                                        seed=seed,
                                        selector=selector,
                                        selector_kwargs=kwargs,
                                    )
                                )
        return tuple(points)

    def __len__(self) -> int:
        size = len(self.networks) * len(self.scales) * len(self.batch_sizes)
        return size * len(self.configs) * len(self.seeds) * len(self.selectors)

    def to_dict(self) -> dict[str, Any]:
        return {
            "networks": list(self.networks),
            "scales": list(self.scales),
            "batch_sizes": list(self.batch_sizes),
            "configs": list(self.configs),
            "seeds": list(self.seeds),
            "selectors": [
                {"selector": name, "kwargs": dict(kwargs)} for name, kwargs in self.selectors
            ],
            "targets": None if self.targets is None else list(self.targets),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        return super().from_dict(payload)  # type: ignore[return-value]


@dataclass(frozen=True)
class SweepPlan:
    """An expanded sweep with its deduplicated simulation schedule.

    ``simulations`` holds one spec per unique trace key — covering each
    point's identification config *and* every projection target — in
    first-appearance order.  Executing them before the per-point
    analyses means no analysis ever blocks on another point's epoch.
    """

    points: tuple[AnalysisSpec, ...]
    projection: ProjectionSpec | None
    simulations: tuple[AnalysisSpec, ...]
    trace_keys: tuple[str, ...]

    @property
    def unique_traces(self) -> int:
        return len(self.trace_keys)


def plan_sweep(sweep: SweepSpec, noise_sigma: float = NOISE_SIGMA) -> SweepPlan:
    """Expand ``sweep`` and dedupe the trace simulations it needs."""
    points = sweep.expand()
    projection = sweep.projection()
    schedule: dict[str, AnalysisSpec] = {}
    for point in points:
        configs = (point.config,)
        if projection is not None:
            configs = tuple(dict.fromkeys((point.config, *projection.targets)))
        for config in configs:
            simulation = replace(point, config=config)
            key = trace_key(simulation, noise_sigma)
            if key not in schedule:
                schedule[key] = simulation
    return SweepPlan(
        points=points,
        projection=projection,
        simulations=tuple(schedule.values()),
        trace_keys=tuple(schedule),
    )


@dataclass(frozen=True)
class SweepRun:
    """A sweep's results plus how they were produced."""

    sweep: SweepSpec
    projection: ProjectionSpec | None
    results: tuple[AnalysisResult, ...] = field(repr=False)
    mode: str = "serial"
    workers: int = 1
    trace_keys: tuple[str, ...] = ()

    @property
    def unique_traces(self) -> int:
        return len(self.trace_keys)

    def __len__(self) -> int:
        return len(self.results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "sweep": self.sweep.to_dict(),
            "projection": None if self.projection is None else self.projection.to_dict(),
            "mode": self.mode,
            "workers": self.workers,
            "unique_traces": self.unique_traces,
            "results": [result.to_dict() for result in self.results],
        }


# -- process-pool protocol --------------------------------------------
#
# Workers are handed nothing but serialized payloads; each builds one
# engine (in the pool initializer) over the shared cache directory and
# reuses it for every task, so models, runners, and the warm kernel
# substrate amortise across the worker's share of the sweep.

_WORKER_ENGINE: AnalysisEngine | None = None


def _worker_init(
    cache_dir: str, noise_sigma: float, plan_store_dir: str | None = None
) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = AnalysisEngine(cache=TraceCache(cache_dir), noise_sigma=noise_sigma)
    if plan_store_dir is not None:
        # Every worker in the pool shares one on-disk plan store, so
        # each unique lowering happens once machine-wide, not once per
        # spawned interpreter.
        PLAN_CACHE.attach_store(PlanStore(plan_store_dir))


def _worker_simulate(payload: dict[str, Any]) -> str:
    """Simulate one unique trace into the shared disk cache."""
    spec = AnalysisSpec.from_dict(payload)
    _WORKER_ENGINE.trace_for(spec)
    return _WORKER_ENGINE.trace_key(spec)


def _worker_analyze(task: tuple[dict[str, Any], dict[str, Any] | None]) -> AnalysisResult:
    """Run one analysis point; its traces are disk hits by now."""
    spec_payload, projection_payload = task
    spec = AnalysisSpec.from_dict(spec_payload)
    projection = (
        None if projection_payload is None else ProjectionSpec.from_dict(projection_payload)
    )
    return _WORKER_ENGINE.run(spec, projection)


def _run_process(
    plan: SweepPlan,
    directory: Path,
    workers: int,
    noise_sigma: float,
    plan_store_dir: str | None = None,
) -> tuple[AnalysisResult, ...]:
    context = multiprocessing.get_context("spawn")
    projection_payload = None if plan.projection is None else plan.projection.to_dict()
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_worker_init,
        initargs=(str(directory), noise_sigma, plan_store_dir),
    ) as pool:
        # Phase 1: every unique epoch exactly once, spread over the pool.
        list(pool.map(_worker_simulate, [spec.to_dict() for spec in plan.simulations]))
        # Phase 2: per-point analysis; results come back in input order.
        return tuple(
            pool.map(
                _worker_analyze,
                [(point.to_dict(), projection_payload) for point in plan.points],
            )
        )


def run_sweep(
    sweep: SweepSpec,
    *,
    engine: AnalysisEngine | None = None,
    mode: str = "process",
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    plan_store_dir: str | Path | None = None,
) -> SweepRun:
    """Execute a sweep; results in :meth:`SweepSpec.expand` order.

    ``mode`` picks the executor: ``"process"`` (the default) fans
    analyses out to worker processes communicating through a shared
    on-disk trace cache; ``"serial"`` loops in-process.  Both produce
    bit-identical results.

    ``engine`` supplies the cache and noise model for serial mode (a
    fresh engine over ``cache_dir`` otherwise); in process mode the
    engine's *disk* directory is shared with workers, and a memory-only
    engine falls back to ``cache_dir`` or a per-sweep temporary
    directory.

    Process workers are spawned interpreters that re-import the
    package, so they only see components registered at import time;
    sweeps over models/selectors registered dynamically at runtime
    must use ``mode="serial"``.

    ``plan_store_dir``, when given, names a shared on-disk
    :class:`~repro.models.plan.PlanStore`: every worker (or, in serial
    mode, the in-process plan cache for the duration of the sweep)
    resolves plan-cache misses through it, so each unique lowering
    happens once per machine rather than once per process.
    """
    if mode not in SWEEP_MODES:
        raise ConfigurationError(
            f"unknown sweep mode {mode!r}; expected one of: {', '.join(SWEEP_MODES)}"
        )
    if mode == "serial":
        workers = 1  # recorded in the run: exactly one executor ran
    elif workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError(f"workers must be positive, got {workers}")
    noise_sigma = engine.noise_sigma if engine is not None else NOISE_SIGMA
    plan = plan_sweep(sweep, noise_sigma)

    if mode == "process":
        directory = engine.cache.directory if engine is not None else None
        if directory is None and cache_dir is not None:
            directory = Path(cache_dir)
        staging = None
        if directory is None:
            staging = tempfile.TemporaryDirectory(prefix="repro-sweep-")
            directory = Path(staging.name)
        try:
            results = _run_process(
                plan,
                directory,
                workers,
                noise_sigma,
                None if plan_store_dir is None else str(plan_store_dir),
            )
        finally:
            if staging is not None:
                staging.cleanup()
    else:
        if engine is None:
            engine = AnalysisEngine(cache=TraceCache(cache_dir), noise_sigma=noise_sigma)
        # Scope the store to this sweep: restore whatever was attached
        # before (tests and nested callers rely on this not leaking).
        previous = (
            PLAN_CACHE.attach_store(PlanStore(plan_store_dir))
            if plan_store_dir is not None
            else None
        )
        try:
            for simulation in plan.simulations:
                engine.trace_for(simulation)
            results = tuple(engine.run(point, plan.projection) for point in plan.points)
        finally:
            if plan_store_dir is not None:
                PLAN_CACHE.attach_store(previous)

    return SweepRun(
        sweep=sweep,
        projection=plan.projection,
        results=results,
        mode=mode,
        workers=workers,
        trace_keys=plan.trace_keys,
    )
