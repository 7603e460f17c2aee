"""Command-line interface.

Nine subcommands cover the common workflows:

``repro configs``
    Print the Table II hardware configurations.

``repro identify --network gnmt [--scale 0.1] [--threshold 1.0]``
    Simulate an identification epoch and print the SeqPoints.

``repro analyze --network gnmt [--targets 1,3] [--format json]``
    The full declarative pipeline: resolve an :class:`AnalysisSpec`
    (inline flags or ``--spec spec.json``), simulate, select, and
    project onto the requested hardware configurations.

``repro sweep --networks gnmt,ds2 [--seeds 0,1] [--workers 4]``
    A whole grid of analyses (inline axis flags or ``--spec
    sweep.json``), executed by the process-parallel sweep engine:
    every unique epoch simulates once into a shared trace cache, then
    per-point analyses fan out to worker processes.

``repro stream --network gnmt [--cadence 100] [--patience 3]``
    Online identification: replay the scenario's epoch as a simulated
    live feed, re-run the selector on a cadence, and stop as soon as
    the selection stabilises — reporting iterations consumed vs the
    epoch length and the projection error vs the full-trace ground
    truth.

``repro traffic --network gnmt [--arrival poisson --rate 64]``
    Traffic-driven inference serving: a seeded arrival process paces
    corpus-sampled requests through the dynamic batcher and the
    batched timing pipeline, reporting SLO-style latency percentiles,
    serving-time projections onto other configs, and the streaming
    identifier's convergence on the live batch stream.

``repro serve [--port 8742] [--workers 2] [--cache-dir DIR]``
    The always-on analysis service: an HTTP/JSON daemon that accepts
    analyze/sweep/stream/traffic jobs into an async queue, multiplexes
    streaming identification sessions, and serves cache/queue/latency
    metrics on ``/stats``.  ``--check`` runs a self-test instead of
    serving: bind, self-request ``/stats``, run one tiny analyze job
    end to end, and exit 0.

``repro trace convert SOURCE DEST [--to 3]``
    Convert a trace artefact (any version, legacy v1 JSON included) to
    the v3 binary columnar container or the v2 columnar JSON, verifying
    the converted file reloads bit-identically before reporting
    success.

``repro experiments [--scale 0.1] [--ids fig11,fig12] [--output F]``
    Regenerate paper tables/figures (all by default) and print (or
    write) the result tables.

(``repro`` is the installed entry point; ``python -m repro`` works
without installation.)  Library failures — unknown registry names,
malformed specs, bad files — exit with code 2 and a one-line message
on stderr, never a traceback.

Each spec-driven subcommand reads one spec: ``analyze`` an
:class:`AnalysisSpec` (plus ``--targets`` from
:class:`ProjectionSpec`), ``sweep`` a ``SweepSpec``, ``stream`` a
``StreamSpec``, ``traffic`` a ``TrafficSpec`` and ``serve`` a
:class:`ServeSpec`.  Its flags are derived from that dataclass: one
flag per field, typed by the field's annotation, with the help text
and CLI settings the field declares through
:func:`~repro.api.spec.option`; a nested spec, such as the
``analysis`` of stream and traffic, contributes its own fields' flags.
``--spec FILE`` follows one precedence rule: the JSON file is the base
document and inline flags override its fields one by one, nested
objects included, so ``--spec base.json --batch-size 32`` runs the
file's scenario at batch 32.  Run options that are not spec fields
(``--format``, ``--cache-dir``, ``--plan-store-dir``, sweep's
``--mode`` and ``--workers``, serve's ``--check``) are declared below
by hand.  All commands share one ``--format {table,json}``
implementation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from dataclasses import MISSING, Field, asdict, dataclass, fields
from functools import cache
from typing import Any, get_args, get_type_hints

from repro.api.cache import TraceCache
from repro.api.engine import (
    AnalysisEngine,
    AnalysisResult,
    StreamingAnalysisResult,
    default_engine,
)
from repro.api.parallel import SWEEP_MODES, SweepRun, SweepSpec, run_sweep
from repro.api.registry import MODELS
from repro.api.spec import AnalysisSpec, ProjectionSpec, SpecBase, option
from repro.core.seqpoint import SeqPointSelector
from repro.errors import ConfigurationError, ReproError
from repro.experiments import registry
from repro.experiments.setups import epoch_trace
from repro.hw.config import PAPER_CONFIGS
from repro.stream.spec import StreamSpec
from repro.traffic import TrafficSpec
from repro.util.tables import render_table
from repro.util.units import format_duration

__all__ = ["main", "build_parser", "ServeSpec"]

#: The one precedence rule every ``--spec`` flag follows.
_SPEC_HELP = (
    "JSON %s file used as the base document; inline flags "
    "override its fields one by one (inline wins)"
)
_SCALE_HELP = "corpus scale in (0, 1]; 1.0 is paper-sized (default 0.1)"


@cache
def _fields(spec_cls: type) -> tuple[tuple[Field, Any], ...]:
    """``spec_cls``'s dataclass fields, each with its resolved type."""
    hints = get_type_hints(spec_cls)
    return tuple((spec_field, hints[spec_field.name]) for spec_field in fields(spec_cls))


def _is_spec(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, SpecBase)


def _flag(spec_field: Field) -> str:
    return spec_field.metadata.get("flag", "--" + spec_field.name.replace("_", "-"))


def _scalar_type(hint: Any) -> type | None:
    """argparse ``type`` of a scalar field: int or float, else a string."""
    base = next((arg for arg in get_args(hint) if arg is not type(None)), hint)
    return base if base in (int, float) else None


@dataclass(frozen=True)
class ServeSpec(SpecBase):
    """The options of ``repro serve``: its ``--spec`` file and flags.

    Declared here, not in :mod:`repro.serve`, so that building the
    parser never imports the daemon.  Every value must already have its
    field's type; nothing is coerced.
    """

    host: str = option("127.0.0.1", help="bind address (default 127.0.0.1)")
    port: int = option(8742, help="bind port; 0 picks an ephemeral port (default 8742)")
    workers: int = option(2, help="job worker threads (default 2)")
    sweep_mode: str = option(
        "process", help="how sweep jobs execute (default process)", choices=SWEEP_MODES
    )
    sweep_workers: int | None = option(
        None, help="processes per sweep job (default: all CPUs)"
    )
    cache_dir: str | None = option(
        None,
        help="persist simulated traces to DIR (shared across jobs and sweep "
        "worker processes)",
        metavar="DIR",
    )
    plan_store_dir: str | None = option(
        None,
        help="shared on-disk plan store for the daemon and its sweep worker processes",
        metavar="DIR",
    )
    cache_max_bytes: int | None = option(
        None, help="in-memory trace cache budget in bytes (default unbounded)"
    )
    cache_max_entries: int | None = option(
        None, help="in-memory trace cache entry budget (default unbounded)"
    )
    queue_depth: int | None = option(
        None, help="max jobs pending before submissions are refused (default unbounded)"
    )
    max_sessions: int | None = option(
        None, help="max concurrently open streaming sessions (default unbounded)"
    )

    def __post_init__(self) -> None:
        for spec_field, hint in _fields(ServeSpec):
            value = getattr(self, spec_field.name)
            if isinstance(value, bool) or not isinstance(value, get_args(hint) or hint):
                raise ConfigurationError(
                    f"{spec_field.name} must be {spec_field.type}, got {value!r}"
                )
        if self.sweep_mode not in SWEEP_MODES:
            raise ConfigurationError(
                f"sweep_mode must be one of: {', '.join(SWEEP_MODES)}, "
                f"got {self.sweep_mode!r}"
            )
        # Counts of threads, processes, bytes, entries, jobs and sessions.
        counts = (
            "workers",
            "sweep_workers",
            "cache_max_bytes",
            "cache_max_entries",
            "queue_depth",
            "max_sessions",
        )
        for name in counts:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be positive, got {value}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _add_spec_flags(parser: argparse.ArgumentParser, spec_cls: type) -> None:
    """Add one flag per field of ``spec_cls``; a nested spec adds its own.

    Each flag is what the field declares with
    :func:`~repro.api.spec.option`: ``--`` plus the field name with
    dashes unless its metadata says otherwise, storing into the field's
    name, typed int or float when the annotation is.
    """
    for spec_field, hint in _fields(spec_cls):
        if _is_spec(hint):
            _add_spec_flags(parser, hint)
            continue
        meta = spec_field.metadata
        choices = meta.get("choices")
        repeated = {"action": "append", "default": []} if meta.get("parse") == "pairs" else {}
        parser.add_argument(
            _flag(spec_field),
            dest=meta.get("dest", spec_field.name),
            type=None if "parse" in meta else _scalar_type(hint),
            choices=choices() if callable(choices) else choices,
            metavar=meta.get("metavar"),
            help=meta.get("help"),
            **repeated,
        )


def _spec_command(
    commands: argparse._SubParsersAction, name: str, help: str, *specs: type
) -> argparse.ArgumentParser:
    """A subcommand reading ``--spec FILE`` and one flag per spec field."""
    parser = commands.add_parser(name, help=help)
    parser.add_argument(
        "--spec", default=None, metavar="FILE", help=_SPEC_HELP % specs[0].__name__
    )
    for spec_cls in specs:
        _add_spec_flags(parser, spec_cls)
    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    """The shared ``--format`` flag (one implementation for all)."""
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default table)",
    )


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist simulated traces to DIR and reuse them across runs",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SeqPoint (ISPASS 2020) reproduction harness",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("configs", help="list the Table II hardware configs")

    identify = commands.add_parser(
        "identify", help="identify SeqPoints for a network"
    )
    identify.add_argument("--network", choices=MODELS.available(), required=True)
    identify.add_argument("--scale", type=float, default=0.1, help=_SCALE_HELP)
    identify.add_argument(
        "--threshold", type=float, default=1.0,
        help="identification error threshold e, percent (default 1.0)",
    )
    _add_format(identify)

    analyze = _spec_command(
        commands, "analyze", "run a declarative analysis (simulate, select, project)",
        AnalysisSpec, ProjectionSpec,
    )
    _add_format(analyze)
    _add_cache_dir(analyze)

    sweep = _spec_command(
        commands, "sweep", "run a grid of analyses on the process-parallel sweep engine",
        SweepSpec,
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker count (default: all CPUs)",
    )
    sweep.add_argument(
        "--mode", choices=SWEEP_MODES, default="process",
        help="executor: process (default) or serial",
    )
    sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared on-disk trace cache (default: a per-sweep temp dir)",
    )
    sweep.add_argument(
        "--plan-store-dir", default=None, metavar="DIR",
        help="shared on-disk plan store: each unique lowering compiles "
        "once per machine instead of once per worker process",
    )
    _add_format(sweep)

    stream = _spec_command(
        commands, "stream", "online identification over a simulated live feed", StreamSpec
    )
    _add_format(stream)
    _add_cache_dir(stream)

    traffic = _spec_command(
        commands, "traffic", "traffic-driven inference serving simulation", TrafficSpec
    )
    traffic.add_argument(
        "--plan-store-dir", default=None, metavar="DIR",
        help="shared on-disk plan store: repeated traffic simulations "
        "reuse each unique lowering machine-wide",
    )
    _add_format(traffic)
    _add_cache_dir(traffic)

    serve = _spec_command(
        commands, "serve", "run the always-on analysis service (HTTP/JSON daemon)", ServeSpec
    )
    serve.add_argument(
        "--check", action="store_true",
        help="smoke mode: bind, self-request /stats, run one tiny "
        "analyze job end to end, then exit 0",
    )

    trace = commands.add_parser(
        "trace", help="manage on-disk trace artefacts"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    convert = trace_commands.add_parser(
        "convert",
        help="convert a trace artefact between storage format versions",
    )
    convert.add_argument("source", help="existing trace artefact (v1/v2/v3)")
    convert.add_argument("dest", help="output path")
    convert.add_argument(
        "--to", type=int, default=3, dest="to_version", metavar="VERSION",
        help="output format version: 3 binary columnar (default) or "
        "2 columnar JSON; v1 row JSON is read-only",
    )

    experiments = commands.add_parser(
        "experiments", help="regenerate paper tables and figures"
    )
    experiments.add_argument("--scale", type=float, default=0.1, help=_SCALE_HELP)
    experiments.add_argument(
        "--ids", default=None,
        help="comma-separated experiment ids (default: all)",
    )
    experiments.add_argument(
        "--output", default=None, help="write tables to this file instead of stdout"
    )
    return parser


def _split(flag: str, raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _targets(flag: str, raw: str) -> Sequence[object]:
    return tuple(PAPER_CONFIGS) if raw.strip() == "all" else _split(flag, raw)


def _json(flag: str, raw: str) -> object:
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        raise ReproError(f"{flag} expects JSON, got {raw!r}") from None


def _pairs(flag: str, pairs: list[str]) -> dict[str, object]:
    kwargs: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"{flag} expects KEY=VALUE, got {pair!r}")
        try:
            kwargs[key] = json.loads(raw)
        except json.JSONDecodeError:
            kwargs[key] = raw
    return kwargs


#: How a flag's value becomes its field's, by the field's ``parse``
#: metadata.  Sequences stay strings here; the spec converts each item.
_PARSERS: dict[str | None, Callable[[str, Any], object]] = {
    None: lambda flag, raw: raw,
    "list": _split,
    "targets": _targets,
    "json": _json,
    "pairs": _pairs,
}


def _spec_payload(path: str | None) -> dict[str, object]:
    """Load a ``--spec`` JSON file as the base document for merging."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ReproError(
            f"--spec {path} must contain a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _document(
    spec_cls: type, args: argparse.Namespace, base: dict[str, object]
) -> dict[str, object]:
    """``base`` with the flags ``args`` gives for ``spec_cls``'s fields.

    The one precedence rule: each given flag replaces its field (inline
    wins), and a nested spec's flags overlay the base's nested object
    the same way.  Without a ``--spec`` file a field's ``cli_default``
    stands in for its unset flag.
    """
    merged = dict(base)
    for spec_field, hint in _fields(spec_cls):
        name, meta = spec_field.name, spec_field.metadata
        if _is_spec(hint):
            nested = merged.get(name, {})
            if not isinstance(nested, dict):
                raise ReproError(
                    f"--spec {name!r} must be a JSON object, got {type(nested).__name__}"
                )
            merged[name] = _document(hint, args, nested)
            continue
        raw = getattr(args, meta.get("dest", name))
        if raw is not None and raw != []:
            merged[name] = _PARSERS[meta.get("parse")](_flag(spec_field), raw)
        elif args.spec is None and "cli_default" in meta:
            merged[name] = meta["cli_default"]
        required = spec_field.default is MISSING and spec_field.default_factory is MISSING
        if required and name not in merged:
            raise ReproError(f"{args.command} needs {_flag(spec_field)} (or --spec FILE)")
    return merged


def _resolve(spec_cls: type, args: argparse.Namespace) -> Any:
    """The command's spec: its ``--spec`` file overlaid with its flags."""
    return spec_cls.from_dict(_document(spec_cls, args, _spec_payload(args.spec)))


def _cmd_configs() -> int:
    for config in PAPER_CONFIGS.values():
        print(config.describe())
    return 0


def _cmd_identify(
    network: str, scale: float, threshold: float, fmt: str
) -> int:
    trace = epoch_trace(network, 1, scale)
    result = SeqPointSelector(error_threshold_pct=threshold).select(trace)
    if fmt == "json":
        payload = {
            "network": network,
            "iterations": len(trace),
            "unique_seq_lens": len(trace.unique_seq_lens()),
            "epoch_time_s": trace.total_time_s,
            "k": result.k,
            "identification_error_pct": result.identification_error_pct,
            "projected_total_s": result.projected_total_s,
            "actual_total_s": result.actual_total_s,
            "seqpoints": [
                {
                    "seq_len": point.seq_len,
                    "weight": point.weight,
                    "time_s": point.record.time_s,
                }
                for point in result.seqpoints
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"{network}: {len(trace)} iterations, "
        f"{len(trace.unique_seq_lens())} unique SLs, "
        f"epoch {format_duration(trace.total_time_s)}"
    )
    print(
        f"SeqPoints: {len(result.selection)} (k={result.k}, "
        f"identification error {result.identification_error_pct:.3f}%)"
    )
    for point in result.seqpoints:
        print(
            f"  SL {point.seq_len:>5}  weight {point.weight:>8.0f}  "
            f"runtime {format_duration(point.record.time_s)}"
        )
    return 0


def _emit(fmt: str, result: object, render) -> int:
    """The shared ``--format`` implementation: one JSON/table emitter."""
    if fmt == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(render(result))
    return 0


def _engine(args: argparse.Namespace) -> AnalysisEngine:
    """An engine over ``--cache-dir`` when given, else the process default."""
    if args.cache_dir is None:
        return default_engine()
    return AnalysisEngine(cache=TraceCache(args.cache_dir))


def _points_table(result: Any) -> str:
    """The "selected points" table of analyze, stream and traffic."""
    return render_table(
        ["seq_len", "tgt_len", "weight", "time_s"],
        [
            [p.seq_len, p.tgt_len if p.tgt_len is not None else "-",
             round(p.weight, 1), p.time_s]
            for p in result.points
        ],
        title="selected points",
    )


def _run_analyze(args: argparse.Namespace) -> AnalysisResult:
    spec = _resolve(AnalysisSpec, args)
    # Projects onto the identification config unless --targets is given.
    projection = ProjectionSpec.from_dict(
        _document(ProjectionSpec, args, {"targets": [spec.config]})
    )
    return _engine(args).run(spec, projection)


def _render_analysis(result: AnalysisResult) -> str:
    spec = result.spec
    parts = [
        f"{spec.network} on {spec.dataset} ({spec.batching}, "
        f"batch {spec.batch_size}, scale {spec.scale}, "
        f"identified on config#{spec.config})",
        f"{result.iterations} iterations, "
        f"{result.unique_seq_lens} unique SLs, "
        f"epoch {format_duration(result.actual_total_s)}",
        f"{result.method}: {len(result)} points"
        + (f" (k={result.k})" if result.k is not None else "")
        + f", identification error {result.identification_error_pct:.3f}%",
        "",
        _points_table(result),
        "",
        render_table(
            ["config", "projected", "actual", "error %",
             "uplift % (proj)", "uplift % (actual)"],
            [
                [p.config_name, format_duration(p.projected_time_s),
                 format_duration(p.actual_time_s), round(p.error_pct, 3),
                 round(p.projected_uplift_pct, 2),
                 round(p.actual_uplift_pct, 2)]
                for p in result.projections
            ],
            title="projections",
        ),
    ]
    return "\n".join(parts)


def _run_stream(args: argparse.Namespace) -> StreamingAnalysisResult:
    return _engine(args).run_streaming(_resolve(StreamSpec, args))


def _render_stream(result: StreamingAnalysisResult) -> str:
    spec = result.spec.analysis
    status = (
        f"converged after {len(result.checks)} checks"
        if result.converged
        else "stream exhausted without convergence"
    )
    parts = [
        f"{spec.network} on {spec.dataset} ({spec.batching}, "
        f"batch {spec.batch_size}, scale {spec.scale}, "
        f"config#{spec.config}, selector {spec.selector})",
        f"consumed {result.iterations_consumed} of "
        f"{result.epoch_iterations} iterations "
        f"({100.0 * result.fraction_consumed:.1f}% of the epoch) — {status}",
    ]
    if result.checks and result.checks[-1].segments_closed:
        closed = result.checks[-1].segments_closed
        open_mean = result.checks[-1].open_segment_mean_s
        parts.append(
            f"quasi-stationary segments: {closed} closed + 1 open "
            f"(open-segment mean {open_mean:.6f} s/iteration)"
        )
    parts += [
        f"{result.method}: {len(result)} points"
        + (f" (k={result.k})" if result.k is not None else "")
        + f", prefix identification error "
        f"{result.identification_error_pct:.3f}%",
        "",
        _points_table(result),
        "",
        f"projected epoch {format_duration(result.projected_epoch_time_s)} "
        f"vs actual {format_duration(result.actual_total_s)} "
        f"(error {result.projection_error_pct:.3f}%)",
        f"batch analysis of the full epoch: identification error "
        f"{result.batch_identification_error_pct:.3f}%, selection "
        + ("matches" if result.matches_batch_selection else "differs"),
    ]
    return "\n".join(parts)


def _unknown_name(command: str, exc: KeyError) -> int:
    """One-line exit for registry ``KeyError``s from declarative specs.

    Registry lookups raise :class:`ConfigurationError` for unknown
    names, but downstream-registered components can still surface a
    bare ``KeyError``; the spec-driven commands (``analyze``, ``sweep``,
    ``stream`` and ``traffic``) keep the one-line, exit-2 contract for
    those too.  (Scoped to them deliberately — a blanket handler in
    ``main`` would silence genuine bugs.)
    """
    name = exc.args[0] if exc.args else exc
    print(f"{command}: unknown name: {name}", file=sys.stderr)
    return 2


def _run_sweep(args: argparse.Namespace) -> SweepRun:
    return run_sweep(
        _resolve(SweepSpec, args),
        mode=args.mode,
        workers=args.workers,
        cache_dir=args.cache_dir,
        plan_store_dir=args.plan_store_dir,
    )


def _render_sweep(run: SweepRun) -> str:
    rows = []
    for result in run.results:
        spec = result.spec
        worst = max(abs(p.error_pct) for p in result.projections)
        rows.append(
            [
                spec.network, spec.scale, spec.batch_size, spec.config,
                spec.seed, spec.selector, len(result),
                result.k if result.k is not None else "-",
                round(result.identification_error_pct, 3),
                round(worst, 3),
            ]
        )
    summary = (
        f"{len(run)} analysis points, {run.unique_traces} unique traces, "
        f"mode {run.mode} ({run.workers} workers)"
    )
    table = render_table(
        ["network", "scale", "batch", "cfg", "seed", "selector",
         "points", "k", "ident err %", "worst proj err %"],
        rows,
        title="sweep results",
    )
    return f"{summary}\n\n{table}"


def _run_traffic(args: argparse.Namespace) -> Any:
    return _engine(args).run_traffic(
        _resolve(TrafficSpec, args), plan_store_dir=args.plan_store_dir
    )


def _render_traffic(result: "object") -> str:
    spec = result.spec
    analysis = spec.analysis
    status = (
        f"identifier converged after {len(result.checks)} checks"
        if result.converged
        else "identifier did not converge on the stream"
    )
    latency = result.latency
    queue = result.queue_wait
    parts = [
        f"{analysis.network} on {analysis.dataset} ({analysis.batching}, "
        f"batch {analysis.batch_size}, config#{analysis.config}, "
        f"{spec.arrival} arrivals, {len(spec.phases)} phase(s))",
        f"served {result.requests} requests in {result.batches} batches "
        f"({result.unique_seq_lens} unique SLs, device time "
        f"{format_duration(result.actual_total_s)}, makespan "
        f"{format_duration(result.makespan_s)})",
        f"{result.method}: {len(result)} points"
        + (f" (k={result.k})" if result.k is not None else "")
        + f", identification error {result.identification_error_pct:.3f}%",
        "",
        _points_table(result),
        "",
        render_table(
            ["metric", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"],
            [
                ["latency", latency["mean_ms"], latency["p50_ms"],
                 latency["p95_ms"], latency["p99_ms"], latency["max_ms"]],
                ["queue wait", queue["mean_ms"], queue["p50_ms"],
                 queue["p95_ms"], queue["p99_ms"], queue["max_ms"]],
            ],
            title="request latency (SLO view)",
        ),
        "",
        f"streaming: consumed {result.iterations_consumed} of "
        f"{result.batches} batches — {status}, "
        f"{result.drift_resets} drift reset(s), projected serving time "
        f"error {result.streaming_projection_error_pct:.3f}%, selection "
        + ("matches" if result.matches_batch_selection else "differs from")
        + " the batch analysis",
    ]
    if result.projections:
        parts += [
            "",
            render_table(
                ["config", "projected", "actual", "error %"],
                [
                    [p.config_name,
                     format_duration(p.projected_serving_s),
                     format_duration(p.actual_serving_s),
                     round(p.error_pct, 3)]
                    for p in result.projections
                ],
                title="serving-time projections",
            ),
        ]
    return "\n".join(parts)


#: Each spec-driven command but serve: how it runs, how it renders.
_SPEC_COMMANDS = {
    "analyze": (_run_analyze, _render_analysis),
    "sweep": (_run_sweep, _render_sweep),
    "stream": (_run_stream, _render_stream),
    "traffic": (_run_traffic, _render_traffic),
}


def _cmd_spec(args: argparse.Namespace) -> int:
    """Run a spec-driven command; library failures exit 2 with one line."""
    run, render = _SPEC_COMMANDS[args.command]
    try:
        result = run(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        return _unknown_name(args.command, exc)
    return _emit(args.format, result, render)


def _serve_check(server: "object") -> int:
    """Self-test an already-constructed server: stats + one tiny job."""
    import time
    import urllib.request

    def request(path: str, payload: dict | None = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        with urllib.request.urlopen(
            urllib.request.Request(
                f"{server.url}{path}",
                data=data,
                headers={"Content-Type": "application/json"},
            ),
            timeout=30,
        ) as response:
            return json.loads(response.read())

    with server:
        stats = request("/stats")
        if not stats.get("ok"):
            raise ReproError(f"/stats returned a failure envelope: {stats}")
        spec = AnalysisSpec(network="gnmt", scale=0.02)
        job = request(
            "/jobs", {"kind": "analyze", "spec": spec.to_dict()}
        )["job"]
        deadline = time.monotonic() + 60
        while job["state"] not in ("done", "failed", "cancelled"):
            if time.monotonic() > deadline:
                raise ReproError(
                    f"check job {job['id']} still {job['state']} after 60s"
                )
            time.sleep(0.05)
            job = request(f"/jobs/{job['id']}")["job"]
        if job["state"] != "done":
            error = job.get("error", {}).get("message", "no error recorded")
            raise ReproError(f"check job {job['state']}: {error}")
        result = request(f"/jobs/{job['id']}/result")["result"]
        print(
            f"serve check ok: {server.url} answered /stats and ran "
            f"{job['id']} (gnmt scale 0.02, k={result['k']})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer

    try:
        options = _resolve(ServeSpec, args).to_dict()
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    host, port = options.pop("host"), options.pop("port")
    try:
        server = ReproServer(host, 0 if args.check else port, **options)
    except OSError as exc:
        print(f"serve: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return 2
    except (ReproError, TypeError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.check:
        return _serve_check(server)
    print(f"repro serve listening on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    """Convert a trace artefact between versions, verifying bit-identity."""
    from repro.train.trace import TrainingTrace

    try:
        trace = TrainingTrace.load(args.source)
        original = json.dumps(trace.frame().to_payload(), sort_keys=True)
        trace.save(args.dest, version=args.to_version)
        reloaded = TrainingTrace.load(args.dest)
        if json.dumps(reloaded.frame().to_payload(), sort_keys=True) != original:
            raise ReproError(
                f"{args.dest}: round-trip mismatch — converted artefact "
                "does not reload bit-identically"
            )
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    print(
        f"converted {args.source} -> {args.dest} "
        f"(v{args.to_version}, {len(trace.frame())} iterations, "
        "round trip verified)"
    )
    return 0


def _cmd_experiments(scale: float, ids: str | None, output: str | None) -> int:
    available = registry()
    if ids is None:
        chosen = list(available)
    else:
        chosen = [token.strip() for token in ids.split(",") if token.strip()]
        unknown = [token for token in chosen if token not in available]
        if unknown:
            print(
                f"unknown experiment ids: {', '.join(unknown)}; "
                f"available: {', '.join(available)}",
                file=sys.stderr,
            )
            return 2
    tables = []
    for experiment_id in chosen:
        tables.append(available[experiment_id](scale).render())
    text = "\n\n".join(tables) + "\n"
    if output is None:
        print(text, end="")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(chosen)} experiment tables to {output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "configs":
            return _cmd_configs()
        if args.command == "identify":
            return _cmd_identify(
                args.network, args.scale, args.threshold, args.format
            )
        if args.command in _SPEC_COMMANDS:
            return _cmd_spec(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "trace":
            return _cmd_trace_convert(args)
        return _cmd_experiments(args.scale, args.ids, args.output)
    except ReproError as exc:
        # Deliberate library failures (bad ranges, unknown names) exit
        # cleanly from every subcommand; genuine bugs still traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
