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

Every spec-driven subcommand (``analyze``/``sweep``/``stream``/
``traffic``/``serve``) accepts ``--spec FILE`` with one precedence
rule: the JSON file is the base document and inline flags override its
fields one by one, so ``--spec base.json --batch-size 32`` runs the
file's scenario at batch 32.  All commands share one ``--format
{table,json}`` implementation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.api.cache import TraceCache
from repro.api.engine import (
    AnalysisEngine,
    AnalysisResult,
    StreamingAnalysisResult,
    default_engine,
)
from repro.api.parallel import SWEEP_MODES, SweepRun, SweepSpec, run_sweep
from repro.api.registry import BATCHING, DATASETS, MODELS, SELECTORS
from repro.api.spec import AnalysisSpec, ProjectionSpec
from repro.core.seqpoint import SeqPointSelector
from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.setups import epoch_trace
from repro.hw.config import PAPER_CONFIGS
from repro.stream.spec import StreamSpec
from repro.traffic import ARRIVAL_KINDS, TrafficSpec
from repro.util.tables import render_table
from repro.util.units import format_duration

__all__ = ["main", "build_parser"]

#: The one precedence rule every ``--spec`` flag follows.
_SPEC_HELP = (
    "JSON %s file used as the base document; inline flags "
    "override its fields one by one (inline wins)"
)


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


def _add_analysis_flags(parser: argparse.ArgumentParser, verb: str) -> None:
    """The inline ``AnalysisSpec`` flags shared by spec-driven commands."""
    parser.add_argument("--network", choices=MODELS.available())
    parser.add_argument(
        "--dataset", choices=DATASETS.available(),
        help="corpus (default: the network's paper dataset)",
    )
    parser.add_argument(
        "--batching", choices=BATCHING.available(),
        help="input pipeline (default: the network's paper pipeline)",
    )
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument(
        "--config", type=int, default=None,
        help=f"Table II config the {verb} runs on (default 1)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="corpus scale in (0, 1]; 1.0 is paper-sized (default 0.1)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--selector", choices=SELECTORS.available())
    parser.add_argument(
        "--selector-arg", action="append", default=[], metavar="KEY=VALUE",
        help="selector keyword argument (repeatable), e.g. "
        "--selector-arg error_threshold_pct=0.5",
    )


def _add_stream_knobs(
    parser: argparse.ArgumentParser, cadence_default: int
) -> None:
    """The streaming-identifier knobs shared by stream and traffic."""
    parser.add_argument(
        "--cadence", type=int, default=None,
        help=f"iterations between selector re-runs (default {cadence_default})",
    )
    parser.add_argument(
        "--patience", type=int, default=None,
        help="consecutive agreeing checks to converge (default 3)",
    )
    parser.add_argument(
        "--rtol", type=float, default=None,
        help="relative tolerance on the projected mean iteration time "
        "(default 0.005)",
    )
    parser.add_argument(
        "--drift-rtol", type=float, default=None,
        help="per-SL mean drift that resets the window (default 0.02)",
    )
    parser.add_argument(
        "--sl-rtol", type=float, default=None,
        help="pointwise SL tolerance between checks; 0 = exact "
        "(default 0.1)",
    )
    parser.add_argument(
        "--min-iterations", type=int, default=None,
        help="iterations to consume before the first check (default 0)",
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
    identify.add_argument(
        "--scale", type=float, default=0.1,
        help="corpus scale in (0, 1]; 1.0 is paper-sized (default 0.1)",
    )
    identify.add_argument(
        "--threshold", type=float, default=1.0,
        help="identification error threshold e, percent (default 1.0)",
    )
    _add_format(identify)

    analyze = commands.add_parser(
        "analyze",
        help="run a declarative analysis (simulate, select, project)",
    )
    analyze.add_argument(
        "--spec", default=None, metavar="FILE",
        help=_SPEC_HELP % "AnalysisSpec",
    )
    _add_analysis_flags(analyze, "identification epoch")
    analyze.add_argument(
        "--targets", default=None,
        help="comma-separated Table II configs to project onto, or 'all' "
        "(default: the identification config only)",
    )
    _add_format(analyze)
    _add_cache_dir(analyze)

    sweep = commands.add_parser(
        "sweep",
        help="run a grid of analyses on the process-parallel sweep engine",
    )
    sweep.add_argument(
        "--spec", default=None, metavar="FILE",
        help=_SPEC_HELP % "SweepSpec",
    )
    sweep.add_argument(
        "--networks", default=None,
        help="comma-separated networks, e.g. gnmt,ds2",
    )
    sweep.add_argument(
        "--scales", default=None,
        help="comma-separated corpus scales in (0, 1] (default 0.1)",
    )
    sweep.add_argument(
        "--configs", default=None,
        help="comma-separated identification configs (default 1)",
    )
    sweep.add_argument(
        "--seeds", default=None,
        help="comma-separated data-order seeds (default 0)",
    )
    sweep.add_argument(
        "--batch-sizes", default=None,
        help="comma-separated batch sizes (default 64)",
    )
    sweep.add_argument(
        "--selectors", default=None,
        help="comma-separated selector names (default seqpoint); "
        "selector kwargs need a --spec file",
    )
    sweep.add_argument(
        "--targets", default=None,
        help="comma-separated Table II configs to project every point "
        "onto, or 'all' (default: each point's identification config)",
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

    stream = commands.add_parser(
        "stream",
        help="online identification over a simulated live feed",
    )
    stream.add_argument(
        "--spec", default=None, metavar="FILE",
        help=_SPEC_HELP % "StreamSpec",
    )
    _add_analysis_flags(stream, "streamed epoch")
    _add_stream_knobs(stream, cadence_default=64)
    stream.add_argument(
        "--chunk-size", type=int, default=None,
        help="arrival granularity of the replayed feed (default 1)",
    )
    _add_format(stream)
    _add_cache_dir(stream)

    traffic = commands.add_parser(
        "traffic",
        help="traffic-driven inference serving simulation",
    )
    traffic.add_argument(
        "--spec", default=None, metavar="FILE",
        help=_SPEC_HELP % "TrafficSpec",
    )
    _add_analysis_flags(traffic, "serving device")
    traffic.add_argument(
        "--arrival", choices=ARRIVAL_KINDS, default=None,
        help="request arrival process (default poisson)",
    )
    traffic.add_argument(
        "--rate", type=float, default=None,
        help="mean request rate in requests/second (default 64)",
    )
    traffic.add_argument(
        "--requests", type=int, default=None,
        help="total requests to serve (default 1024)",
    )
    traffic.add_argument(
        "--max-wait", type=float, default=None, dest="max_wait_s",
        help="dynamic batcher's max-wait trigger in seconds (default 0.5)",
    )
    traffic.add_argument(
        "--burst-factor", type=float, default=None,
        help="bursty arrivals: on-period rate multiplier (default 3.0)",
    )
    traffic.add_argument(
        "--on-fraction", type=float, default=None,
        help="bursty arrivals: fraction of each period on (default 0.25)",
    )
    traffic.add_argument(
        "--period-s", type=float, default=None,
        help="bursty arrivals: on/off period in seconds (default 1.0)",
    )
    traffic.add_argument(
        "--phases", default=None, metavar="JSON",
        help="mixture schedule as a JSON list of phase objects, e.g. "
        '\'[{"fraction": 0.5, "quantile_hi": 0.6}, '
        '{"fraction": 0.5, "quantile_lo": 0.4}]\'',
    )
    traffic.add_argument(
        "--pad-multiple", type=int, default=None,
        help="override the dataset's pad multiple (default: keep it)",
    )
    traffic.add_argument(
        "--targets", default=None,
        help="comma-separated Table II configs to project serving time "
        "onto, or 'all' (default: none)",
    )
    traffic.add_argument(
        "--plan-store-dir", default=None, metavar="DIR",
        help="shared on-disk plan store: repeated traffic simulations "
        "reuse each unique lowering machine-wide",
    )
    _add_stream_knobs(traffic, cadence_default=16)
    _add_format(traffic)
    _add_cache_dir(traffic)

    serve = commands.add_parser(
        "serve",
        help="run the always-on analysis service (HTTP/JSON daemon)",
    )
    serve.add_argument(
        "--spec", default=None, metavar="FILE",
        help=_SPEC_HELP % "server-options",
    )
    serve.add_argument(
        "--host", default=None,
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="bind port; 0 picks an ephemeral port (default 8742)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="job worker threads (default 2)",
    )
    serve.add_argument(
        "--sweep-mode", choices=("serial", "process"), default=None,
        help="how sweep jobs execute (default process)",
    )
    serve.add_argument(
        "--sweep-workers", type=int, default=None,
        help="processes per sweep job (default: all CPUs)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist simulated traces to DIR (shared across jobs and "
        "sweep worker processes)",
    )
    serve.add_argument(
        "--plan-store-dir", default=None, metavar="DIR",
        help="shared on-disk plan store for the daemon and its sweep "
        "worker processes",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="in-memory trace cache budget in bytes (default unbounded)",
    )
    serve.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="in-memory trace cache entry budget (default unbounded)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None,
        help="max jobs pending before submissions are refused "
        "(default unbounded)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=None,
        help="max concurrently open streaming sessions (default unbounded)",
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
    experiments.add_argument(
        "--scale", type=float, default=0.1,
        help="corpus scale in (0, 1]; 1.0 is paper-sized (default 0.1)",
    )
    experiments.add_argument(
        "--ids", default=None,
        help="comma-separated experiment ids (default: all)",
    )
    experiments.add_argument(
        "--output", default=None, help="write tables to this file instead of stdout"
    )
    return parser


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


def _parse_selector_args(pairs: list[str]) -> dict[str, object]:
    kwargs: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ReproError(
                f"--selector-arg expects KEY=VALUE, got {pair!r}"
            )
        try:
            kwargs[key] = json.loads(raw)
        except json.JSONDecodeError:
            kwargs[key] = raw
    return kwargs


def _parse_targets(raw: str | None, fallback: int) -> tuple[int, ...]:
    if raw is None:
        return (fallback,)
    if raw.strip() == "all":
        return tuple(PAPER_CONFIGS)
    try:
        targets = tuple(
            int(token) for token in raw.split(",") if token.strip()
        )
    except ValueError:
        raise ReproError(
            f"--targets expects comma-separated config indices, got {raw!r}"
        ) from None
    if not targets:
        raise ReproError("--targets is empty")
    return targets


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


def _emit(fmt: str, result: object, render) -> int:
    """The shared ``--format`` implementation: one JSON/table emitter."""
    if fmt == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(render(result))
    return 0


def _merge_nested(
    command: str,
    base: dict[str, object],
    inline: dict[str, object],
    knobs: dict[str, object],
) -> dict[str, object]:
    """Overlay inline flags onto a spec document with a nested analysis.

    The file is the base; inline analysis flags override fields of its
    ``analysis`` object, top-level knob flags override its top-level
    fields.  (The one precedence rule every ``--spec`` flag follows.)
    """
    analysis = base.get("analysis", {})
    if not isinstance(analysis, dict):
        raise ReproError(
            f"--spec 'analysis' must be a JSON object, "
            f"got {type(analysis).__name__}"
        )
    analysis = {**analysis, **inline}
    if "network" not in analysis:
        raise ReproError(f"{command} needs --network (or --spec FILE)")
    merged = {key: value for key, value in base.items() if key != "analysis"}
    merged.update(knobs)
    merged["analysis"] = analysis
    return merged


def _inline_analysis(args: argparse.Namespace) -> dict[str, object]:
    """The inline AnalysisSpec fields a command was given, as a dict."""
    inline = {
        "network": args.network,
        "dataset": args.dataset,
        "batching": args.batching,
        "batch_size": args.batch_size,
        "config": args.config,
        "scale": args.scale,
        "seed": args.seed,
        "selector": args.selector,
    }
    inline = {key: value for key, value in inline.items() if value is not None}
    selector_kwargs = _parse_selector_args(args.selector_arg)
    if selector_kwargs:
        inline["selector_kwargs"] = selector_kwargs
    return inline


def _analyze_spec(args: argparse.Namespace) -> AnalysisSpec:
    merged = {**_spec_payload(args.spec), **_inline_analysis(args)}
    if "network" not in merged:
        raise ReproError("analyze needs --network (or --spec FILE)")
    if args.spec is None:
        merged.setdefault("scale", 0.1)
    return AnalysisSpec.from_dict(merged)


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
        render_table(
            ["seq_len", "tgt_len", "weight", "time_s"],
            [
                [p.seq_len, p.tgt_len if p.tgt_len is not None else "-",
                 round(p.weight, 1), p.time_s]
                for p in result.points
            ],
            title="selected points",
        ),
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


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        spec = _analyze_spec(args)
        projection = ProjectionSpec(targets=_parse_targets(args.targets, spec.config))
        if args.cache_dir is not None:
            engine = AnalysisEngine(cache=TraceCache(args.cache_dir))
        else:
            engine = default_engine()
        result = engine.run(spec, projection)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        return _unknown_name("analyze", exc)
    return _emit(args.format, result, _render_analysis)


def _stream_knobs(args: argparse.Namespace) -> dict[str, object]:
    knobs = {
        "cadence": args.cadence,
        "patience": args.patience,
        "rtol": args.rtol,
        "drift_rtol": args.drift_rtol,
        "sl_rtol": args.sl_rtol,
        "min_iterations": args.min_iterations,
    }
    return {key: value for key, value in knobs.items() if value is not None}


def _stream_spec(args: argparse.Namespace) -> StreamSpec:
    knobs = _stream_knobs(args)
    if args.chunk_size is not None:
        knobs["chunk_size"] = args.chunk_size
    merged = _merge_nested(
        "stream", _spec_payload(args.spec), _inline_analysis(args), knobs
    )
    if args.spec is None:
        merged["analysis"].setdefault("scale", 0.1)
    return StreamSpec.from_dict(merged)


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
        render_table(
            ["seq_len", "tgt_len", "weight", "time_s"],
            [
                [p.seq_len, p.tgt_len if p.tgt_len is not None else "-",
                 round(p.weight, 1), p.time_s]
                for p in result.points
            ],
            title="selected points",
        ),
        "",
        f"projected epoch {format_duration(result.projected_epoch_time_s)} "
        f"vs actual {format_duration(result.actual_total_s)} "
        f"(error {result.projection_error_pct:.3f}%)",
        f"batch analysis of the full epoch: identification error "
        f"{result.batch_identification_error_pct:.3f}%, selection "
        + ("matches" if result.matches_batch_selection else "differs"),
    ]
    return "\n".join(parts)


def _cmd_stream(args: argparse.Namespace) -> int:
    try:
        stream = _stream_spec(args)
        if args.cache_dir is not None:
            engine = AnalysisEngine(cache=TraceCache(args.cache_dir))
        else:
            engine = default_engine()
        result = engine.run_streaming(stream)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"stream: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        return _unknown_name("stream", exc)
    return _emit(args.format, result, _render_stream)


def _unknown_name(command: str, exc: KeyError) -> int:
    """One-line exit for registry ``KeyError``s from declarative specs.

    Registry lookups raise :class:`ConfigurationError` for unknown
    names, but downstream-registered components can still surface a
    bare ``KeyError``; the spec-driven commands keep the one-line,
    exit-2 contract for those too.  (Scoped to ``analyze``/``sweep``
    deliberately — a blanket handler in ``main`` would silence genuine
    bugs.)
    """
    name = exc.args[0] if exc.args else exc
    print(f"{command}: unknown name: {name}", file=sys.stderr)
    return 2


def _split(raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    inline: dict[str, object] = {}
    if args.networks is not None:
        inline["networks"] = _split(args.networks)
    try:
        if args.scales is not None:
            inline["scales"] = [float(t) for t in _split(args.scales)]
        if args.configs is not None:
            inline["configs"] = [int(t) for t in _split(args.configs)]
        if args.seeds is not None:
            inline["seeds"] = [int(t) for t in _split(args.seeds)]
        if args.batch_sizes is not None:
            inline["batch_sizes"] = [int(t) for t in _split(args.batch_sizes)]
    except ValueError:
        raise ReproError(
            "sweep axis flags expect comma-separated numbers"
        ) from None
    if args.selectors is not None:
        inline["selectors"] = _split(args.selectors)
    if args.targets is not None:
        inline["targets"] = _parse_targets(args.targets, 1)

    merged = {**_spec_payload(args.spec), **inline}
    if "networks" not in merged:
        raise ReproError("sweep needs --networks (or --spec FILE)")
    if args.spec is None:
        merged.setdefault("scales", [0.1])
    return SweepSpec.from_dict(merged)


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


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sweep = _sweep_spec(args)
        run = run_sweep(
            sweep,
            mode=args.mode,
            workers=args.workers,
            cache_dir=args.cache_dir,
            plan_store_dir=args.plan_store_dir,
        )
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        return _unknown_name("sweep", exc)
    return _emit(args.format, run, _render_sweep)


def _traffic_spec(args: argparse.Namespace) -> TrafficSpec:
    knobs = _stream_knobs(args)
    traffic_knobs = {
        "arrival": args.arrival,
        "rate": args.rate,
        "requests": args.requests,
        "max_wait_s": args.max_wait_s,
        "burst_factor": args.burst_factor,
        "on_fraction": args.on_fraction,
        "period_s": args.period_s,
        "pad_multiple": args.pad_multiple,
    }
    knobs.update(
        {k: v for k, v in traffic_knobs.items() if v is not None}
    )
    if args.phases is not None:
        try:
            knobs["phases"] = json.loads(args.phases)
        except json.JSONDecodeError:
            raise ReproError(
                f"--phases expects a JSON list of phase objects, "
                f"got {args.phases!r}"
            ) from None
    if args.targets is not None:
        knobs["targets"] = list(_parse_targets(args.targets, 1))
    merged = _merge_nested(
        "traffic", _spec_payload(args.spec), _inline_analysis(args), knobs
    )
    if args.spec is None:
        merged["analysis"].setdefault("scale", 0.1)
    return TrafficSpec.from_dict(merged)


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
        render_table(
            ["seq_len", "tgt_len", "weight", "time_s"],
            [
                [p.seq_len, p.tgt_len if p.tgt_len is not None else "-",
                 round(p.weight, 1), p.time_s]
                for p in result.points
            ],
            title="selected points",
        ),
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


def _cmd_traffic(args: argparse.Namespace) -> int:
    try:
        traffic = _traffic_spec(args)
        if args.cache_dir is not None:
            engine = AnalysisEngine(cache=TraceCache(args.cache_dir))
        else:
            engine = default_engine()
        result = engine.run_traffic(
            traffic, plan_store_dir=args.plan_store_dir
        )
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"traffic: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        return _unknown_name("traffic", exc)
    return _emit(args.format, result, _render_traffic)


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


#: Every server option a serve --spec file may set (= the inline flags).
_SERVE_OPTION_KEYS = (
    "host", "port", "workers", "sweep_mode", "sweep_workers", "cache_dir",
    "plan_store_dir", "cache_max_bytes", "cache_max_entries",
    "queue_depth", "max_sessions",
)
_SERVE_DEFAULTS = {
    "host": "127.0.0.1", "port": 8742, "workers": 2, "sweep_mode": "process",
}


def _serve_options(args: argparse.Namespace) -> dict[str, object]:
    """serve's --spec merge: file is the base, inline flags win."""
    base = _spec_payload(args.spec)
    base.pop("v", None)
    unknown = sorted(set(base) - set(_SERVE_OPTION_KEYS))
    if unknown:
        raise ReproError(
            f"unknown serve --spec fields: {', '.join(unknown)}; expected "
            f"a subset of: {', '.join(_SERVE_OPTION_KEYS)}"
        )
    options: dict[str, object] = dict.fromkeys(_SERVE_OPTION_KEYS)
    options.update(_SERVE_DEFAULTS)
    options.update(base)
    options.update(
        {
            key: getattr(args, key)
            for key in _SERVE_OPTION_KEYS
            if getattr(args, key) is not None
        }
    )
    if options["sweep_mode"] not in ("serial", "process"):
        raise ReproError(
            f"sweep_mode must be 'serial' or 'process', "
            f"got {options['sweep_mode']!r}"
        )
    return options


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer

    try:
        options = _serve_options(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        server = ReproServer(
            options["host"],
            0 if args.check else options["port"],
            cache_dir=options["cache_dir"],
            cache_max_bytes=options["cache_max_bytes"],
            cache_max_entries=options["cache_max_entries"],
            workers=options["workers"],
            sweep_mode=options["sweep_mode"],
            sweep_workers=options["sweep_workers"],
            queue_depth=options["queue_depth"],
            max_sessions=options["max_sessions"],
            plan_store_dir=options["plan_store_dir"],
        )
    except OSError as exc:
        print(
            f"serve: cannot bind {options['host']}:{options['port']}: {exc}",
            file=sys.stderr,
        )
        return 2
    except (TypeError, ValueError) as exc:
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
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "stream":
            return _cmd_stream(args)
        if args.command == "traffic":
            return _cmd_traffic(args)
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
