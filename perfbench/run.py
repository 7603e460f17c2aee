#!/usr/bin/env python3
"""Benchmark of the SeqPoint reproduction: one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):
``analyze-cold``, ``traffic-stream`` and ``stream-sortagrad`` are closed
loops driven in this process; ``serve-open`` drives a ``repro serve``
daemon subprocess on an open-loop schedule.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` reports the per-layer metrics instead: closed
loops alternate untraced ops and ops with layer spans installed
(perfbench/tracer.py), and ``serve-open`` reads client timing and the
daemon's ``/stats``.  A readable report comes first; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the sources under ``src/``
are missing or a set-up fails.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import (  # noqa: E402
    MIN_OPS,
    SETUP_REFERENCE_RUNS,
    SETUP_REPEATS,
    host_scale,
    latency_summary,
    load_digests,
    peak_rss_mb,
    reference_s,
)
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze-cold", "traffic-stream", "stream-sortagrad", "serve-open")
#: Spans reported as ``<span>_ms``: self milliseconds per op.
SPANS = (
    "data.resolve", "data.plan_epoch", "models.lower", "plan.compile",
    "kernels.autotune", "hw.run_batch", "train.epoch", "cache.put",
    "core.select", "core.project", "stream.absorb", "stream.check",
    "segments.select", "segments.detect", "traffic.sample",
    "traffic.arrivals", "traffic.form", "traffic.serve",
)
SERVE_METRICS = (
    "serve.post_rtt_ms", "serve.result_rtt_ms", "serve.handler_ms",
    "serve.transport_ms", "serve.queue_wait_ms", "serve.run_ms",
    "serve.polls_per_job", "gen.late_ms",
)


@dataclass
class Phase:
    """Successful op latencies and failure counts of one timed window.

    ``latencies`` are what the metrics report: nominal-speed seconds for
    the CPU-bound closed loops (see ``measure.host_scale``), wall
    seconds for the open loop.  ``wall`` always holds wall seconds.
    """

    latencies: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    #: Seconds the throughput is measured over, scaled like ``latencies``.
    timed_s: float = 0.0
    #: Peak RSS once set-up and MIN_OPS ops have run.  Memory that grows
    #: per op would otherwise make the figure depend on how many ops
    #: the host's speed let a run complete.
    rss_mb: float = 0.0

    def summary(self) -> dict[str, float]:
        return latency_summary(self.latencies)

    def wall_summary(self) -> dict[str, float]:
        return latency_summary(self.wall)


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    mismatched: int
    notes: dict[str, str] = field(default_factory=dict)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def timed_setup(workload, imported: float) -> tuple[float, float]:
    """Run the set-up ``SETUP_REPEATS`` times; imports plus the median.

    Returns the nominal-speed figure ``setup_s`` reports and its wall
    time.  Imports are scaled by a reference run right after them.
    """
    imports_s = imported - PROCESS_START
    before = reference_s(SETUP_REFERENCE_RUNS)
    imports_nominal_s = imports_s * host_scale(before, before)
    repeats, repeats_wall = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - started
        after = reference_s(SETUP_REFERENCE_RUNS)
        repeats.append(elapsed * host_scale(before, after))
        repeats_wall.append(elapsed)
        before = after
    return (
        imports_nominal_s + statistics.median(repeats),
        imports_s + statistics.median(repeats_wall),
    )


# -- closed loops ---------------------------------------------------------


def layer_state(workload) -> dict[str, float]:
    """Cumulative plan-cache and trace-cache counters right now."""
    from repro.models.plan import PLAN_CACHE

    plan = PLAN_CACHE.stats()
    state = {
        "plan.hits": plan["hits"], "plan.misses": plan["misses"],
        "cache.hits": 0, "cache.misses": 0, "cache.loads": 0, "cache.load_s": 0.0,
    }
    if workload.engine is not None:
        cache = workload.engine.cache
        stats = cache.stats()
        loads = cache.storage_stats()["cold_loads"].values()
        state["cache.hits"] = stats["hits"]
        state["cache.misses"] = stats["misses"]
        state["cache.loads"] = sum(entry["count"] for entry in loads)
        state["cache.load_s"] = sum(entry["seconds"] for entry in loads)
    return state


def closed_phase(workload, seconds: float, tracer=None) -> tuple[Phase, Phase, dict]:
    """Closed loop for ``seconds`` of op time and at least MIN_OPS ops per phase.

    The ops run until their nominal-speed time adds up to ``seconds``,
    so how many ops a run completes, and with it the op the tail
    percentile lands on, does not follow the host's speed.  Failed ops
    add no time; a wall-time cap of three times ``seconds`` ends a run
    whose ops keep failing.

    With a tracer, every other op runs with the layer spans installed;
    alternating keeps untraced and traced ops under the same host
    conditions, so their difference is the tracing overhead.  Returns
    the untraced phase, the traced phase, and the traced ops' summed
    cache and workload counters.
    """
    plain, traced = Phase(), Phase()
    layers: dict[str, float] = {}
    wall_cap = time.perf_counter() + 3 * seconds
    index = 0
    while (
        plain.attempted < MIN_OPS
        or (tracer is not None and traced.attempted < MIN_OPS)
        or (plain.timed_s + traced.timed_s < seconds and time.perf_counter() < wall_cap)
    ):
        item = workload.input(index)
        phase = traced if tracer is not None and index % 2 else plain
        index += 1
        phase.attempted += 1
        correct = False
        results = before = after = None
        workload.prepare(item)
        try:
            if phase is traced:
                before = layer_state(workload)
                tracer.install()
            reference_before = reference_s()
            started = time.perf_counter()
            try:
                results = workload.op(item)
            finally:
                elapsed = time.perf_counter() - started
                if phase is traced:
                    tracer.uninstall()
            scale = host_scale(reference_before, reference_s())
            if phase is traced:
                # Before verify: a warm re-run would add its own lookups.
                after = layer_state(workload)
            correct = workload.verify(item, results)
            if not correct:
                phase.mismatched += 1
                print(f"{workload.name}: answer for {item!r} differs from its reference",
                      file=sys.stderr)
        except Exception:  # one failed op must not end the run
            traceback.print_exc()
        finally:
            workload.cleanup(item)
        if phase.attempted == MIN_OPS:
            phase.rss_mb = peak_rss_mb()
        if not correct:
            phase.failed += 1
            continue
        phase.latencies.append(elapsed * scale)
        phase.wall.append(elapsed)
        phase.timed_s += elapsed * scale
        if after is not None:
            for name, value in after.items():
                layers[name] = layers.get(name, 0.0) + value - before[name]
            for name, value in workload.per_op_counts(item, results).items():
                layers[name] = layers.get(name, 0.0) + value
    return plain, traced, layers


def run_closed(workload, args, imported: float) -> Outcome:
    setup = timed_setup(workload, imported)
    if not args.trace:
        phase, _, _ = closed_phase(workload, args.seconds)
        return end_to_end(
            workload, phase, setup, phase.rss_mb,
            f"this process, after set-up and {MIN_OPS} ops",
        )

    tracer = Tracer()
    plain, traced, layers = closed_phase(workload, args.seconds, tracer)
    ops = len(traced.latencies)
    metrics = {f"{span}_ms": tracer.self_ms(span) / ops for span in SPANS}
    layers = {name: layers.get(name, 0.0) for name in (
        "plan.hits", "plan.misses", "cache.hits", "cache.misses", "cache.loads",
        "cache.load_s", "stream.resets", "stream.checks_seen", "stream.consumed",
        "stream.stream_len", "segments.closed",
    )}
    lookups = layers["cache.hits"] + layers["cache.misses"]
    metrics.update({
        "models.lower_calls": tracer.calls["models.lower"] / ops,
        "core.select_calls": tracer.calls["core.select"] / ops,
        "stream.checks": tracer.calls["stream.check"] / ops,
        "hw.rows": tracer.counts["hw.rows"] / ops,
        "plan.hit_frac": ratio(layers["plan.hits"], layers["plan.hits"] + layers["plan.misses"]),
        "cache.miss_frac": ratio(layers["cache.misses"], lookups),
        "cache.hit_frac": ratio(layers["cache.hits"] - layers["cache.loads"], lookups),
        "cache.disk_load_frac": ratio(layers["cache.loads"], lookups),
        "cache.disk_load_ms": 1e3 * ratio(layers["cache.load_s"], layers["cache.loads"]),
        "stream.reset_frac": ratio(layers["stream.resets"], layers["stream.checks_seen"]),
        "stream.consumed_frac": ratio(layers["stream.consumed"], layers["stream.stream_len"]),
        "segments.closed": layers["segments.closed"] / ops,
        "traffic.shape_frac": ratio(
            tracer.counts["traffic.shapes"], tracer.counts["traffic.batches"]
        ),
        **{name: 0.0 for name in SERVE_METRICS},
    })
    # Layer spans are wall time, so the traced median is too.  The
    # overhead compares nominal-speed medians, which host-speed swings
    # between neighbouring ops do not move.
    traced_wall = traced.wall_summary()
    metrics.update({
        "trace.op_p50_ms": traced_wall["p50_ms"],
        "trace.overhead_ms": traced.summary()["p50_ms"] - plain.summary()["p50_ms"],
        "trace.unattributed_ms": (
            traced_wall["mean_ms"] - 1e3 * tracer.total_self_s() / ops
        ),
    })
    notes = {f"{span}_ms": f"n={tracer.calls[span] / ops:g} calls/op" for span in SPANS}
    notes["trace.op_p50_ms"] = f"n={ops} traced ops"
    notes["trace.overhead_ms"] = (
        f"n={ops} traced vs n={len(plain.latencies)} untraced, interleaved; nominal speed"
    )
    return Outcome(
        metrics,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        plain.mismatched + traced.mismatched,
        notes,
    )


def end_to_end(workload, phase: Phase, setup, rss_mb, rss_of) -> Outcome:
    summary, wall = phase.summary(), phase.wall_summary()
    setup_s, setup_wall_s = setup
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ratio(len(phase.latencies), phase.timed_s),
        "op_p50_ms": summary["p50_ms"],
        "op_mean_ms": summary["mean_ms"],
        "op_tail_ms": summary["tail_ms"],
        "peak_rss_mb": rss_mb,
        "proj_err_pct": workload.proj_err_pct(),
    }
    n = summary["n"]
    notes = {
        "setup_s": f"imports + median of {SETUP_REPEATS} set-ups; wall {setup_wall_s:.3f} s",
        "ops_per_s": f"n={n} ops over {phase.timed_s:.2f} s",
        "op_p50_ms": f"n={n}; wall {wall['p50_ms']:.1f} ms",
        "op_mean_ms": f"n={n}; wall {wall['mean_ms']:.1f} ms",
        "op_tail_ms": (
            f"p{summary['tail_pct']:.1f}, n={n}, 10 ops beyond; wall {wall['tail_ms']:.1f} ms"
        ),
        "peak_rss_mb": rss_of,
        "proj_err_pct": f"mean over {len(workload.universe)} universe inputs",
    }
    return Outcome(metrics, phase.attempted, phase.failed, phase.mismatched, notes)


# -- the open loop --------------------------------------------------------


def open_phase(workload, seconds: float) -> tuple[Phase, list, list]:
    """One open-loop window: the phase, its finished jobs, all jobs."""
    records, origin = workload.phase(seconds)
    phase = Phase(attempted=len(records))
    done = [record for record in records if record.ok]
    phase.failed = len(records) - len(done)
    phase.mismatched = sum(1 for record in records if record.mismatch)
    phase.latencies = [record.done_s - record.due_s for record in done]
    phase.wall = phase.latencies
    if done:
        phase.timed_s = max(record.done_s for record in done) - origin
    return phase, done, records


def handled(stats: dict) -> tuple[int, float]:
    """(requests, total handler ms) the daemon served, /stats excluded."""
    entries = [
        entry for endpoint, entry in stats["latency"].items()
        if endpoint != "GET /stats"
    ]
    return (
        sum(entry["count"] for entry in entries),
        sum(entry["count"] * entry["mean_ms"] for entry in entries),
    )


def run_open(workload, args, imported: float) -> Outcome:
    setup = timed_setup(workload, imported)
    if not args.trace:
        phase, _, _ = open_phase(workload, args.seconds)
        return end_to_end(
            workload, phase, setup,
            peak_rss_mb(workload.daemon.process.pid), "the daemon subprocess",
        )

    # The daemon runs the work, so no span is installed in this process:
    # the per-layer view comes from client-side timing and /stats
    # counters, and the tracing overhead is zero by construction.
    before = workload.stats()
    phase, done, records = open_phase(workload, args.seconds)
    after = workload.stats()

    (count0, handled0), (count1, handled1) = handled(before), handled(after)
    post_rtts = [1e3 * r.post_rtt_s for r in records if r.post_rtt_s is not None]
    result_rtts = [1e3 * rtt for r in records for rtt in r.result_rtts]
    handler_ms = ratio(handled1 - handled0, count1 - count0)
    client_ms = ratio(sum(post_rtts) + sum(result_rtts), len(post_rtts) + len(result_rtts))

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    no_loads = {"count": 0, "mean_ms": 0.0}
    load0 = before["storage"]["cold_loads"].get("binary", no_loads)
    load1 = after["storage"]["cold_loads"].get("binary", no_loads)
    loads = load1["count"] - load0["count"]
    load_ms = load1["count"] * load1["mean_ms"] - load0["count"] * load0["mean_ms"]
    lookups = hits + misses

    metrics = {f"{span}_ms": 0.0 for span in SPANS}
    metrics.update({
        name: 0.0 for name in (
            "models.lower_calls", "core.select_calls", "stream.checks", "hw.rows",
            "plan.hit_frac", "stream.reset_frac", "stream.consumed_frac",
            "segments.closed", "traffic.shape_frac", "trace.overhead_ms",
            "trace.unattributed_ms",
        )
    })
    metrics.update({
        "cache.miss_frac": ratio(misses, lookups),
        "cache.hit_frac": ratio(hits - loads, lookups),
        "cache.disk_load_frac": ratio(loads, lookups),
        "cache.disk_load_ms": ratio(load_ms, loads),
        "serve.post_rtt_ms": statistics.fmean(post_rtts),
        "serve.result_rtt_ms": statistics.fmean(result_rtts),
        "serve.handler_ms": handler_ms,
        "serve.transport_ms": client_ms - handler_ms,
        "serve.queue_wait_ms": statistics.fmean(1e3 * r.queue_wait_s for r in done),
        "serve.run_ms": statistics.fmean(1e3 * r.run_s for r in done),
        "serve.polls_per_job": statistics.fmean(len(r.result_rtts) for r in done),
        "gen.late_ms": statistics.fmean(1e3 * max(r.late_s, 0.0) for r in records),
        "trace.op_p50_ms": phase.summary()["p50_ms"],
    })
    notes = {
        "cache.hit_frac": f"n={lookups} lookups",
        "cache.disk_load_ms": f"n={loads}",
        "serve.post_rtt_ms": f"n={len(post_rtts)}",
        "serve.result_rtt_ms": f"n={len(result_rtts)}",
        "serve.handler_ms": f"n={count1 - count0} daemon-side",
        "serve.queue_wait_ms": f"n={len(done)}",
        "serve.run_ms": f"n={len(done)}",
        "gen.late_ms": f"n={len(records)}",
        "trace.op_p50_ms": f"n={len(done)}",
        "trace.overhead_ms": "no spans in this process",
    }
    return Outcome(metrics, phase.attempted, phase.failed, phase.mismatched, notes)


# -- entry point ----------------------------------------------------------


def run_workload(args, workdir: Path) -> Outcome:
    digests = load_digests().get(args.workload, {})
    if args.workload == "serve-open":
        from serveopen import ServeOpen

        workload = ServeOpen(args.seed, workdir, digests, ROOT)
        imported = time.perf_counter()
        try:
            return run_open(workload, args, imported)
        finally:
            workload.stop()
    from closed import WORKLOADS as CLOSED

    workload = CLOSED[args.workload](args.seed, workdir, digests)
    return run_closed(workload, args, time.perf_counter())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the daemon and the work
    # directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        outcome = run_workload(args, workdir)
    except Exception:
        traceback.print_exc()
        print(f"run.py: {args.workload} set-up or run failed", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
        return 2

    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, unit in units.items():
        note = outcome.notes.get(name, "")
        print(f"  {name:<24} {outcome.metrics[name]:>14.4f} {unit:<6} {note}")
    fail_frac = ratio(outcome.failed, outcome.attempted)
    print(f"  {'fail_frac':<24} {fail_frac:>14.4f} {'ratio':<6} "
          f"{outcome.failed} failed of {outcome.attempted} attempted")
    print(json.dumps({
        "correct": outcome.mismatched == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
