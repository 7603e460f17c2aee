"""Streaming convergence bench: how little of an epoch identification needs.

For the paper's two end-to-end networks this bench streams one logged
epoch through the online identifier and reports

* the fraction of the epoch consumed when the selection converged, and
* the full-epoch projection error of the converged (prefix) selection
  against the complete trace — the quantity the paper's threshold ``e``
  bounds for the batch pipeline.

Scenarios: GNMT on its paper pipeline (pooled bucketing — periodically
stationary, period one pool), DS2 on a shuffled pipeline (steady-state
stationary ordering), and DS2 on its paper SortaGrad pipeline — whose
sorted first epoch is a monotone changepoint stream by construction.
The plain drift guard correctly *refuses* that last stream; the
``segmented`` selector (changepoint-native, ``repro.stream.segments``)
converges on it inside the terminal quasi-stationary segment instead,
with a drift-aware projection gated at ``SEGMENTED_ERROR_GATE_PCT``.

Every trial also asserts streaming-vs-batch **bit-identity** twice:

* the incremental per-SL statistics of the consumed prefix equal the
  batch group-by of the same prefix, and
* a fully consumed stream reproduces ``AnalysisEngine.run`` exactly,

and each *stationary* scenario asserts the ``segmented`` wrapper is a
bit-for-bit no-op (degenerate single-segment pass-through).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_streaming_convergence.py
        [--smoke] [--json BENCH_streaming_convergence.json]

or through pytest (``pytest benchmarks/bench_streaming_convergence.py``).
"""

from __future__ import annotations

import argparse
import json
import time

from repro.api import AnalysisEngine, AnalysisSpec
from repro.core.sl_stats import SlStatistics
from repro.stream import (
    SegmentedSelector,
    StreamSpec,
    StreamingIdentifier,
    StreamingSlStatistics,
    TraceReplayFeed,
)
from repro.train.frame import TraceFrame

#: The paper's identification-error threshold e (percent).
ERROR_THRESHOLD_PCT = 1.0
#: Convergence must fire within this fraction of the logged epoch
#: (stationary scenarios only — a monotone stream must be seen nearly
#: whole before its terminal segment can prove itself stable).
CONSUMPTION_GATE = 0.5
#: Projection-error gate for the segmented SortaGrad row.
SEGMENTED_ERROR_GATE_PCT = 2.0

#: Per-network streaming knobs (cadence tracks the pipeline's natural
#: period: one bucketing pool for GNMT, a shorter window for the small
#: shuffled DS2 epoch, and an even shorter one for SortaGrad so the
#: terminal plateau spans several checks).  ``gate`` picks which
#: non-smoke acceptance block applies.
SCENARIOS = {
    "gnmt": dict(
        analysis=dict(network="gnmt"),
        cadence=100, patience=3, rtol=0.02, drift_rtol=0.1, sl_rtol=0.2,
        chunk_size=7, gate="stationary",
    ),
    "ds2": dict(
        analysis=dict(network="ds2", batching="shuffled"),
        cadence=64, patience=3, rtol=0.015, drift_rtol=0.1, sl_rtol=0.15,
        chunk_size=7, gate="stationary",
    ),
    # DS2's paper pipeline, epoch 1: sorted (monotone) SL stream.  The
    # plain guard refuses it (asserted below); the segmented selector
    # converges once the terminal plateau holds for `patience` checks.
    "ds2-sortagrad": dict(
        analysis=dict(
            network="ds2",
            selector="segmented",
            selector_kwargs={"cadence": 12, "min_segment": 48},
        ),
        cadence=12, patience=3, rtol=0.01, drift_rtol=0.1, sl_rtol=0.15,
        chunk_size=7, gate="segmented",
    ),
}


def assert_prefix_bit_identity(engine: AnalysisEngine, spec, consumed: int) -> None:
    """Streamed stats of the consumed prefix == batch group-by of it."""
    frame = engine.frame_for(spec)
    streamed = StreamingSlStatistics.for_frame(frame)
    streamed.absorb_frame(frame, 0, consumed)
    prefix = TraceFrame.from_records(
        model_name=frame.model_name,
        dataset_name=frame.dataset_name,
        config_name=frame.config_name,
        batch_size=frame.batch_size,
        records=engine.trace_for(spec).records[:consumed],
    )
    assert streamed.statistics() == SlStatistics.from_trace(prefix), (
        "streaming statistics diverged from the batch group-by"
    )


def assert_full_stream_matches_batch(engine: AnalysisEngine, spec) -> None:
    """An exhausted stream reproduces the batch engine.run numbers."""
    batch = engine.run(spec)
    frame = engine.frame_for(spec)
    run = StreamingIdentifier(
        spec.build_selector(), cadence=len(frame), patience=10_000
    ).run(
        TraceReplayFeed(frame, chunk_size=7),
        stats=StreamingSlStatistics.for_frame(frame),
    )
    assert run.identification_error_pct == batch.identification_error_pct
    assert run.projected_prefix_total_s == batch.projected_total_s
    assert [
        (p.seq_len, p.tgt_len, p.weight, p.record.time_s)
        for p in run.selection.points
    ] == [(p.seq_len, p.tgt_len, p.weight, p.time_s) for p in batch.points], (
        "fully consumed stream diverged from the batch selection"
    )


def assert_segmented_is_passthrough(engine: AnalysisEngine, spec, cadence: int) -> None:
    """On a stationary epoch the segmented wrapper is a bit-exact no-op."""
    frame = engine.frame_for(spec)
    base = spec.build_selector().select(frame)
    wrapped = SegmentedSelector(spec.build_selector(), cadence=cadence).select(frame)
    assert [
        (p.seq_len, p.tgt_len, p.weight, p.record.time_s)
        for p in wrapped.selection.points
    ] == [
        (p.seq_len, p.tgt_len, p.weight, p.record.time_s)
        for p in base.selection.points
    ], "segmented wrapper changed a stationary selection"
    assert wrapped.projected_total_s == base.projected_total_s
    assert wrapped.identification_error_pct == base.identification_error_pct


def assert_plain_guard_refuses(engine: AnalysisEngine, knobs: dict) -> None:
    """The unsegmented identifier must refuse the monotone stream."""
    spec = AnalysisSpec(
        **{**knobs["analysis"], "selector": "seqpoint", "selector_kwargs": {}},
        scale=knobs["scale"],
    )
    frame = engine.frame_for(spec)
    run = StreamingIdentifier(
        spec.build_selector(),
        cadence=knobs["cadence"],
        patience=knobs["patience"],
        rtol=knobs["rtol"],
        drift_rtol=knobs["drift_rtol"],
        sl_rtol=knobs["sl_rtol"],
    ).run(
        TraceReplayFeed(frame, chunk_size=knobs["chunk_size"]),
        stats=StreamingSlStatistics.for_frame(frame),
    )
    assert not run.converged, (
        "the plain drift guard unexpectedly converged on the SortaGrad "
        "stream; the segmented row no longer demonstrates a refusal"
    )


def run_network(engine: AnalysisEngine, name: str, scale: float):
    knobs = dict(SCENARIOS[name])
    gate = knobs.pop("gate")
    analysis = AnalysisSpec(scale=scale, **knobs.pop("analysis"))
    stream = StreamSpec(analysis=analysis, **knobs)

    start = time.perf_counter()
    result = engine.run_streaming(stream)
    seconds = time.perf_counter() - start

    assert_prefix_bit_identity(engine, analysis, result.iterations_consumed)
    assert_full_stream_matches_batch(engine, analysis)
    if gate == "stationary":
        assert_segmented_is_passthrough(engine, analysis, knobs["cadence"])
    return result, seconds


def report(name, result, seconds):
    status = "converged" if result.converged else "NOT converged"
    segmented = ""
    if result.checks and result.checks[-1].segments_closed:
        segmented = f", {result.checks[-1].segments_closed + 1} segments"
    print(
        f"  {name:>13}: {status} at {result.iterations_consumed}/"
        f"{result.epoch_iterations} iterations "
        f"({100 * result.fraction_consumed:.1f}% of the epoch), "
        f"projection error {result.projection_error_pct:.3f}%"
        f"{segmented}, {seconds * 1e3:.0f} ms"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, no convergence gates")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale (default 1.0: paper-sized epochs)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results (BENCH_*.json schema)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = 0.05

    engine = AnalysisEngine()
    print(f"streaming convergence at scale {args.scale} "
          f"(bit-identity asserted per trial)")
    entries = []
    failures = []
    for name in SCENARIOS:
        gate = SCENARIOS[name]["gate"]
        result, seconds = run_network(engine, name, args.scale)
        report(name, result, seconds)
        entries.append(
            {
                "name": name,
                "seconds": seconds,
                # The cost-reduction factor: epoch length over the
                # iterations the online identifier actually needed.
                "speedup": result.epoch_iterations / result.iterations_consumed,
                "converged": result.converged,
                "fraction_consumed": result.fraction_consumed,
                "projection_error_pct": result.projection_error_pct,
                "iterations_consumed": result.iterations_consumed,
                "epoch_iterations": result.epoch_iterations,
            }
        )
        if args.smoke:
            continue
        if gate == "stationary":
            if not result.converged:
                failures.append(f"{name}: did not converge")
            elif result.fraction_consumed > CONSUMPTION_GATE:
                failures.append(
                    f"{name}: consumed {100 * result.fraction_consumed:.1f}% "
                    f"> {100 * CONSUMPTION_GATE:.0f}% of the epoch"
                )
            if result.projection_error_pct > ERROR_THRESHOLD_PCT:
                failures.append(
                    f"{name}: projection error "
                    f"{result.projection_error_pct:.3f}% > e"
                )
        else:
            # Every assertion here is deterministic (no timing), so the
            # gate runs on any host.
            assert_plain_guard_refuses(
                engine, {**SCENARIOS[name], "scale": args.scale}
            )
            if not result.converged:
                failures.append(
                    f"{name}: segmented selector did not converge before "
                    "epoch end"
                )
            if result.iterations_consumed >= result.epoch_iterations:
                failures.append(
                    f"{name}: consumed the whole epoch "
                    f"({result.iterations_consumed} iterations)"
                )
            if result.projection_error_pct > SEGMENTED_ERROR_GATE_PCT:
                failures.append(
                    f"{name}: projection error "
                    f"{result.projection_error_pct:.3f}% > "
                    f"{SEGMENTED_ERROR_GATE_PCT}%"
                )

    if args.json is not None:
        payload = {
            "bench": "streaming_convergence",
            "scale": args.scale,
            "results": entries,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    for failure in failures:
        print(f"WARNING: {failure}")
    return 1 if failures else 0


def test_streaming_convergence_bit_identity(scale):
    """Pytest entry: streamed stats/selections must equal the batch path."""
    engine = AnalysisEngine()
    for name in SCENARIOS:
        knobs = dict(SCENARIOS[name])
        gate = knobs.pop("gate")
        analysis = AnalysisSpec(scale=min(scale, 0.05), **knobs.pop("analysis"))
        frame = engine.frame_for(analysis)
        assert_prefix_bit_identity(engine, analysis, max(1, len(frame) // 2))
        assert_full_stream_matches_batch(engine, analysis)
        if gate == "stationary":
            assert_segmented_is_passthrough(engine, analysis, knobs["cadence"])


if __name__ == "__main__":
    raise SystemExit(main())
