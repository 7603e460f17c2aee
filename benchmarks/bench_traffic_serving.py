"""Traffic serving bench: SeqPoint identification on a live request stream.

For the paper's two end-to-end networks this bench drives the
``repro.traffic`` serving loop — seeded arrivals, corpus-sampled
request lengths, dynamic batching, device FIFO — and reports

* **stationary mixes**: the online identifier converges on the live
  batch stream and its serving-time projection lands within the
  paper's threshold ``e`` of the actually served total,
* **drifting mixes**: the request mix shifts mid-stream (disjoint
  corpus quantiles), the drift guard fires at least one reset, and the
  identifier re-converges on the new mix, and
* **SLO percentiles**: request latency p50/p95/p99 per batching
  policy, the serving-facing view of what each policy trades away.

The serve itself is timed end to end by perfbench's ``traffic-stream``
workload, and its bit-identity against the per-batch walk is
property-tested in tests/test_properties_traffic.py.

Unlike the corpus-replay benches, load here is set by the request
count and arrival rate — the corpus scale only sets the pool request
lengths are sampled from.  The convergence/error gates are calibrated
at the default ``--scale 0.3``; other scales still run but the gates
are only asserted at the calibrated default.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_traffic_serving.py
        [--smoke] [--json BENCH_traffic_serving.json]

or through pytest (``pytest benchmarks/bench_traffic_serving.py``).
"""

from __future__ import annotations

import argparse
import json
import time

from repro.api import AnalysisEngine
from repro.traffic import TrafficSpec

#: The paper's identification-error threshold e (percent), applied to
#: the streaming projected-vs-actual serving time on stationary mixes.
ERROR_THRESHOLD_PCT = 1.0
#: Corpus scale the gates are calibrated at (see module docstring).
CALIBRATED_SCALE = 0.3

#: Serving knobs shared by every scenario: small batches so the stream
#: carries enough batch-formation events for cadence-8 checks.  The
#: drifting scenarios serve a longer stream so the identifier has room
#: to re-converge after the guard resets it at the shift.
_SERVE = dict(rate=128.0, cadence=8, patience=3, rtol=0.01, sl_rtol=0.2)

#: Mid-stream mix shift: a short head on the short-request half of the
#: corpus, then the long-request half — disjoint quantiles, so padded
#: batch shapes (and per-SL means) move when the shift lands.
_SHIFT = [{"fraction": 0.15, "quantile_hi": 0.5},
          {"fraction": 0.85, "quantile_lo": 0.5}]

#: Per-network scenarios.  GNMT serves its paper pipeline (pooled
#: bucketing).  DS2 serves shuffled when stationary (SortaGrad's sorted
#: epoch is a monotone changepoint stream, as in the streaming bench)
#: and pooled when drifting — pooled recomposition is what makes the
#: mix shift visible to the per-SL drift guard, which also needs the
#: tighter ``drift_rtol``.
SCENARIOS = {
    "gnmt-stationary": dict(
        analysis=dict(network="gnmt", batch_size=16),
        requests=2048, drift_rtol=0.1, **_SERVE,
    ),
    "gnmt-drifting": dict(
        analysis=dict(network="gnmt", batch_size=16),
        requests=4096, arrival="bursty", phases=_SHIFT, drift_rtol=0.1,
        **_SERVE,
    ),
    "ds2-stationary": dict(
        analysis=dict(network="ds2", batch_size=16, batching="shuffled"),
        requests=2048, drift_rtol=0.1, **_SERVE,
    ),
    "ds2-drifting": dict(
        analysis=dict(network="ds2", batch_size=16, batching="pooled"),
        requests=4096, arrival="bursty", phases=_SHIFT, drift_rtol=0.05,
        **_SERVE,
    ),
}

#: Batching policies compared in the SLO table (stationary mix).
SLO_POLICIES = ("pooled", "sorted", "shuffled")


def build_spec(name: str, scale: float, requests: int | None = None):
    knobs = json.loads(json.dumps(SCENARIOS[name]))  # deep copy
    knobs["analysis"]["scale"] = scale
    if requests is not None:
        knobs["requests"] = requests
    return TrafficSpec.from_dict(knobs)


def run_scenario(engine: AnalysisEngine, name: str, scale: float,
                 requests: int | None = None):
    start = time.perf_counter()
    result = engine.run_traffic(build_spec(name, scale, requests))
    return result, time.perf_counter() - start


def check_gates(name: str, result) -> list[str]:
    """The acceptance story, as assertable facts."""
    failures = []
    if not result.converged:
        failures.append(f"{name}: identifier did not converge")
    if name.endswith("-stationary"):
        if result.drift_resets != 0:
            failures.append(
                f"{name}: {result.drift_resets} drift resets on a "
                "stationary mix"
            )
        if result.streaming_projection_error_pct > ERROR_THRESHOLD_PCT:
            failures.append(
                f"{name}: serving-time projection error "
                f"{result.streaming_projection_error_pct:.3f}% > e"
            )
    else:
        if result.drift_resets < 1:
            failures.append(f"{name}: drift guard never fired on the shift")
    return failures


def report(name, result, seconds):
    status = "converged" if result.converged else "NOT converged"
    print(
        f"  {name:>15}: {status} at {result.iterations_consumed}/"
        f"{result.batches} batches, {result.drift_resets} drift resets, "
        f"projection error {result.streaming_projection_error_pct:.3f}%, "
        f"{seconds * 1e3:.0f} ms"
    )


def slo_table(engine: AnalysisEngine, scale: float, requests: int):
    """Latency percentiles per batching policy on the stationary mix."""
    rows = []
    for network in ("gnmt", "ds2"):
        for policy in SLO_POLICIES:
            spec = TrafficSpec.from_dict({
                "analysis": {"network": network, "batch_size": 16,
                             "batching": policy, "scale": scale},
                **{k: _SERVE[k] for k in ("rate", "cadence", "patience",
                                          "rtol", "sl_rtol")},
                "requests": requests,
            })
            start = time.perf_counter()
            result = engine.run_traffic(spec)
            seconds = time.perf_counter() - start
            latency = result.latency
            rows.append((f"{network}-slo-{policy}", seconds, result, latency))
            print(
                f"  {network:>5} {policy:>9}: p50 {latency['p50_ms']:8.1f} ms"
                f"  p95 {latency['p95_ms']:8.1f} ms"
                f"  p99 {latency['p99_ms']:8.1f} ms"
                f"  (mean wait {result.queue_wait['mean_ms']:.1f} ms)"
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request stream, no convergence gates")
    parser.add_argument("--scale", type=float, default=CALIBRATED_SCALE,
                        help="corpus scale the request mix samples from "
                             f"(default {CALIBRATED_SCALE}: gate-calibrated)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results (BENCH_*.json schema)")
    args = parser.parse_args(argv)
    requests = None
    if args.smoke:
        args.scale = 0.05
        requests = 512

    engine = AnalysisEngine()
    gated = not args.smoke and args.scale == CALIBRATED_SCALE
    print(f"traffic serving at corpus scale {args.scale} "
          f"({'gates on' if gated else 'gates off'})")
    entries = []
    failures = []
    for name in SCENARIOS:
        result, seconds = run_scenario(engine, name, args.scale, requests)
        report(name, result, seconds)
        entries.append(
            {
                "name": name,
                "seconds": seconds,
                # The cost-reduction factor: batches served over the
                # batches the online identifier actually watched.
                "speedup": result.batches / result.iterations_consumed,
                "converged": result.converged,
                "drift_resets": result.drift_resets,
                "projection_error_pct": result.streaming_projection_error_pct,
                "iterations_consumed": result.iterations_consumed,
                "batches": result.batches,
            }
        )
        if gated:
            failures.extend(check_gates(name, result))

    print("request latency per batching policy (stationary mix):")
    for name, seconds, result, latency in slo_table(
        engine, args.scale, requests or 2048
    ):
        entries.append(
            {
                "name": name,
                "seconds": seconds,
                "speedup": result.batches / result.iterations_consumed,
                "p50_ms": latency["p50_ms"],
                "p95_ms": latency["p95_ms"],
                "p99_ms": latency["p99_ms"],
            }
        )

    if args.json is not None:
        payload = {
            "bench": "traffic_serving",
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


def test_traffic_serving_invariants(scale):
    """Pytest entry: structural invariants of one served stream."""
    engine = AnalysisEngine()
    result, _ = run_scenario(
        engine, "gnmt-stationary", min(scale, 0.05), requests=512
    )
    assert result.requests == 512
    assert result.latency["count"] == 512
    assert result.iterations_consumed <= result.batches
    assert result.makespan_s >= result.actual_total_s > 0.0
    again, _ = run_scenario(
        engine, "gnmt-stationary", min(scale, 0.05), requests=512
    )
    assert again.to_dict() == result.to_dict()


if __name__ == "__main__":
    raise SystemExit(main())
