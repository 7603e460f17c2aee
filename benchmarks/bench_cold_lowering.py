"""Cold lowering bench: a cold traffic run with and without a plan store.

A cold ``run_traffic`` spends most of its time building plans: every
unique served shape is lowered once with no config and resolved onto
the serving config (``IterationExecutor.plans_for``).  This bench times
one cold GNMT traffic run (scale 0.1, 8,192 Poisson requests by
default) three ways, each from empty process caches:

* **no store**: plans are built in memory only;
* **empty store**: a fresh ``PlanStore`` directory is attached, so every
  plan is built under the store's per-key lock and written;
* **warm store**: the same directory again, so every plan loads and no
  shape is lowered.

It reports wall time and lowering counts per mode, and asserts that the
three answers are equal and that the warm store lowered nothing.
Lowerings are counted on ``GnmtModel.lower_forward``, through which
GNMT's training lowering also runs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cold_lowering.py
        [--smoke] [--requests 262144] [--repeats 3]
        [--json BENCH_cold_lowering.json]

or through pytest (``pytest benchmarks/bench_cold_lowering.py``).
``--smoke`` runs GNMT at scale 0.02 with 1,024 requests, once per mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.api import AnalysisEngine, AnalysisSpec
from repro.api.cache import TraceCache
from repro.kernels import clear_lowering_caches
from repro.models.gnmt import GnmtModel
from repro.models.plan import PLAN_CACHE
from repro.traffic import TrafficSpec

MODES = ("no_store", "empty_store", "warm_store")


class LoweringCounter:
    """Counts ``GnmtModel.lower_forward`` calls while installed."""

    def __init__(self) -> None:
        self.calls = 0
        self._original = None

    def __enter__(self) -> "LoweringCounter":
        self._original = original = GnmtModel.lower_forward
        counter = self

        def counted(model, inputs, config):
            counter.calls += 1
            return original(model, inputs, config)

        GnmtModel.lower_forward = counted
        return self

    def __exit__(self, *exc) -> None:
        GnmtModel.lower_forward = self._original


def cold_run(spec: TrafficSpec, store: Path | None) -> tuple[str, float, int]:
    """One traffic run from empty process caches: (answer JSON, seconds,
    lowerings)."""
    PLAN_CACHE.clear()
    clear_lowering_caches()
    engine = AnalysisEngine(cache=TraceCache())
    with LoweringCounter() as counter:
        start = time.perf_counter()
        result = engine.run_traffic(
            spec, plan_store_dir=None if store is None else str(store)
        )
        seconds = time.perf_counter() - start
    return json.dumps(result.to_dict(), sort_keys=True), seconds, counter.calls


def run_modes(
    scale: float, requests: int, repeats: int
) -> dict[str, dict[str, object]]:
    """Every mode ``repeats`` times, alternating; per mode the seconds
    of each run and the lowerings of the last."""
    spec = TrafficSpec(
        analysis=AnalysisSpec(network="gnmt", scale=scale), requests=requests
    )
    runs: dict[str, dict[str, object]] = {
        mode: {"seconds": [], "lowerings": None} for mode in MODES
    }
    answers = set()
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            store = Path(tmp) / f"plans-{repeat}"
            for mode in MODES:
                answer, seconds, lowerings = cold_run(
                    spec, None if mode == "no_store" else store
                )
                answers.add(answer)
                runs[mode]["seconds"].append(seconds)
                runs[mode]["lowerings"] = lowerings
    assert len(answers) == 1, "the three modes gave different answers"
    assert runs["warm_store"]["lowerings"] == 0, (
        f"a warm store lowered {runs['warm_store']['lowerings']} shapes"
    )
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus and request count, one repeat")
    parser.add_argument("--requests", type=int, default=8192,
                        help="requests per traffic run (default 8192)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="alternating runs per mode (default 3)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results (BENCH_*.json schema)")
    args = parser.parse_args(argv)
    scale = 0.1
    if args.smoke:
        scale, args.requests, args.repeats = 0.02, 1024, 1

    runs = run_modes(scale, args.requests, args.repeats)
    baseline = statistics.median(runs["no_store"]["seconds"])
    print(
        f"cold GNMT traffic run, scale {scale}, {args.requests} requests, "
        f"{args.repeats} alternating repeat(s):"
    )
    entries = []
    for mode in MODES:
        seconds = runs[mode]["seconds"]
        median = statistics.median(seconds)
        print(
            f"  {mode:12s} median {median * 1e3:8.1f} ms "
            f"[{min(seconds) * 1e3:.1f}-{max(seconds) * 1e3:.1f}]   "
            f"lowerings {runs[mode]['lowerings']}"
        )
        entries.append(
            {
                "name": mode,
                "seconds": median,
                "speedup": baseline / median,
                "lowerings": runs[mode]["lowerings"],
            }
        )
    print("  answers equal across modes; the warm store lowered nothing")
    if args.json is not None:
        payload = {"bench": "cold_lowering", "scale": scale, "results": entries}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def test_warm_store_lowers_nothing():
    """Pytest entry: equal answers, and no lowering from a warm store."""
    runs = run_modes(scale=0.02, requests=512, repeats=1)
    assert runs["no_store"]["lowerings"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
