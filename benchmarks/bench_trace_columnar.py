"""Trace artefact bench: v2 JSON parse vs v3 binary cold loads.

Simulates one epoch, saves it as a columnar v2 JSON artefact and as a
binary v3 ``.npt`` container, and times cold :meth:`TraceFrame.load`
calls of each (best of five).  Both loads must give payload-identical
frames; the binary load is gated at ≥5x faster than the JSON parse on
non-smoke runs.

The simulation side of the columnar trace core is timed end to end by
perfbench's ``analyze-cold`` workload, and its bit-identity against the
per-iteration loop is tested in tests/test_columnar_equivalence.py.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_trace_columnar.py [--smoke]
        [--json BENCH_trace_columnar.json]

or through pytest (``pytest benchmarks/bench_trace_columnar.py``).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.api.registry import DATASETS, MODELS, build_batching
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.train.frame import TraceFrame
from repro.train.runner import TrainingRunSimulator

_DATASET = {"gnmt": "iwslt", "ds2": "librispeech"}
_BATCHING = {"gnmt": "pooled", "ds2": "sortagrad"}


def build_simulator(
    network: str, scale: float, noise_sigma: float
) -> TrainingRunSimulator:
    dataset = DATASETS.create(_DATASET[network], scale=scale)
    return TrainingRunSimulator(
        model=MODELS.create(network),
        dataset=dataset,
        batching=build_batching(_BATCHING[network], 64, dataset=_DATASET[network]),
        device=GpuDevice(paper_config(1)),
        noise_sigma=noise_sigma,
    )


def run_cold_load(network: str, scale: float, sigma: float, repeats: int = 5):
    """Cold artefact loads: v2 JSON parse vs v3 binary mmap + views.

    Saves one simulated epoch in both formats, times ``repeats`` cold
    :meth:`TraceFrame.load` calls of each (best-of, to shave scheduler
    noise), and asserts the loaded frames are payload-bit-identical.
    """
    sim = build_simulator(network, scale, sigma)
    frame = sim.run_epoch_frame(epoch=0, include_eval=False)
    expected = json.dumps(frame.to_payload(), sort_keys=True)
    with tempfile.TemporaryDirectory() as tmp:
        artefacts = (
            ("json", Path(tmp) / "epoch.json", 2),
            ("binary", Path(tmp) / "epoch.npt", 3),
        )
        for _, path, version in artefacts:
            frame.save(path, version=version)
        times: dict[str, float] = {}
        for fmt, path, _ in artefacts:
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                loaded = TraceFrame.load(path)
                samples.append(time.perf_counter() - start)
            assert json.dumps(loaded.to_payload(), sort_keys=True) == expected
            times[fmt] = min(samples)
    return len(frame), times["json"], times["binary"]


def report_cold_load(network, iterations, json_s, binary_s):
    speedup = json_s / binary_s
    print(
        f"  cold artefact load ({iterations} iterations):      "
        f"json v2  {json_s * 1e3:8.1f} ms   "
        f"binary v3 {binary_s * 1e3:8.1f} ms   "
        f"({speedup:.2f}x)"
    )
    return speedup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, no speedup assertion")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="corpus scale (default 0.5)")
    parser.add_argument("--sigma", type=float, default=0.0,
                        help="measurement-noise sigma (default 0: exact)")
    parser.add_argument("--networks", default="gnmt",
                        help="comma-separated: gnmt,ds2")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable results (BENCH_*.json schema)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale = 0.05

    worst_load = float("inf")
    entries = []
    for network in args.networks.split(","):
        iterations, json_s, binary_s = run_cold_load(
            network, args.scale, args.sigma
        )
        print(f"{network}:")
        worst_load = min(
            worst_load, report_cold_load(network, iterations, json_s, binary_s)
        )
        entries.append(
            {"name": f"{network}_cold_load_json", "seconds": json_s,
             "speedup": 1.0}
        )
        entries.append(
            {"name": f"{network}_cold_load_binary", "seconds": binary_s,
             "speedup": json_s / binary_s}
        )
    if args.json is not None:
        payload = {"bench": "trace_columnar", "scale": args.scale, "results": entries}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not args.smoke and worst_load < 5.0:
        print(f"WARNING: cold-load speedup {worst_load:.2f}x below the 5x target")
        return 1
    return 0


def test_cold_load_binary_beats_json(scale):
    """Pytest entry: v3 binary cold loads must beat v2 JSON parsing."""
    _, json_s, binary_s = run_cold_load("gnmt", max(scale, 0.2), sigma=0.0)
    assert binary_s < json_s, f"binary {binary_s:.4f}s vs json {json_s:.4f}s"


if __name__ == "__main__":
    raise SystemExit(main())
