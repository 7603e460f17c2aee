"""Every front door's answer, pinned by digest.

Small answers from each public entry point — analyze, stream (plain
and segmented), traffic (Poisson, bursty with phases, offline), a
serial sweep and one job through the in-process ``ServeApp`` — are
reduced to one SHA-256 each and compared with the committed table in
``tests/fixtures/answer_digests.json``.  A digest hashes ``float.hex``
of every float of the answer's ``to_dict()`` (like
``EXPERIMENTS.digests.json``) and the JSON text of every other leaf, in
sorted-key order, so a one-ulp change anywhere in an answer moves it.

The sensitivity test nudges each continuous constant that feeds an
answer (the training and serving host overheads and one hardware
parameter) by one ulp and checks that the table notices.  An
iteration's time folds up from its host overhead, and a one-ulp
difference in the overhead survives the fold only while the running
total stays near the overhead's magnitude; long iterations round it
away.  So the DS2 analyze answer runs at batch size 4 and the bursty
traffic answer at batch size 2: their short iterations carry the host
and serving overhead nudges into the digests.

Regenerate the table only when published numbers may move::

    PYTHONPATH=src python -m tests.test_answer_digests
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import FunctionType

import pytest

from repro.api import AnalysisEngine, AnalysisSpec, ProjectionSpec, SweepSpec
from repro.api.cache import TraceCache
from repro.hw.config import PAPER_CONFIGS
from repro.serve import ServeApp
from repro.stream.spec import StreamSpec
from repro.traffic.spec import TrafficSpec
from repro.train import inference, iteration

FIXTURE = Path(__file__).parent / "fixtures" / "answer_digests.json"


def _leaves(value, digest) -> None:
    """Feed ``value``'s leaves to ``digest`` in a canonical order."""
    if isinstance(value, dict):
        for key in sorted(value):
            digest.update(json.dumps(key).encode() + b":")
            _leaves(value[key], digest)
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _leaves(item, digest)
        digest.update(b"]")
    elif isinstance(value, float):
        digest.update(float.hex(value).encode("ascii") + b"\n")
    else:
        digest.update(json.dumps(value).encode() + b"\n")


def answer_digest(answer: dict) -> str:
    digest = hashlib.sha256()
    _leaves(answer, digest)
    return digest.hexdigest()


def _serve_job(spec: AnalysisSpec) -> dict:
    """One analyze job through the in-process service, as it answers."""
    app = ServeApp(AnalysisEngine(cache=TraceCache()), workers=1, sweep_mode="serial")
    app.start()
    try:
        _, envelope, _ = app.handle(
            "POST", "/jobs", {"kind": "analyze", "spec": spec.to_dict()}
        )
        job_id = envelope["job"]["id"]
        deadline = time.monotonic() + 60.0
        while True:
            _, envelope, _ = app.handle("GET", f"/jobs/{job_id}")
            state = envelope["job"]["state"]
            if state in ("done", "failed", "cancelled"):
                break
            assert time.monotonic() < deadline, f"job never finished: {envelope}"
            time.sleep(0.005)
        assert state == "done", envelope
        _, envelope, _ = app.handle("GET", f"/jobs/{job_id}/result")
        return envelope["result"]
    finally:
        app.close()


def answers() -> dict[str, dict]:
    """Each front door's small answer, from fresh engines (no shared
    trace cache, so a nudged constant is never served a cached trace)."""
    engine = AnalysisEngine(cache=TraceCache())
    out = {}
    for network, batch_size in (("gnmt", 64), ("ds2", 4)):
        out[f"analyze:{network}"] = engine.run(
            AnalysisSpec(network=network, scale=0.01, batch_size=batch_size),
            ProjectionSpec(targets=(1, 3)),
        ).to_dict()
    out["stream:gnmt"] = engine.run_streaming(
        StreamSpec(analysis=AnalysisSpec(network="gnmt", scale=0.01), cadence=16)
    ).to_dict()
    out["stream:ds2-segmented"] = engine.run_streaming(
        StreamSpec(
            analysis=AnalysisSpec(network="ds2", scale=0.01, selector="segmented"),
            cadence=16,
        )
    ).to_dict()
    gnmt = AnalysisSpec(network="gnmt", scale=0.01)
    out["traffic:poisson"] = engine.run_traffic(
        TrafficSpec(analysis=gnmt, requests=96, rate=400.0, targets=(2,))
    ).to_dict()
    out["traffic:bursty-phases"] = engine.run_traffic(
        TrafficSpec(
            analysis=replace(gnmt, batch_size=2),
            arrival="bursty",
            requests=128,
            rate=400.0,
            phases=(
                {"fraction": 0.5, "quantile_hi": 0.55},
                {"fraction": 0.5, "quantile_lo": 0.45},
            ),
        )
    ).to_dict()
    out["traffic:offline"] = engine.run_traffic(
        TrafficSpec(
            analysis=AnalysisSpec(network="ds2", scale=0.01),
            arrival="offline",
            requests=64,
            targets=(1, 3),
        )
    ).to_dict()
    out["sweep:serial"] = engine.run_sweep(
        SweepSpec(networks=("gnmt",), scales=(0.01,), seeds=(0, 1)),
        mode="serial",
    ).to_dict()
    out["serve:analyze"] = _serve_job(AnalysisSpec(network="ds2", scale=0.01, seed=2))
    return out


def digests() -> dict[str, str]:
    return {name: answer_digest(answer) for name, answer in answers().items()}


def test_answers_match_committed_digests():
    assert digests() == json.loads(FIXTURE.read_text())


def _nudge_defaults(monkeypatch, module, name: str) -> None:
    """Raise ``module.name`` by one ulp, and every function default in
    ``repro`` bound to it (defaults are bound when the module loads)."""
    constant = getattr(module, name)
    nudged = math.nextafter(constant, math.inf)
    monkeypatch.setattr(module, name, nudged)
    rebound = 0
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        owners = [loaded] + [v for v in vars(loaded).values() if isinstance(v, type)]
        for owner in owners:
            for function in vars(owner).values():
                defaults = getattr(function, "__defaults__", None)
                if isinstance(function, FunctionType) and defaults and any(
                    default is constant for default in defaults
                ):
                    monkeypatch.setattr(
                        function,
                        "__defaults__",
                        tuple(nudged if d is constant else d for d in defaults),
                    )
                    rebound += 1
    assert rebound, f"no default bound to {name}"


@pytest.mark.parametrize(
    "nudge", ["host_overhead", "serving_overhead", "dram_bandwidth"]
)
def test_one_ulp_nudge_moves_a_digest(monkeypatch, nudge):
    """A digest table that misses a one-ulp change to a constant every
    answer depends on would let that constant drift unseen."""
    if nudge == "host_overhead":
        _nudge_defaults(monkeypatch, iteration, "DEFAULT_HOST_OVERHEAD_S")
    elif nudge == "serving_overhead":
        _nudge_defaults(monkeypatch, inference, "DEFAULT_SERVING_OVERHEAD_S")
    else:
        config = PAPER_CONFIGS[1]
        monkeypatch.setitem(
            PAPER_CONFIGS,
            1,
            replace(config, dram_bandwidth=math.nextafter(config.dram_bandwidth, math.inf)),
        )
    committed = json.loads(FIXTURE.read_text())
    moved = [name for name, digest in digests().items() if digest != committed[name]]
    assert moved, nudge


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
