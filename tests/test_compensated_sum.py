"""The answers must not depend on the Python version's float ``sum()``.

Python 3.12 made builtin ``sum()`` over floats compensated (Neumaier):
``sum([0.1] * 10)`` is ``1.0`` there and ``0.9999999999999999`` on
3.11.  The published numbers (``EXPERIMENTS.md``, the benchmark's
answer digests) come from a plain left fold, so every float total that
reaches an answer must be an explicit left fold, never ``sum()``.

``compensated_sum`` emulates 3.12's ``sum`` in pure Python, so this
check runs on any version: the JSON answers of small analyze, stream,
traffic and serial sweep specs must be the same with and without it
installed as ``builtins.sum``.
"""

from __future__ import annotations

import builtins
import json
import math

import pytest

from repro.api import AnalysisEngine, AnalysisSpec, ProjectionSpec, SweepSpec
from repro.api.cache import TraceCache
from repro.kernels import clear_lowering_caches
from repro.models.plan import PLAN_CACHE
from repro.stream.spec import StreamSpec
from repro.traffic.spec import TrafficSpec


def _add_compensated(total: float, c: float, x: float) -> tuple[float, float]:
    """One Neumaier step: the new running total and compensation."""
    t = total + x
    if abs(total) >= abs(x):
        c += (total - t) + x
    else:
        c += (x - t) + total
    return t, c


def compensated_sum(iterable, /, start=0):
    """An emulation of Python 3.12's builtin ``sum``.

    Exact ints (and bools) add exactly.  Once the running result is an
    exact ``float``, exact float items add with Neumaier compensation,
    and the compensation joins the total at the end only when it is
    finite (so an overflowed sum stays infinite rather than NaN).  Any
    other item type (numpy scalars included) adds plainly, as it does
    in CPython's generic path.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                total, c = _add_compensated(total, c, item)
            elif type(item) in (int, bool):
                total += float(item)
            else:
                if c and math.isfinite(c):
                    total += c
                result = total + item
                break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result


@pytest.fixture
def python312_sum(monkeypatch):
    """Install ``compensated_sum`` as ``builtins.sum`` for one test."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0
    assert sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert sum([1e308, 1e308]) == math.inf
    assert sum([2**62, 2**62, 2**62]) == 3 * 2**62
    assert sum([]) == 0 and type(sum([])) is int
    yield


def fresh_answers() -> str:
    """The JSON answers of five small specs, simulated from cold."""
    PLAN_CACHE.clear()
    clear_lowering_caches()
    engine = AnalysisEngine(cache=TraceCache())
    answers = {}
    for network in ("gnmt", "ds2"):
        spec = AnalysisSpec(network=network, scale=0.05, seed=1)
        answers[f"analyze:{network}"] = engine.run(
            spec, ProjectionSpec(targets=(2,))
        ).to_dict()
    answers["stream"] = engine.run_streaming(
        StreamSpec(
            analysis=AnalysisSpec(network="ds2", scale=0.05, selector="segmented"),
            cadence=16,
        )
    ).to_dict()
    answers["traffic"] = engine.run_traffic(
        TrafficSpec(
            analysis=AnalysisSpec(network="gnmt", scale=0.02),
            requests=96,
            rate=400.0,
            targets=(2,),
        )
    ).to_dict()
    answers["sweep"] = engine.run_sweep(
        SweepSpec(networks=("gnmt",), scales=(0.02,), seeds=(0, 1)),
        mode="serial",
    ).to_dict()
    return json.dumps(answers, sort_keys=True)


@pytest.fixture(scope="module")
def plain_answers() -> str:
    return fresh_answers()


def test_answers_do_not_move_under_python312_sum(plain_answers, python312_sum):
    assert fresh_answers() == plain_answers
