"""The answers must not depend on the Python version's float ``sum()``.

Python 3.12 made builtin ``sum()`` over floats compensated (Neumaier):
``sum([0.1] * 10)`` is ``1.0`` there and ``0.9999999999999999`` on
3.11.  The published numbers (``EXPERIMENTS.md``, the benchmark's
answer digests) come from a plain left fold, so every float total that
reaches an answer must be an explicit left fold, never ``sum()``.

``compensated_sum`` emulates 3.12's ``sum`` in pure Python, so this
check runs on any version: the JSON answers of small analyze, stream,
traffic and serial sweep specs must be the same with and without it
installed as ``builtins.sum``.  On 3.12 and later a second test checks
the emulation against the builtin itself on random inputs.
"""

from __future__ import annotations

import builtins
import json
import math
import random
import struct
import sys

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


#: The range of a C ``long``, which bounds CPython's exact-int fast paths.
_LONG_MAX = 2 ** (8 * struct.calcsize("l") - 1) - 1
_LONG_MIN = -_LONG_MAX - 1


def _fits_long(value: int) -> bool:
    return _LONG_MIN <= value <= _LONG_MAX


def compensated_sum(iterable, /, start=0):
    """An emulation of Python 3.12's builtin ``sum``.

    While the running result is an exact ``int`` within a C long, exact
    int (and bool) items that keep it there add exactly.  Once it is an
    exact ``float``, exact float items add with Neumaier compensation,
    and int items within a C long add as floats; the compensation joins
    the total at the end only when it is finite (so an overflowed sum
    stays infinite rather than NaN).  The first item that leaves a fast
    path (a float total meeting a numpy scalar or a huge int, an int
    total overflowing a C long) is added plainly, and so is every item
    after it, as in CPython's generic path.
    """
    items = iter(iterable)
    result = start
    if type(result) is int and _fits_long(result):
        for item in items:
            if type(item) in (int, bool) and _fits_long(item) and _fits_long(result + item):
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                total, c = _add_compensated(total, c, item)
            elif isinstance(item, int) and _fits_long(item):
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


def random_cases(rng: random.Random, count: int):
    """``(items, start)`` pairs on which a compensated sum and a left
    fold often differ: floats of mixed sign and magnitude, ints on both
    sides of a C long, bools, and overflowing or non-finite floats."""
    for _ in range(count):
        items = []
        for _ in range(rng.randrange(12)):
            roll = rng.random()
            if roll < 0.55:
                items.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-30, 30))
            elif roll < 0.65:
                items.append(rng.choice((0.1, 0.2, 0.3, -0.0)))
            elif roll < 0.8:
                items.append(rng.randrange(-(2**70), 2**70) >> rng.randrange(70))
            elif roll < 0.85:
                items.append(rng.random() < 0.5)
            elif roll < 0.95:
                items.append(rng.choice((1.0, -1.0)) * rng.uniform(1e307, 1.7e308))
            else:
                items.append(rng.choice((math.inf, -math.inf, math.nan)))
        yield items, rng.choice((0, 0.0, -0.0, 1, 2**63, 1e16))


def same_value(left, right) -> bool:
    """Equal type and value, NaN matching NaN and zeros their sign."""
    if type(left) is not type(right):
        return False
    if type(left) is float:
        if math.isnan(left):
            return math.isnan(right)
        return left == right and math.copysign(1.0, left) == math.copysign(1.0, right)
    return left == right


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="builtin sum() compensates floats from 3.12 on"
)
def test_emulation_matches_builtin_sum():
    mismatches = [
        (items, start)
        for items, start in random_cases(random.Random(312), 20_000)
        if not same_value(compensated_sum(items, start), sum(items, start))
    ]
    assert not mismatches, mismatches[:3]
