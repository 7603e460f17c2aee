"""Stateful test (hypothesis): one answer per spec, whatever the cache
history.

An engine whose trace cache holds one entry evicts on almost every
call, so it re-simulates traces through the runners it has already
used.  Every trace it returns must equal a fresh engine's trace,
autotune time included, and every analysis must serialise to a fresh
engine's JSON.
"""

from __future__ import annotations

import functools

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.api import AnalysisEngine, AnalysisSpec, ProjectionSpec
from repro.api.cache import TraceCache
from tests.reference import assert_traces_bit_identical

SPECS = tuple(
    AnalysisSpec(network=network, scale=0.01, seed=seed)
    for network in ("gnmt", "ds2")
    for seed in (0, 1)
)
PROJECTION = ProjectionSpec(targets=(3,))


@functools.cache
def fresh_trace(spec: AnalysisSpec):
    return AnalysisEngine().trace_for(spec)


@functools.cache
def fresh_answer(spec: AnalysisSpec) -> dict:
    return AnalysisEngine().run(spec, PROJECTION).to_dict()


class BoundedCacheEngine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = AnalysisEngine(cache=TraceCache(max_entries=1))

    @rule(spec=st.sampled_from(SPECS))
    def trace_for(self, spec):
        assert_traces_bit_identical(self.engine.trace_for(spec), fresh_trace(spec))

    @rule(spec=st.sampled_from(SPECS))
    def run(self, spec):
        assert self.engine.run(spec, PROJECTION).to_dict() == fresh_answer(spec)


BoundedCacheEngine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=10, deadline=None
)
TestBoundedCacheEngine = BoundedCacheEngine.TestCase
