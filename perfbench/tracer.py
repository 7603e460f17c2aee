"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces chosen ``repro`` callables with wrappers that
time each call on a span stack.  A span's self time is its duration
minus the time its child spans cover, so nested layers (lowering inside
an epoch inside ``engine.run``) are never counted twice.  Calls of a
span nested directly in a span of the same name (``lower_iteration``
calling ``lower_forward``) count once.  Totals stay in memory until the
run ends; nothing in ``src/`` changes.

Each target is patched where callers look it up: a method on its class,
a function in the module namespace its caller reads at call time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from collections.abc import Callable

#: (span name, module, attribute path).  One name may cover several
#: callables; the first path segment may be a class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("data.resolve", "repro.api.engine", "AnalysisEngine.resolve"),
    ("data.plan_epoch", "repro.data.batching", "BatchingPolicy.plan_epoch_columns"),
    ("models.lower", "repro.models.gnmt", "GnmtModel.lower_iteration"),
    ("models.lower", "repro.models.gnmt", "GnmtModel.lower_forward"),
    ("models.lower", "repro.models.sequential", "SequentialModel.lower_iteration"),
    ("models.lower", "repro.models.sequential", "SequentialModel.lower_forward"),
    ("plan.compile", "repro.train.iteration", "compile_plan"),
    # Autotuner.charge runs ~50k times per cold op, almost all of them
    # a set lookup for an already-tuned shape; a wrapper on each call
    # would dominate the tracing overhead.  Its tuning work is the
    # candidate race below, ~5k calls per op.
    ("kernels.autotune", "repro.kernels.autotune", "Autotuner._charge_batched"),
    ("hw.run_batch", "repro.hw.device", "GpuDevice.run_batch"),
    ("train.epoch", "repro.train.runner", "TrainingRunSimulator.run_epoch_frame"),
    ("cache.put", "repro.api.cache", "TraceCache.put"),
    ("core.select", "repro.core.seqpoint", "SeqPointSelector.select"),
    ("core.project", "repro.api.engine", "project_epoch_time"),
    ("core.project", "repro.api.engine", "project_throughput"),
    ("core.project", "repro.core.projection", "project_total"),
    ("stream.absorb", "repro.stream.stats", "StreamingSlStatistics.absorb_frame"),
    ("stream.check", "repro.stream.identifier", "IdentificationSession._check"),
    ("segments.select", "repro.stream.segments", "SegmentedSelector.select"),
    ("segments.detect", "repro.stream.segments", "StreamSegmenter.observe"),
    ("traffic.sample", "repro.traffic.workload", "sample_requests"),
    ("traffic.arrivals", "repro.traffic.arrivals", "PoissonArrivals.times"),
    ("traffic.form", "repro.traffic.batcher", "form_batches"),
    ("traffic.serve", "repro.traffic.simulator", "TrafficSimulator.serve"),
)


def _count_rows(args: tuple, counts: dict[str, float]) -> None:
    """``GpuDevice.run_batch(self, work)``: kernel rows timed."""
    counts["hw.rows"] += len(args[1].flops)


def _count_shapes(args: tuple, counts: dict[str, float]) -> None:
    """``TrafficSimulator.serve(self, requests, arrival_s, batches)``."""
    batches = args[3]
    shapes = {(len(batch), batch.seq_len, batch.tgt_len) for batch in batches}
    counts["traffic.batches"] += len(batches)
    counts["traffic.shapes"] += len(shapes)


#: Span name -> hook adding work counts from a call's arguments.
COUNTERS: dict[str, Callable[[tuple, dict[str, float]], None]] = {
    "hw.run_batch": _count_rows,
    "traffic.serve": _count_shapes,
}


class Tracer:
    """Self time and calls per span name, from wrapped callables.

    Single-threaded by design: the closed-loop workloads drive the
    library from one thread.  The benchmark installs the wrappers
    around single ops only, so its own checks stay out of the totals.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Open spans: [name, seconds covered by child spans].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            nested = bool(stack) and stack[-1][0] == name
            span = [name, 0.0]
            stack.append(span)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                tracer.self_s[name] += elapsed - span[1]
                if not nested:
                    tracer.calls[name] += 1
                    if count is not None:
                        count(args, tracer.counts)
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores them."""
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # Read the raw attribute so methods stay plain functions.
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_ms(self, name: str) -> float:
        return 1e3 * self.self_s.get(name, 0.0)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
