"""Profiler facade: run chosen iterations and capture their profiles.

Wraps a model + device pair the way a profiling session wraps a
training process.  Profiling is not free: collecting per-kernel
counters replays kernels and serialises the pipeline, inflating wall
time by ``overhead_multiplier`` (GPU profilers commonly cost 5-15x; the
paper's motivation §III calls these "often-significant overheads").

An iteration is profiled from the same compiled plan the analysis
pipeline times: the profiler asks an
:class:`~repro.train.iteration.IterationExecutor` for the shape's
training plan (through the process-wide plan cache), times it with one
:meth:`~repro.hw.device.GpuDevice.run_batch` call, and walks its merged
rows in order.  So a profile's time and counters equal the executor's
result for that shape (host overhead aside).  Each shape is profiled
once per :class:`Profiler`; a repeat returns the same read-only
:class:`IterationProfile`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.counters import CounterSet
from repro.hw.device import GpuDevice
from repro.models.spec import IterationInputs, Model
from repro.profiling.profiles import ExecutionProfile
from repro.train.iteration import IterationExecutor
from repro.util.stats import sequential_sum

__all__ = ["Profiler", "IterationProfile", "DEFAULT_PROFILING_OVERHEAD"]

DEFAULT_PROFILING_OVERHEAD = 8.0


@dataclass(frozen=True)
class IterationProfile:
    """Everything the profiler captures for one iteration.

    The :class:`Profiler` that made it hands the same object to every
    request for its shape, so it is read-only, ``profile`` included.
    """

    inputs: IterationInputs
    time_s: float
    profile: ExecutionProfile
    counters: CounterSet

    @property
    def seq_len(self) -> int:
        return self.inputs.seq_len

    def mean_counters_per_kernel(self) -> dict[str, float]:
        """Counters averaged across kernel launches (the Fig 4 view)."""
        launches = max(self.profile.total_launches, 1)
        return {
            name: value / launches
            for name, value in self.counters.as_dict().items()
        }


class Profiler:
    """Profiles iterations of one model on one device."""

    def __init__(
        self,
        model: Model,
        device: GpuDevice,
        overhead_multiplier: float = DEFAULT_PROFILING_OVERHEAD,
    ):
        if overhead_multiplier < 1.0:
            raise ValueError("profiling cannot be faster than running")
        self.model = model
        self.device = device
        self.overhead_multiplier = overhead_multiplier
        self._executor = IterationExecutor(model, device)
        self._profiles: dict[IterationInputs, IterationProfile] = {}

    def profile_iteration(self, inputs: IterationInputs) -> IterationProfile:
        """Run one training iteration under the profiler (once per shape)."""
        profiled = self._profiles.get(inputs)
        if profiled is None:
            profiled = self._profiles[inputs] = self._profile(inputs)
        return profiled

    def _profile(self, inputs: IterationInputs) -> IterationProfile:
        (plan,) = self._executor.plans_for((inputs,), "train")
        measurement = self.device.run_batch(plan.work)
        times = measurement.time_s.tolist()
        flops = plan.work.flops.tolist()
        profile = ExecutionProfile()
        counters = CounterSet.zero()
        time_s = 0.0
        rows = zip(plan.counts.tolist(), plan.name_id.tolist(), plan.group_id.tolist())
        for row, (count, name_id, group_id) in enumerate(rows):
            profile.record(
                name=plan.names[name_id],
                group=plan.groups[group_id],
                time_s=times[row] * count,
                flops=flops[row] * count,
                launches=count,
            )
            counters = counters + measurement.counters.row(row).scaled(count)
            time_s += times[row] * count
        return IterationProfile(
            inputs=inputs, time_s=time_s, profile=profile, counters=counters
        )

    def profile_seq_len(
        self, seq_len: int, batch: int, tgt_len: int | None = None
    ) -> IterationProfile:
        """Convenience: profile one iteration at a given sequence length."""
        return self.profile_iteration(
            IterationInputs(batch=batch, seq_len=seq_len, tgt_len=tgt_len)
        )

    def profiling_cost_s(self, profiles: list[IterationProfile]) -> float:
        """Wall time spent profiling these iterations."""
        return sequential_sum(p.time_s for p in profiles) * self.overhead_multiplier
