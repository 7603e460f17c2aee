"""Profiler facade: run chosen iterations and capture their profiles.

Wraps a model + device pair the way a profiling session wraps a
training process.  Profiling is not free: collecting per-kernel
counters replays kernels and serialises the pipeline, inflating wall
time by ``overhead_multiplier`` (GPU profilers commonly cost 5-15x; the
paper's motivation §III calls these "often-significant overheads").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.counters import CounterSet
from repro.hw.device import GpuDevice
from repro.models.spec import IterationInputs, Model
from repro.profiling.profiles import ExecutionProfile
from repro.util.stats import sequential_sum

__all__ = ["Profiler", "IterationProfile", "DEFAULT_PROFILING_OVERHEAD"]

DEFAULT_PROFILING_OVERHEAD = 8.0


@dataclass(frozen=True)
class IterationProfile:
    """Everything the profiler captures for one iteration."""

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

    def profile_iteration(self, inputs: IterationInputs) -> IterationProfile:
        """Run one training iteration under the profiler."""
        schedule = self.model.lower_iteration(inputs, self.device.config)
        profile = ExecutionProfile()
        counters = CounterSet.zero()
        time_s = 0.0
        for invocation, count in schedule.merged():
            measurement = self.device.run(invocation.work)
            profile.record(
                name=invocation.name,
                group=invocation.group,
                time_s=measurement.time_s * count,
                flops=invocation.flops * count,
                launches=count,
            )
            counters = counters + measurement.counters.scaled(count)
            time_s += measurement.time_s * count
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
