"""Execution profiles: what a kernel-level profiler reports.

The paper defines an iteration's *execution profile* as "the
distribution of invoked kernels and their runtimes" (§IV-A).
:class:`ExecutionProfile` is exactly that: per-kernel-name launch
counts and device time, with helpers for the share-of-runtime views the
figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.util.stats import sequential_sum

__all__ = ["KernelStat", "ExecutionProfile"]


@dataclass
class KernelStat:
    """Aggregate statistics of one kernel name within a profile."""

    name: str
    group: str
    launches: int = 0
    time_s: float = 0.0
    flops: float = 0.0

    def add(self, time_s: float, flops: float, launches: int = 1) -> None:
        self.launches += launches
        self.time_s += time_s
        self.flops += flops


@dataclass
class ExecutionProfile:
    """Kernel distribution of one iteration (or aggregate of several).

    Entries are keyed by ``(kernel name, group)`` because one compiled
    kernel can serve several logical roles (the same GEMM variant runs
    both recurrent and batched projections); unique-kernel statistics
    (Fig 5) collapse back to names, as a real profiler would see them.
    """

    kernels: dict[tuple[str, str], KernelStat] = field(default_factory=dict)

    def record(
        self, name: str, group: str, time_s: float, flops: float, launches: int = 1
    ) -> None:
        key = (name, group)
        stat = self.kernels.get(key)
        if stat is None:
            stat = KernelStat(name=name, group=group)
            self.kernels[key] = stat
        stat.add(time_s=time_s, flops=flops, launches=launches)

    @property
    def total_time_s(self) -> float:
        return sequential_sum(stat.time_s for stat in self.kernels.values())

    @property
    def total_launches(self) -> int:
        return sum(stat.launches for stat in self.kernels.values())

    def unique_kernel_names(self) -> frozenset[str]:
        return frozenset(stat.name for stat in self.kernels.values())

    def runtime_share_by_group(self) -> dict[str, float]:
        """Fraction of device time per kernel group (Fig 6 / Fig 8)."""
        total = self.total_time_s
        if total <= 0:
            raise TraceError("profile has no device time")
        shares: dict[str, float] = {}
        for stat in self.kernels.values():
            shares[stat.group] = shares.get(stat.group, 0.0) + stat.time_s / total
        return shares

    def runtime_share_by_kernel(self) -> dict[str, float]:
        """Fraction of device time per kernel name."""
        total = self.total_time_s
        if total <= 0:
            raise TraceError("profile has no device time")
        shares: dict[str, float] = {}
        for stat in self.kernels.values():
            shares[stat.name] = shares.get(stat.name, 0.0) + stat.time_s / total
        return shares

    def top_kernels(self, count: int = 10) -> list[KernelStat]:
        """The heaviest kernels by device time."""
        ranked = sorted(
            self.kernels.values(), key=lambda stat: stat.time_s, reverse=True
        )
        return ranked[:count]
