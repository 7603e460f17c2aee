"""Profile-to-profile comparison metrics.

Two views the paper uses to demonstrate iteration heterogeneity and
nearby-SL similarity:

* unique-kernel overlap (Fig 5): of the union of kernel names two
  iterations launch, what fraction is common vs. exclusive to each;
* runtime-share distance (Figs 6 and 8): how far apart two iterations'
  kernel-group runtime distributions are (half L1 distance — total
  variation — so 0 means identical and 1 means disjoint).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiling.profiles import ExecutionProfile
from repro.util.stats import sequential_sum

__all__ = ["KernelOverlap", "kernel_overlap", "runtime_share_distance"]


@dataclass(frozen=True)
class KernelOverlap:
    """Unique-kernel breakdown between two profiles (the Fig 5 bars)."""

    common: int
    only_in_first: int
    only_in_second: int

    @property
    def union(self) -> int:
        return self.common + self.only_in_first + self.only_in_second

    @property
    def common_fraction(self) -> float:
        return self.common / self.union if self.union else 1.0

    @property
    def exclusive_fraction(self) -> float:
        """Fraction of unique kernels present in only one iteration."""
        return 1.0 - self.common_fraction


def kernel_overlap(
    first: ExecutionProfile, second: ExecutionProfile
) -> KernelOverlap:
    """Unique-kernel overlap between two profiles."""
    a = first.unique_kernel_names()
    b = second.unique_kernel_names()
    return KernelOverlap(
        common=len(a & b),
        only_in_first=len(a - b),
        only_in_second=len(b - a),
    )


def runtime_share_distance(
    first: ExecutionProfile, second: ExecutionProfile, by: str = "group"
) -> float:
    """Total-variation distance between runtime distributions.

    ``by="group"`` compares kernel-group shares (the granularity of
    Figs 6 and 8); ``by="kernel"`` compares individual kernel names.
    """
    if by == "group":
        shares_a = first.runtime_share_by_group()
        shares_b = second.runtime_share_by_group()
    elif by == "kernel":
        shares_a = first.runtime_share_by_kernel()
        shares_b = second.runtime_share_by_kernel()
    else:
        raise ValueError(f"by must be 'group' or 'kernel', got {by!r}")
    keys = set(shares_a) | set(shares_b)
    return 0.5 * sequential_sum(
        abs(shares_a.get(key, 0.0) - shares_b.get(key, 0.0)) for key in keys
    )
