"""Compute-side model: work description and achievable issue rate.

A kernel's compute description is its FLOP count, how many work-items it
launches, and an intrinsic issue efficiency (how close a perfectly fed
kernel of this type gets to peak — GEMM inner loops issue denser than
scattered pointwise code).  The model converts CU count, clock, and the
kernel's parallelism into an achievable FLOP rate:

* **occupancy** — a kernel with fewer waves than the machine has wave
  slots cannot fill it; small kernels become latency/launch bound, which
  is what makes short-sequence iterations *less* sensitive to CU count
  and clock in Figs 13/14;
* **tail effect** — the last partially filled round of workgroups
  leaves CUs idle (classic wave-quantisation), which also shrinks as
  sequences grow.

The model is evaluated on whole columns of kernels at once (the
``_batch`` functions below, called by
:func:`~repro.hw.timing.time_work_batch`).  All integer quantities stay
exact in float64: work-item and FLOP counts in the modelled networks
are far below 2**53.  ``tests/reference.py`` keeps the one-kernel
scalar form of every formula as the oracle they are checked against,
bit for bit (tests/test_hw_batch.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig

__all__ = [
    "ComputeProfile",
    "waves_batch",
    "parallel_efficiency_batch",
    "compute_time_batch",
]

#: Waves a CU needs in flight to hide its own pipeline latency.  Below
#: this the kernel cannot reach its issue efficiency even when resident.
_LATENCY_HIDING_WAVES = 4.0


@dataclass(frozen=True)
class ComputeProfile:
    """Compute behaviour of one kernel invocation."""

    flops: float
    work_items: int
    #: Fraction of peak a fully occupied machine reaches on this kernel.
    issue_efficiency: float = 0.7
    #: Work-items per workgroup (tail effects quantise at this size).
    workgroup_size: int = 256

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ConfigurationError("flops cannot be negative")
        if self.work_items <= 0:
            raise ConfigurationError("work_items must be positive")
        if not 0.0 < self.issue_efficiency <= 1.0:
            raise ConfigurationError(
                f"issue_efficiency must lie in (0, 1], got {self.issue_efficiency}"
            )
        if self.workgroup_size <= 0:
            raise ConfigurationError("workgroup_size must be positive")


def waves_batch(work_items: np.ndarray, config: HardwareConfig) -> np.ndarray:
    """Waves each kernel launches (at least one)."""
    return np.maximum(1.0, work_items / config.wave_size)


def parallel_efficiency_batch(
    work_items: np.ndarray,
    workgroup_size: np.ndarray,
    config: HardwareConfig,
) -> np.ndarray:
    """Fraction of the machine each kernel can actually keep busy."""
    # Occupancy: how full are the machine's wave slots?
    wave_slots = config.num_cus * _LATENCY_HIDING_WAVES
    occupancy = np.minimum(1.0, waves_batch(work_items, config) / wave_slots)

    # Tail: the final round of workgroups only fills part of the machine.
    workgroups = np.maximum(1.0, np.ceil(work_items / workgroup_size))
    rounds = np.ceil(workgroups / config.num_cus)
    tail = workgroups / (rounds * config.num_cus)

    return occupancy * tail


def compute_time_batch(
    flops: np.ndarray,
    work_items: np.ndarray,
    issue_efficiency: np.ndarray,
    workgroup_size: np.ndarray,
    config: HardwareConfig,
) -> np.ndarray:
    """Seconds the ALUs need for each kernel on ``config``.

    ``achievable`` is always positive, so a zero-FLOP kernel divides to
    exactly ``+0.0``.
    """
    efficiency = issue_efficiency * parallel_efficiency_batch(
        work_items, workgroup_size, config
    )
    achievable = config.peak_flops * np.maximum(efficiency, 1e-6)
    return flops / achievable
