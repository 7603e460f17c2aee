"""Analytical GPU performance model.

This package stands in for the paper's hardware substrate: an AMD Radeon
Vega Frontier Edition GPU profiled with the Radeon Compute Profiler.  It
is *not* a cycle-accurate simulator; it is a calibrated analytical model
(roofline compute/memory bounds, capacity-based cache hit rates, launch
and latency overheads) that times whole columns of kernel invocations
at once and produces, for every one:

* a runtime that responds to the Table II knobs — GPU clock, CU count,
  L1 presence, L2 presence — with sensitivities that depend on the
  kernel's arithmetic intensity, parallelism, and working-set sizes; and
* the performance counters the paper reports (VALU instructions, DRAM
  fetch/write traffic, memory write stalls).

That is exactly the surface SeqPoint consumes, which is why this
substitution preserves the paper's behaviour (the README's
"Architecture" section traces a kernel from lowering to this model).
"""

from repro.hw.config import (
    HardwareConfig,
    PAPER_CONFIGS,
    VEGA_FE,
    paper_config,
)
from repro.hw.counters import CounterSet
from repro.hw.device import GpuDevice

__all__ = [
    "HardwareConfig",
    "PAPER_CONFIGS",
    "VEGA_FE",
    "paper_config",
    "CounterSet",
    "GpuDevice",
]
