"""Hardware configurations, including the paper's Table II.

The baseline models a Radeon Vega Frontier Edition: 64 compute units at
1.6 GHz, 16 KiB L1 per CU, 4 MiB shared L2, and 16 GB HBM2 at roughly
483 GB/s.  Table II of the paper derives four variants by halving the
clock, cutting CUs to 16, and disabling L1 or L2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace

from repro.errors import ConfigurationError
from repro.util.units import GHZ, KIB, MHZ, MIB, format_frequency

__all__ = ["HardwareConfig", "VEGA_FE", "PAPER_CONFIGS", "paper_config"]


@dataclass(frozen=True)
class HardwareConfig:
    """A GPU configuration point.

    Attributes mirror the knobs the paper varies (Table II) plus the
    fixed machine parameters the timing model needs.  ``l1_bytes`` and
    ``l2_bytes`` of zero mean the cache is disabled, as in configs #4
    and #5.
    """

    name: str
    gclk_hz: float = 1.6 * GHZ
    num_cus: int = 64
    l1_bytes: int = 16 * KIB
    l2_bytes: int = 4 * MIB
    dram_bandwidth: float = 483e9
    #: FP32 FMA lanes per CU (GCN: 64 lanes, 2 flops per FMA per clock).
    simd_lanes: int = 64
    flops_per_lane_per_clk: float = 2.0
    #: Wavefront width; work-items are scheduled in waves of this size.
    wave_size: int = 64
    #: Maximum concurrently resident waves per CU (occupancy ceiling).
    max_waves_per_cu: int = 40
    #: L1 and L2 bandwidth per clock, bytes (device-wide for L2,
    #: per-CU for L1).
    l1_bytes_per_clk_per_cu: float = 64.0
    l2_bytes_per_clk: float = 1024.0
    #: Fixed host-side launch cost per kernel, seconds.
    kernel_launch_s: float = 4.0e-6
    #: Average DRAM and L2 access latencies, cycles at ``gclk_hz``.
    dram_latency_cycles: float = 560.0
    l2_latency_cycles: float = 190.0
    l1_latency_cycles: float = 28.0

    def __post_init__(self) -> None:
        if self.gclk_hz <= 0:
            raise ConfigurationError(f"{self.name}: gclk_hz must be positive")
        if self.num_cus <= 0:
            raise ConfigurationError(f"{self.name}: num_cus must be positive")
        if self.l1_bytes < 0 or self.l2_bytes < 0:
            raise ConfigurationError(f"{self.name}: cache sizes cannot be negative")
        if self.dram_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: dram_bandwidth must be positive")

    def __hash__(self) -> int:
        # Configs key every kernel-selection memo and the plan cache, and
        # the generated hash tuples all 17 fields per lookup — cache it
        # (instances are frozen).  Matches the generated hash: the
        # tuple of all fields, in declaration order.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                tuple(getattr(self, field.name) for field in dataclass_fields(self))
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # Hash salting is per process: drop the cache when pickled.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def peak_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s."""
        return (
            self.num_cus
            * self.simd_lanes
            * self.flops_per_lane_per_clk
            * self.gclk_hz
        )

    @property
    def l1_bandwidth(self) -> float:
        """Aggregate L1 bandwidth, bytes/s (0 when L1 is disabled)."""
        if self.l1_bytes == 0:
            return 0.0
        return self.l1_bytes_per_clk_per_cu * self.num_cus * self.gclk_hz

    @property
    def l2_bandwidth(self) -> float:
        """Device L2 bandwidth, bytes/s (0 when L2 is disabled)."""
        if self.l2_bytes == 0:
            return 0.0
        return self.l2_bytes_per_clk * self.gclk_hz

    @property
    def l1_enabled(self) -> bool:
        return self.l1_bytes > 0

    @property
    def l2_enabled(self) -> bool:
        return self.l2_bytes > 0

    def describe(self) -> str:
        """One-line human-readable summary (for harness output)."""
        l1 = f"{self.l1_bytes // KIB} KiB" if self.l1_enabled else "off"
        l2 = f"{self.l2_bytes // MIB} MiB" if self.l2_enabled else "off"
        return (
            f"{self.name}: {format_frequency(self.gclk_hz)}, "
            f"{self.num_cus} CUs, L1 {l1}, L2 {l2}"
        )


#: Baseline machine — the paper's config #1.
VEGA_FE = HardwareConfig(name="config#1")

#: Table II of the paper: the five evaluated configurations.
PAPER_CONFIGS: dict[int, HardwareConfig] = {
    1: VEGA_FE,
    2: replace(VEGA_FE, name="config#2", gclk_hz=852 * MHZ),
    3: replace(VEGA_FE, name="config#3", num_cus=16),
    4: replace(VEGA_FE, name="config#4", l1_bytes=0),
    5: replace(VEGA_FE, name="config#5", l2_bytes=0),
}


def paper_config(index: int) -> HardwareConfig:
    """Return Table II config ``index`` (1-5)."""
    try:
        return PAPER_CONFIGS[index]
    except KeyError:
        raise ConfigurationError(
            f"paper configs are numbered 1-5, got {index}"
        ) from None
