"""Fig 4: architectural statistics differ across SQNN iterations.

Four representative iterations per network (spread across the SL
range), three per-kernel-average counters each — memory write stalls,
VALU instructions, load (DRAM read) size — normalised to the first
iteration, as the paper's bar chart is.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.setups import BATCH_SIZE, scenario
from repro.hw.config import paper_config
from repro.hw.device import GpuDevice
from repro.profiling.profiler import Profiler
from repro.util.stats import mean

__all__ = ["run", "representative_seq_lens"]

_COUNTERS = ("write_stall_cycles", "valu_insts", "dram_read_bytes")


def representative_seq_lens(network: str, scale: float = 1.0) -> list[int]:
    """Four SLs spread across the network's observed range."""
    lengths = sorted(
        {sample.length for sample in scenario(network, scale).train_data.samples}
    )
    quartiles = [0.08, 0.35, 0.65, 0.95]
    return [lengths[int(q * (len(lengths) - 1))] for q in quartiles]


def run(scale: float = 1.0) -> ExperimentResult:
    device = GpuDevice(paper_config(1))
    rows: list[list[object]] = []
    notes: list[str] = []
    for network in ("ds2", "gnmt"):
        profiler = Profiler(scenario(network, scale).model, device)
        baselines: dict[str, float] = {}
        per_iter: list[list[float]] = []
        for index, seq_len in enumerate(representative_seq_lens(network, scale)):
            profile = profiler.profile_seq_len(seq_len, batch=BATCH_SIZE)
            means = profile.mean_counters_per_kernel()
            if not baselines:
                baselines = {c: means[c] for c in _COUNTERS}
            normalised = [means[c] / baselines[c] for c in _COUNTERS]
            per_iter.append(normalised)
            rows.append(
                [network, f"iter-{index + 1}", seq_len]
                + [round(v, 3) for v in normalised]
            )
        spreads = [
            (max(col) - min(col)) / mean(col) * 100
            for col in zip(*per_iter)
        ]
        notes.append(
            f"{network}: counter variation across iterations — "
            + ", ".join(
                f"{name}={spread:.0f}%" for name, spread in zip(_COUNTERS, spreads)
            )
        )
    notes.append("paper: statistics differ by ~24-27% across iterations")
    return ExperimentResult(
        experiment_id="fig04",
        title="Architectural statistics of four representative iterations "
        "(normalized to iter-1)",
        headers=["network", "iteration", "seq_len", "write_stalls", "valu", "load"],
        rows=rows,
        notes=notes,
    )
