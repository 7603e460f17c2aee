"""Autotune-phase model.

High-level frameworks benchmark every candidate kernel the first time a
new problem shape appears and cache the winner (paper §IV-C2).  For
CNNs that happens once, in the first iteration; for SQNNs new shapes
keep appearing throughout the first *epoch* because every new sequence
length brings new GEMM sizes.

:class:`Autotuner` reproduces both the cost and the once-only behaviour:
``charge(shape)`` returns the time spent trying all variants the first
time a shape is seen and zero afterwards.  The training simulator adds
that cost to the first epoch and the SeqPoint pipeline ignores it, as
the paper prescribes (Key point: autotune runs once, so representative
runs exclude it).

A charge reads the shape's row of the candidate race
(:func:`repro.kernels.gemm.candidate_times`) instead of materialising
and timing each candidate invocation, and sums the pruned candidates
left to right.  The cost is bit-identical to that per-candidate loop,
which ``tests/reference.py`` keeps and tests/test_plan_equivalence.py
compares against.
"""

from __future__ import annotations

from repro.hw.config import HardwareConfig
from repro.kernels.gemm import GEMM_VARIANTS, candidate_times
from repro.util.stats import sequential_sum

__all__ = ["Autotuner"]

#: Candidates are timed once each; libraries prune grossly oversized
#: tiles before ever launching them.
_TRIALS_PER_VARIANT = 1
_PRUNE_FACTOR = 4


def _candidate_indices(m: int, n: int) -> list[int]:
    """Indices into :data:`GEMM_VARIANTS` a library would try here."""
    feasible = [
        index
        for index, variant in enumerate(GEMM_VARIANTS)
        if variant.tile_m <= m * _PRUNE_FACTOR
        and variant.tile_n <= n * _PRUNE_FACTOR
    ]
    return feasible or [len(GEMM_VARIANTS) - 1]


class Autotuner:
    """Tracks which GEMM shapes have been tuned on one device config."""

    def __init__(self, config: HardwareConfig):
        self._config = config
        self._tuned: set[tuple[int, int, int]] = set()
        self._total_cost_s = 0.0

    @property
    def total_cost_s(self) -> float:
        """Cumulative autotune time charged so far."""
        return self._total_cost_s

    @property
    def shapes_tuned(self) -> int:
        return len(self._tuned)

    def charge(self, m: int, n: int, k: int) -> float:
        """Cost of tuning this shape now (0 if already tuned)."""
        shape = (m, n, k)
        if shape in self._tuned:
            return 0.0
        self._tuned.add(shape)
        cost = self._charge_batched(m, n, k)
        self._total_cost_s += cost
        return cost

    def _charge_batched(self, m: int, n: int, k: int) -> float:
        """One race over all variants, then the pruned subset
        accumulated left to right."""
        times = candidate_times(m, n, k, self._config)
        return sequential_sum(times[_candidate_indices(m, n)] * _TRIALS_PER_VARIANT)

    def reset(self) -> None:
        """Forget all tuned shapes (a fresh process/training run)."""
        self._tuned.clear()
        self._total_cost_s = 0.0
