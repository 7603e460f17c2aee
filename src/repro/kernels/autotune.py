"""Autotune-phase model.

High-level frameworks benchmark every candidate kernel the first time a
new problem shape appears and cache the winner (paper §IV-C2).  For
CNNs that happens once, in the first iteration; for SQNNs new shapes
keep appearing throughout the first *epoch* because every new sequence
length brings new GEMM sizes.

:class:`Autotuner` charges one epoch at a time and holds no state: an
epoch costs the time spent trying every candidate of each GEMM problem
that no earlier epoch of the run launched.  The training simulator adds
it to the epoch's trace and the SeqPoint pipeline ignores it, as the
paper prescribes (Key point: autotune runs once, so representative runs
exclude it).

The charge is one array pass: each new problem's row of the candidate
race (:func:`repro.kernels.gemm.candidate_times`, read from the race
memo), a problems x variants prune mask, one left fold along the
variants and one over the problems.  Pruned cells add exactly ``0.0``,
so each cost is bit-identical to the per-candidate loop that
``tests/reference.py`` keeps and tests/test_plan_equivalence.py
compares against.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.hw.config import HardwareConfig
from repro.kernels.gemm import GEMM_VARIANTS, _TILE_M, _TILE_N, candidate_times
from repro.util.stats import sequential_sum

__all__ = ["Autotuner"]

#: Candidates are timed once each; libraries prune grossly oversized
#: tiles before ever launching them.
_TRIALS_PER_VARIANT = 1
_PRUNE_FACTOR = 4

Problem = tuple[int, int, int]


class Autotuner:
    """Autotune accounting on one device config."""

    def __init__(self, config: HardwareConfig):
        self._config = config

    def epoch_cost(self, launches: Iterable[Problem], tuned: set[Problem]) -> float:
        """Autotune time of one epoch.

        ``launches`` are the epoch's GEMM problems ``(m, n, k)`` in
        launch order, repeats included; ``tuned`` holds the problems
        earlier epochs of the run launched, which cost nothing again.
        The epoch's new problems are added to ``tuned``, so one set
        passed through a run's epochs in order charges each problem
        once.
        """
        return self._charge_batched(launches, tuned)

    def _charge_batched(self, launches: Iterable[Problem], tuned: set[Problem]) -> float:
        """The whole charge in one call: dedupe, memo reads, mask, folds."""
        new = [problem for problem in dict.fromkeys(launches) if problem not in tuned]
        if not new:
            return 0.0
        tuned.update(new)
        return sequential_sum(self.problem_costs(new))

    def problem_costs(self, problems: list[Problem]) -> np.ndarray:
        """Tuning time of each problem: its tried candidates' times,
        left-folded in :data:`GEMM_VARIANTS` order.

        A library tries the variants whose tiles are at most
        ``_PRUNE_FACTOR`` times the problem's ``m`` and ``n``, and the
        last variant when none qualifies.
        """
        config = self._config
        times = np.array(
            [candidate_times(m, n, k, config) for m, n, k in problems]
        ).reshape(-1, len(GEMM_VARIANTS))
        dims = np.array(problems, dtype=np.int64).reshape(-1, 3)
        tried = (_TILE_M <= dims[:, :1] * _PRUNE_FACTOR) & (
            _TILE_N <= dims[:, 1:2] * _PRUNE_FACTOR
        )
        tried[~tried.any(axis=1), -1] = True
        return np.cumsum(
            np.where(tried, times * _TRIALS_PER_VARIANT, 0.0), axis=1
        )[:, -1]
