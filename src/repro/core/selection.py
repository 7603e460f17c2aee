"""Selection containers shared by SeqPoint and every baseline.

A :class:`Selection` is a named set of weighted representative
iterations.  Projections (:mod:`repro.core.projection`) operate on this
type uniformly, so SeqPoint, ``frequent``, ``median``, ``worst``,
``prior``, and the k-means ablation are directly comparable — the
structure of the paper's Figs 11/12/15/16.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.binning import Bin
from repro.errors import SelectionError
from repro.train.trace import IterationRecord
from repro.util.stats import sequential_sum

__all__ = ["SelectedPoint", "Selection", "select_from_bin"]


@dataclass(frozen=True)
class SelectedPoint:
    """One representative iteration with its projection weight.

    ``weight`` is in iterations: the number of epoch iterations this
    point stands for.  Equation 1 of the paper is then
    ``sum(point.weight * stat(point))``.
    """

    record: IterationRecord
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise SelectionError(
                f"weight must be positive, got {self.weight} "
                f"for SL {self.record.seq_len}"
            )

    @property
    def seq_len(self) -> int:
        return self.record.seq_len

    @property
    def tgt_len(self) -> int | None:
        return self.record.tgt_len


@dataclass(frozen=True)
class Selection:
    """A named, weighted set of representative iterations.

    ``profiled_iterations`` overrides the profiling-cost accounting for
    methods that must execute more iterations than they keep distinct
    points for — ``prior`` profiles its whole 50-iteration window
    because it is oblivious to sequence-length semantics.
    """

    method: str
    points: tuple[SelectedPoint, ...]
    profiled_iterations: int | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise SelectionError(f"{self.method}: selection is empty")
        if self.profiled_iterations is not None and self.profiled_iterations <= 0:
            raise SelectionError(f"{self.method}: profiled_iterations must be positive")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def weights_column(self) -> np.ndarray:
        """Point weights as one float column (Equation 1's w vector)."""
        return np.fromiter(
            (point.weight for point in self.points),
            np.float64,
            len(self.points),
        )

    @cached_property
    def times_column(self) -> np.ndarray:
        """Representative runtimes as one float column."""
        return np.fromiter(
            (point.record.time_s for point in self.points),
            np.float64,
            len(self.points),
        )

    @property
    def total_weight(self) -> float:
        return sequential_sum(self.weights_column)

    @property
    def seq_lens(self) -> tuple[int, ...]:
        return tuple(point.seq_len for point in self.points)

    @property
    def iterations_to_profile(self) -> int:
        """How many iterations must actually be (re-)executed.

        The profiling-cost currency of §VI-F: distinct representative
        iterations (each runs once per hardware configuration), unless
        the method declares a larger mandatory window.
        """
        if self.profiled_iterations is not None:
            return self.profiled_iterations
        return len({(p.seq_len, p.tgt_len) for p in self.points})


def select_from_bin(bin_: Bin, strategy: str = "closest-mean") -> SelectedPoint:
    """Step 3 of Fig 10: pick one representative SL from a bin.

    ``closest-mean`` is the paper's choice: the SL whose runtime is
    closest to the bin's (iteration-weighted) average runtime.  The
    other strategies exist for the ablation benchmarks:

    * ``median-sl`` — the SL at the bin's median iteration;
    * ``centroid-sl`` — the SL nearest the bin's iteration-weighted
      mean SL (a SimPoint-style centroid in SL space).

    The point's weight is always the bin size in iterations (step 4).
    """
    weight = float(bin_.iterations)
    if strategy == "closest-mean":
        target = bin_.mean_time_s
        mean_times = np.fromiter(
            (stat.mean_time_s for stat in bin_.stats),
            np.float64,
            len(bin_.stats),
        )
        best = bin_.stats[int(np.argmin(np.abs(mean_times - target)))]
    elif strategy == "median-sl":
        iterations = np.fromiter(
            (stat.iterations for stat in bin_.stats),
            np.float64,
            len(bin_.stats),
        )
        at_least_half = np.cumsum(iterations) >= bin_.iterations / 2.0
        best = bin_.stats[int(np.argmax(at_least_half))]
    elif strategy == "centroid-sl":
        seq_lens = np.fromiter(
            (stat.seq_len for stat in bin_.stats),
            np.float64,
            len(bin_.stats),
        )
        iterations = np.fromiter(
            (stat.iterations for stat in bin_.stats),
            np.float64,
            len(bin_.stats),
        )
        centroid = float(seq_lens @ iterations) / weight
        best = bin_.stats[int(np.argmin(np.abs(seq_lens - centroid)))]
    else:
        raise SelectionError(
            f"unknown representative strategy {strategy!r}; expected "
            "'closest-mean', 'median-sl', or 'centroid-sl'"
        )
    return SelectedPoint(record=best.representative, weight=weight)
