"""The SeqPoint selector: the paper's Fig 10 mechanism end to end.

Given a logged epoch trace:

1. compute the per-unique-SL statistic (runtime);
2. if there are at most ``max_unique`` (paper: n = 10) unique SLs,
   every one becomes a SeqPoint weighted by its frequency;
3. otherwise bin SLs into ``k`` (initially 5) contiguous ranges, pick
   per bin the SL closest to the bin's average runtime, weight it by
   bin size;
4. project the epoch runtime as the weighted sum (Equation 1) and
   compare against the logged epoch runtime;
5. grow ``k`` and repeat until the error drops below the user
   threshold ``e`` (or every unique SL is its own bin).

Steps 3-5 run as array operations on the per-SL columns, bit-identical
to binning with :func:`~repro.core.binning.bin_stats` and picking with
:func:`~repro.core.selection.select_from_bin`; records are built only
for the points returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.binning import bucket_indices
from repro.core.selection import SelectedPoint, Selection
from repro.core.sl_stats import SlStatistics
from repro.errors import SelectionError
from repro.train.frame import TraceFrame
from repro.train.trace import TrainingTrace
from repro.util.stats import percent_error

__all__ = ["SeqPointSelector", "SeqPointResult"]


@dataclass(frozen=True)
class SeqPointResult:
    """Outcome of SeqPoint identification on one trace."""

    selection: Selection
    #: Bins used; 0 means the no-binning path (few unique SLs).
    k: int
    #: Identification-config projection error that stopped the loop.
    identification_error_pct: float
    projected_total_s: float
    actual_total_s: float

    @property
    def seqpoints(self) -> tuple[SelectedPoint, ...]:
        return self.selection.points

    def __len__(self) -> int:
        return len(self.selection)


class SeqPointSelector:
    """Identifies SeqPoints from one training epoch's trace."""

    METHOD = "seqpoint"

    def __init__(
        self,
        max_unique: int = 10,
        initial_bins: int = 5,
        error_threshold_pct: float = 1.0,
        max_bins: int | None = None,
    ):
        # Validate types eagerly: these kwargs arrive verbatim from
        # specs and the CLI, and a bad type must fail at construction
        # (a clean ConfigurationError) rather than mid-selection.
        for name, value in (
            ("max_unique", max_unique),
            ("initial_bins", initial_bins),
            ("max_bins", max_bins),
        ):
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise SelectionError(f"{name} must be an int, got {value!r}")
        if not isinstance(error_threshold_pct, (int, float)) or isinstance(
            error_threshold_pct, bool
        ):
            raise SelectionError(
                f"error_threshold_pct must be a number, "
                f"got {error_threshold_pct!r}"
            )
        if max_unique < 1:
            raise SelectionError("max_unique must be at least 1")
        if initial_bins < 1:
            raise SelectionError("initial_bins must be at least 1")
        if error_threshold_pct <= 0:
            raise SelectionError("error_threshold_pct must be positive")
        if max_bins is not None and max_bins < initial_bins:
            raise SelectionError("max_bins cannot be below initial_bins")
        self.max_unique = max_unique
        self.initial_bins = initial_bins
        self.error_threshold_pct = error_threshold_pct
        self.max_bins = max_bins

    def select(self, trace: TrainingTrace | TraceFrame) -> SeqPointResult:
        """Run the full identification loop on ``trace``.

        Accepts a row-oriented trace or its columnar frame directly;
        the per-SL grouping is computed once per frame and shared with
        any other selector run on the same trace.  The loop runs on the
        statistics' columns and builds records for the returned points
        only.
        """
        statistics = SlStatistics.from_trace(trace)
        actual = statistics.total_time_s
        representatives = statistics.representatives
        times = representatives.time_s

        if len(statistics) <= self.max_unique:
            k = 0
            rows = np.arange(len(statistics))
            weights = statistics.iterations_column.astype(np.float64)
            projected = float(times @ weights)
            error = percent_error(projected, actual)
        else:
            ceiling = min(
                self.max_bins if self.max_bins is not None else len(statistics),
                len(statistics),
            )
            k = min(self.initial_bins, ceiling)
            while True:
                rows, weights = _closest_mean_bins(statistics, k)
                # Equation 1, as project_logged_time computes it.
                projected = float(times[rows] @ weights)
                error = percent_error(projected, actual)
                if error < self.error_threshold_pct or k >= ceiling:
                    break
                k += 1
        selection = Selection(
            method=self.METHOD,
            points=tuple(
                SelectedPoint(record=representatives.record(row), weight=weight)
                for row, weight in zip(rows.tolist(), weights.tolist())
            ),
        )
        return SeqPointResult(
            selection=selection,
            k=k,
            identification_error_pct=error,
            projected_total_s=projected,
            actual_total_s=actual,
        )


def _closest_mean_bins(
    statistics: SlStatistics, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each non-empty bin's representative SL and weight, for ``k`` bins.

    The columnar form of ``bin_stats`` + ``select_from_bin`` (the
    paper's closest-mean choice): returns the positions of the chosen
    unique SLs and their bins' iteration counts, in ascending SL order.
    Bin totals fold left in SL order as ``Bin.total_time_s`` does, and a
    bin's representative is its first SL at the minimal
    ``|mean - bin mean|``, as ``np.argmin`` picks it.
    """
    bucket = bucket_indices(statistics.seq_lens_column, k)
    iterations = np.bincount(
        bucket, weights=statistics.iterations_column, minlength=k
    )
    totals = np.bincount(bucket, weights=statistics.totals_column, minlength=k)
    occupied = iterations > 0
    bin_means = np.divide(totals, iterations, out=np.zeros(k), where=occupied)
    deviation = np.abs(statistics.means_column - bin_means[bucket])
    # Bins are contiguous runs of the sorted SLs, so each bin's run
    # starts where the stable sort by (bin, deviation) puts its minimum.
    order = np.lexsort((np.arange(bucket.size), deviation, bucket))
    bins = np.flatnonzero(occupied)
    rows = order[np.searchsorted(bucket, bins)]
    return rows, iterations[bins]
