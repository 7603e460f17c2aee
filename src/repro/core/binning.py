"""Contiguous sequence-length binning (step 2 of the paper's Fig 10).

SLs are binned into ``k`` buckets of equal SL-range width.  Contiguity
is the paper's deliberate design choice: nearby SLs have similar
execution profiles (§V-B), so a contiguous range is a meaningful
cluster without any feature engineering.  Bins that catch no observed
SL are dropped (they carry zero weight).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SelectionError
from repro.core.sl_stats import SlStat, SlStatistics

__all__ = ["Bin", "bin_stats", "bin_stats_equal_mass", "bucket_indices"]


@dataclass(frozen=True)
class Bin:
    """One contiguous SL range and the per-SL stats that fall in it."""

    lo: float
    hi: float
    stats: tuple[SlStat, ...]

    @property
    def iterations(self) -> int:
        """Bin size in iterations — the SeqPoint weight (step 4)."""
        return sum(stat.iterations for stat in self.stats)

    @property
    def total_time_s(self) -> float:
        # An explicit left fold: Python 3.12+'s sum() compensates float
        # rounding, and bins must total the same on every version (and
        # as np.bincount does in the SeqPoint k-sweep).
        total = 0.0
        for stat in self.stats:
            total += stat.total_time_s
        return total

    @property
    def mean_time_s(self) -> float:
        """Iteration-weighted average runtime — the selection target."""
        return self.total_time_s / self.iterations

    @property
    def seq_lens(self) -> tuple[int, ...]:
        return tuple(stat.seq_len for stat in self.stats)


def bucket_indices(seq_lens: np.ndarray, k: int) -> np.ndarray:
    """Equal-width bin of each sorted unique SL when splitting into ``k``.

    The one bucket assignment shared by :func:`bin_stats` and the
    SeqPoint k-sweep: bin ``int((sl - lo) / width)`` over the observed
    range, the top edge folded into the last bin, and everything in
    bin 0 when the range is a single SL or ``k == 1``.  The result is
    non-decreasing, so every bin is a contiguous run of ``seq_lens``.
    """
    lo = seq_lens[0]
    hi = seq_lens[-1]
    if lo == hi or k == 1:
        return np.zeros(seq_lens.size, dtype=np.int64)
    width = (hi - lo) / k
    return np.minimum(((seq_lens - lo) / width).astype(np.int64), k - 1)


def bin_stats(statistics: SlStatistics, k: int) -> list[Bin]:
    """Split the observed SL range into ``k`` equal-width bins.

    Returns only non-empty bins, in ascending SL order.
    """
    if k <= 0:
        raise SelectionError(f"bin count must be positive, got {k}")
    if len(statistics) == 0:
        raise SelectionError("cannot bin empty statistics")

    lo = statistics.min_seq_len
    hi = statistics.max_seq_len
    if lo == hi or k == 1:
        return [Bin(lo=float(lo), hi=float(hi), stats=tuple(statistics))]

    width = (hi - lo) / k
    indices = bucket_indices(statistics.seq_lens_column, k)
    buckets: list[list[SlStat]] = [[] for _ in range(k)]
    for stat, index in zip(statistics, indices):
        buckets[index].append(stat)

    bins = []
    for index, bucket in enumerate(buckets):
        if not bucket:
            continue
        bins.append(
            Bin(
                lo=lo + index * width,
                hi=lo + (index + 1) * width,
                stats=tuple(bucket),
            )
        )
    return bins


def bin_stats_equal_mass(statistics: SlStatistics, k: int) -> list[Bin]:
    """Ablation alternative: bins holding equal *iteration* counts.

    Still contiguous in SL, but boundaries follow the iteration
    distribution's quantiles instead of equal SL-range widths.  The
    ablation benchmark compares this against the paper's equal-width
    choice.
    """
    if k <= 0:
        raise SelectionError(f"bin count must be positive, got {k}")
    if len(statistics) == 0:
        raise SelectionError("cannot bin empty statistics")

    stats = list(statistics)
    k = min(k, len(stats))
    total = statistics.total_iterations
    target = total / k

    bins: list[Bin] = []
    bucket: list[SlStat] = []
    mass = 0.0
    remaining_bins = k
    for index, stat in enumerate(stats):
        bucket.append(stat)
        mass += stat.iterations
        remaining_stats = len(stats) - index - 1
        # Close the bucket once it reaches its share, but never leave
        # more buckets to fill than stats remain to fill them with.
        if (
            mass >= target and remaining_bins > 1 and remaining_stats >= remaining_bins - 1
        ):
            bins.append(
                Bin(
                    lo=float(bucket[0].seq_len),
                    hi=float(bucket[-1].seq_len),
                    stats=tuple(bucket),
                )
            )
            bucket = []
            mass = 0.0
            remaining_bins -= 1
    if bucket:
        bins.append(
            Bin(
                lo=float(bucket[0].seq_len),
                hi=float(bucket[-1].seq_len),
                stats=tuple(bucket),
            )
        )
    return bins
