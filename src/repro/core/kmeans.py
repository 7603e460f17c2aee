"""K-means clustering over iteration execution profiles (paper §VII-C).

The paper's "more sophisticated" alternative to SL binning: cluster
iterations by their execution profiles, take one representative per
cluster.  The paper found it performs no better than simple contiguous
binning — our ablation benchmark regenerates that comparison.

Features per unique SL: the iteration's kernel-group runtime shares
plus its normalised runtime.  Standard k-means with k-means++ seeding,
implemented here directly (no sklearn offline), deterministic by seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import SelectedPoint, Selection
from repro.core.sl_stats import SlStat, SlStatistics
from repro.errors import SelectionError
from repro.train.frame import TraceFrame
from repro.train.trace import TrainingTrace
from repro.util.rng import make_rng
from repro.util.stats import sequential_sum

__all__ = ["KMeansSelector", "kmeans_cluster"]


def _feature_matrix(stats: list[SlStat]) -> np.ndarray:
    """Execution-profile features: group shares + normalised runtime."""
    groups = sorted({g for stat in stats for g in stat.representative.group_times})
    max_time = max(stat.mean_time_s for stat in stats)
    rows = []
    for stat in stats:
        times = stat.representative.group_times
        device_total = sequential_sum(times.values()) or 1.0
        shares = [times.get(group, 0.0) / device_total for group in groups]
        rows.append([*shares, stat.mean_time_s / max_time])
    return np.array(rows, dtype=float)


def kmeans_cluster(
    features: np.ndarray, k: int, seed: int = 0, max_iter: int = 100
) -> np.ndarray:
    """Cluster rows of ``features`` into ``k`` groups; returns labels."""
    if k <= 0:
        raise SelectionError(f"k must be positive, got {k}")
    n = features.shape[0]
    if k > n:
        raise SelectionError(f"k={k} exceeds {n} observations")
    rng = make_rng(seed)

    # k-means++ seeding.
    centers = [features[rng.integers(n)]]
    for _ in range(1, k):
        dists = np.min(
            [np.sum((features - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = dists.sum()
        if total <= 0:
            centers.append(features[rng.integers(n)])
            continue
        centers.append(features[rng.choice(n, p=dists / total)])
    centroids = np.array(centers)

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        distances = np.linalg.norm(
            features[:, None, :] - centroids[None, :, :], axis=2
        )
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = features[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return labels


class KMeansSelector:
    """Cluster execution profiles; one weighted representative each."""

    METHOD = "kmeans"

    def __init__(self, k: int, seed: int = 0):
        # Eager type checks: spec/CLI kwargs must fail at construction
        # with a clean error, not as a TypeError mid-clustering.
        for name, value in (("k", k), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SelectionError(f"{name} must be an int, got {value!r}")
        if k <= 0:
            raise SelectionError("k must be positive")
        self.k = k
        self.seed = seed

    def select(self, trace: TrainingTrace | TraceFrame) -> Selection:
        statistics = SlStatistics.from_trace(trace)
        stats = list(statistics)
        k = min(self.k, len(stats))
        features = _feature_matrix(stats)
        labels = kmeans_cluster(features, k, seed=self.seed)

        points = []
        for j in range(k):
            members = [stat for stat, label in zip(stats, labels) if label == j]
            if not members:
                continue
            weight = float(sum(stat.iterations for stat in members))
            mean_time = (
                sequential_sum(stat.total_time_s for stat in members) / weight
            )
            representative = min(
                members, key=lambda stat: abs(stat.mean_time_s - mean_time)
            )
            points.append(
                SelectedPoint(record=representative.representative, weight=weight)
            )
        return Selection(method=self.METHOD, points=tuple(points))
