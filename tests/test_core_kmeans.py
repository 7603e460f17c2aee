"""Unit tests for the k-means alternative (paper §VII-C)."""

import numpy as np
import pytest

from repro.core.kmeans import KMeansSelector, kmeans_cluster
from repro.errors import SelectionError
from tests.conftest import make_record, trace_of
from repro.train.trace import TrainingTrace


class TestKMeansCluster:
    def test_separates_obvious_clusters(self):
        features = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0], [5.0, 5.1]]
        )
        labels = kmeans_cluster(features, 2, seed=0)
        assert len(set(labels[:3])) == 1
        assert len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(50, 3))
        assert np.array_equal(
            kmeans_cluster(features, 4, seed=7), kmeans_cluster(features, 4, seed=7)
        )

    def test_k_equals_n(self):
        features = np.array([[0.0], [1.0], [2.0]])
        labels = kmeans_cluster(features, 3, seed=0)
        assert len(set(labels)) == 3

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(SelectionError):
            kmeans_cluster(np.zeros((2, 2)), 3)

    def test_invalid_k_rejected(self):
        with pytest.raises(SelectionError):
            kmeans_cluster(np.zeros((2, 2)), 0)


class TestKMeansSelector:
    def group_trace(self) -> TrainingTrace:
        """Two distinct execution-profile populations."""
        records = [
            make_record(index, sl, 1.0, group_times={"GEMM-1": 0.9, "reduce": 0.1})
            for index, sl in enumerate((10, 12, 14))
        ] + [
            make_record(index, sl, 5.0, group_times={"GEMM-1": 0.2, "reduce": 4.8})
            for index, sl in enumerate((90, 95, 99), start=3)
        ]
        return trace_of(records)

    def test_clusters_by_profile(self):
        selection = KMeansSelector(k=2, seed=0).select(self.group_trace())
        assert len(selection) == 2
        picked = sorted(selection.seq_lens)
        assert picked[0] <= 14 and picked[1] >= 90

    def test_weights_cover_epoch(self):
        selection = KMeansSelector(k=2, seed=0).select(self.group_trace())
        assert selection.total_weight == 6.0

    def test_k_clamped_to_unique_sls(self):
        selection = KMeansSelector(k=50, seed=0).select(self.group_trace())
        assert len(selection) <= 6

    def test_invalid_k_rejected(self):
        with pytest.raises(SelectionError):
            KMeansSelector(k=0)
