"""Unit tests for the baseline Lloyd K-means and K-median oracles."""

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from reference import kmedian, lloyd_kmeans

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])


class TestLloyd:
    def test_four_point_example(self):
        labels, centroids, trace = lloyd_kmeans(FOUR_POINTS, 2, FOUR_POINTS[[0, 2]])
        assert_array_equal(labels, [0, 0, 1, 1])
        assert_allclose(centroids, [[0.0, 0.5], [10.0, 10.5]])

    def test_k_one_is_column_means(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, (12, 3))
        _, centroids, _ = lloyd_kmeans(X, 1, X[:1])
        assert_allclose(centroids[0], X.mean(axis=0))

    def test_duplicated_rows_reach_zero_cost(self):
        X = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]), 4, axis=0)
        _, _, trace = lloyd_kmeans(X, 3, X[[0, 4, 8]])
        assert trace[-1] == 0.0

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            X = rng.uniform(0, 10, (rng.integers(5, 40), rng.integers(1, 6)))
            K = int(rng.integers(1, 5))
            init = X[rng.choice(len(X), size=K, replace=False)]
            _, _, trace = lloyd_kmeans(X, K, init)
            assert (np.diff(trace) <= 1e-10).all()


class TestKMedian:
    def test_one_dimensional_median(self):
        X = np.array([[1.0], [2.0], [9.0]])
        labels, centroids, trace = kmedian(X, 1, X[:1])
        assert_allclose(centroids, [[2.0]])
        assert_allclose(trace[-1], 8.0)

    def test_symmetric_pair_midpoint(self):
        X = np.array([[1.0], [3.0]])
        _, centroids, _ = kmedian(X, 1, X[:1])
        assert_allclose(centroids, [[2.0]])

    def test_k_equals_m_zero_cost(self):
        X = np.array([[1.0, 0.0], [5.0, 2.0], [9.0, 9.0]])
        _, _, trace = kmedian(X, 3, X)
        assert trace[-1] == 0.0

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X = rng.uniform(0, 10, (rng.integers(5, 40), rng.integers(1, 6)))
            K = int(rng.integers(1, 5))
            init = X[rng.choice(len(X), size=K, replace=False)]
            _, _, trace = kmedian(X, K, init)
            assert (np.diff(trace) <= 1e-10).all()
