"""Unit tests for centroid updates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import (
    Membership,
    ModelSpec,
    RegularizationParams,
    ScalarProxProblem,
    centroid_l1,
    centroid_l2,
)
from onmfcluster.centroid import _update_centroids


class TestCentroidL2:
    def test_reduces_to_mean(self):
        X_k = np.array([[2.0], [4.0]])
        assert_allclose(centroid_l2(X_k, [1.0, 1.0]), [3.0])

    def test_ridge_shrinkage(self):
        X_k = np.array([[2.0], [4.0]])
        assert_allclose(centroid_l2(X_k, [1.0, 1.0], mu_v=1.0), [2.0])

    def test_threshold_collapses_to_zero(self):
        X_k = np.array([[2.0], [4.0]])
        assert_allclose(centroid_l2(X_k, [1.0, 1.0], lambda_v=100.0), [0.0])

    def test_orthonormal_membership_special_case(self):
        # With weights 1/sqrt(|I_k|) and no penalties the row equals
        # (1/sqrt(|I_k|)) * sum of the cluster rows.
        rng = np.random.default_rng(3)
        X_k = rng.uniform(0, 10, (6, 4))
        w = np.full(6, 1.0 / np.sqrt(6.0))
        assert_allclose(centroid_l2(X_k, w), X_k.sum(axis=0) / np.sqrt(6.0))

    def test_nonnegative_output(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rows = int(rng.integers(1, 8))
            X_k = rng.uniform(0, 10, (rows, 3))
            u = rng.uniform(0.1, 5, rows)
            out = centroid_l2(X_k, u, *rng.uniform(0, 5, 2))
            assert (out >= 0).all()


class TestCentroidL1:
    def test_reduces_to_median(self):
        X_k = np.array([[1.0], [2.0], [3.0]])
        assert_allclose(centroid_l1(X_k, np.ones(3)), [2.0])

    def test_midpoint_convention(self):
        X_k = np.array([[1.0], [3.0]])
        assert_allclose(centroid_l1(X_k, np.ones(2)), [2.0])

    def test_ridge(self):
        assert_allclose(centroid_l1(np.array([[2.0]]), [1.0], mu_v=1.0), [0.5])


@pytest.mark.parametrize("centroid", [centroid_l1, centroid_l2])
def test_negative_membership_weight_rejected(centroid):
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        centroid([[1.0, 2.0], [3.0, 4.0]], [-1.0, 1.0])


@pytest.mark.parametrize("centroid, u_k", [(centroid_l1, [1.0]), (centroid_l2, [1.0, 1.0, 1.0])])
def test_malformed_cluster_rejected(centroid, u_k):
    with pytest.raises(ValueError, match="equal length >= 1"):
        centroid([[1.0, 2.0], [3.0, 4.0]], u_k)


@pytest.mark.parametrize("lambda_v", [0.0, 1.0])
def test_zero_weights_give_the_zero_centroid(lambda_v):
    # No weight and no mu_v leave every component's objective lambda_v t plus
    # a constant, so both discrepancies take the minimizer 0, silently.
    X_k = [[1.0, 2.0], [3.0, 4.0]]
    expected = centroid_l1(X_k, [0.0, 0.0], lambda_v)
    assert_array_equal(expected, [0.0, 0.0])
    assert_array_equal(centroid_l2(X_k, [0.0, 0.0], lambda_v), expected)


@pytest.mark.parametrize("discrepancy", ["l1", "l2"])
def test_component_update_never_increases_scalar_objective(discrepancy):
    # Each component solves its own scalar problem exactly, so the new value
    # can never be worse than the previous centroid component.
    rng = np.random.default_rng(11)
    kind = "weighted_l1" if discrepancy == "l1" else "quadratic"
    for _ in range(100):
        rows = int(rng.integers(1, 10))
        X_k = rng.uniform(0, 10, (rows, 3))
        u = rng.uniform(0.1, 5, rows)
        lam, mu = rng.uniform(0, 5, 2)
        old = rng.uniform(0, 10, 3)
        new = (
            centroid_l1(X_k, u, lam, mu)
            if discrepancy == "l1"
            else centroid_l2(X_k, u, lam, mu)
        )
        for n in range(3):
            phi = ScalarProxProblem(kind, X_k[:, n], u, lam, mu)
            assert phi.value(new[n]) <= phi.value(old[n]) + 1e-12


class TestUpdateCentroids:
    def test_binary_l2_means(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        m = Membership(np.array([0, 0, 1, 1]), np.ones(4), 2)
        V = _update_centroids(X, m, ModelSpec("l2", "binary"), previous=np.zeros((2, 2)))
        assert_allclose(V, [[0.0, 0.5], [10.0, 10.5]])

    def test_binary_l1_median(self):
        X = np.array([[1.0], [2.0], [9.0]])
        m = Membership(np.zeros(3, dtype=int), np.ones(3), 1)
        V = _update_centroids(X, m, ModelSpec("l1", "binary"), previous=np.zeros((1, 1)))
        assert_allclose(V, [[2.0]])

    def test_empty_cluster_reseeds_farthest(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [8.0, 0.0]])
        m = Membership(np.zeros(3, dtype=int), np.ones(3), 2)
        previous = np.array([[0.0, 0.0], [5.0, 5.0]])
        V = _update_centroids(X, m, ModelSpec("l2", "binary"), previous=previous)
        # Row 2 is farthest from its own centroid (row 0 of previous).
        assert_array_equal(V[1], X[2])

    def test_empty_cluster_keeps_a_previous_row_of_smaller_penalty(self):
        # Row 1 is farthest, but its penalty 4 + 0.5 * 16 exceeds the
        # previous row's 2 + 0.5 * 2: taking it would raise the objective.
        X = np.array([[0.0, 0.0], [4.0, 0.0]])
        m = Membership(np.zeros(2, dtype=int), np.ones(2), 2)
        previous = np.array([[0.0, 0.0], [1.0, 1.0]])
        spec = ModelSpec("l2", "binary", RegularizationParams(lambda_v=1.0, mu_v=0.5))
        V = _update_centroids(X, m, spec, previous=previous)
        assert_array_equal(V[1], previous[1])

    def test_empty_cluster_takes_a_farthest_row_of_no_larger_penalty(self):
        # Row 1 is farthest; its penalty 4 ties the previous row's 3 + 1 and
        # is below 5 + 5, so both times the cluster takes it.
        X = np.array([[0.0, 0.0], [4.0, 0.0]])
        m = Membership(np.zeros(2, dtype=int), np.ones(2), 2)
        spec = ModelSpec("l2", "binary", RegularizationParams(lambda_v=1.0))
        for row in ([3.0, 1.0], [5.0, 5.0]):
            V = _update_centroids(X, m, spec, previous=np.array([[0.0, 0.0], row]))
            assert_array_equal(V[1], X[1])

    def test_an_overflowing_penalty_keeps_the_previous_row(self):
        # Both squared norms overflow: inf <= inf must not take the row.
        X = np.array([[0.0, 0.0], [2e200, 0.0]])
        m = Membership(np.zeros(2, dtype=int), np.ones(2), 2)
        previous = np.array([[0.0, 0.0], [1e200, 1e200]])
        spec = ModelSpec("l1", "c1_free", RegularizationParams(mu_v=1.0))
        V = _update_centroids(X, m, spec, previous=previous)
        assert_array_equal(V[1], previous[1])

    def test_two_empty_clusters_take_distinct_rows(self):
        X = np.array([[0.0], [6.0], [9.0]])
        m = Membership(np.zeros(3, dtype=int), np.ones(3), 3)
        previous = np.zeros((3, 1))
        V = _update_centroids(X, m, ModelSpec("l2", "binary"), previous=previous)
        assert_array_equal(V[1], X[2])  # farthest first
        assert_array_equal(V[2], X[1])

    def test_reseed_ties_go_to_the_lower_row(self):
        # Rows 0 and 1 both cost 9 against the zero centroid.
        X = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        m = Membership(np.zeros(3, dtype=int), np.ones(3), 2)
        V = _update_centroids(X, m, ModelSpec("l2", "binary"), previous=np.zeros((2, 2)))
        assert_array_equal(V[1], X[0])

    @pytest.mark.parametrize("discrepancy", ["l1", "l2"])
    def test_normalized_zero_candidate_becomes_the_best_unit_vector(self, discrepancy):
        # lambda_v / 2 = 5 exceeds every component of X^T u = (1, 2, 0.5), so
        # the thresholded row is zero; e_j of the least negative component of
        # X^T u - lambda_v / 2 is the exact l2 minimizer on the unit sphere.
        X = np.array([[1.0, 2.0, 0.5]])
        m = Membership(np.zeros(1, dtype=int), np.ones(1), 1)
        spec = ModelSpec(discrepancy, "normalized", RegularizationParams(lambda_v=10.0))
        V = _update_centroids(X, m, spec, previous=np.ones((1, 3)))
        assert_array_equal(V, [[0.0, 1.0, 0.0]])

    def test_zero_coefficient_rows_excluded(self):
        X = np.array([[1.0], [100.0]])
        m = Membership(np.array([0, 0]), np.array([1.0, 0.0]), 1)
        V = _update_centroids(X, m, ModelSpec("l2", "binary"), previous=np.zeros((1, 1)))
        assert_allclose(V, [[1.0]])

    def test_normalized_rows_unit_norm(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(0.1, 10, (8, 3))
        m = Membership(rng.integers(0, 2, 8), rng.uniform(0.5, 2, 8), 2)
        V = _update_centroids(X, m, ModelSpec("l2", "normalized"), previous=np.ones((2, 3)))
        assert_allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)

    def test_normalized_step_never_increases_block_cost(self):
        # The unit-sphere projection is not an exact minimizer under l1, so
        # the update keeps the previous row whenever the candidate is worse.
        rng = np.random.default_rng(17)
        spec = ModelSpec("l1", "normalized")
        for _ in range(50):
            rows = int(rng.integers(1, 8))
            X = rng.uniform(0, 10, (rows, 3))
            m = Membership(np.zeros(rows, dtype=int), rng.uniform(0.5, 2, rows), 1)
            prev = rng.uniform(0.1, 1, (1, 3))
            prev /= np.linalg.norm(prev)
            V = _update_centroids(X, m, spec, previous=prev)
            cost = lambda v: float(np.abs(X - m.coefficients[:, None] * v[None, :]).sum())
            assert cost(V[0]) <= cost(prev[0]) + 1e-12
