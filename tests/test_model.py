"""Unit tests for the core data types and the objective."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import (
    Membership,
    ModelSpec,
    RegularizationParams,
    as_data_matrix,
    dense_u,
    objective,
)


class TestMembership:
    def test_dense_u_two_rows(self):
        m = Membership([0, 1], [1.0, 2.0], 2)
        assert_array_equal(dense_u(m), [[1.0, 0.0], [0.0, 2.0]])

    def test_dense_u_with_missing_row(self):
        m = Membership([-1, 0], [0.0, 0.5], 1)
        assert_array_equal(dense_u(m), [[0.0], [0.5]])

    def test_dense_u_all_empty(self):
        m = Membership([-1, -1, -1], np.zeros(3), 2)
        assert_array_equal(dense_u(m), np.zeros((3, 2)))

    def test_columns_orthogonal_by_construction(self):
        rng = np.random.default_rng(3)
        labels = np.where(rng.random(30) < 0.8, rng.integers(4, size=30), -1)
        coeffs = np.where(labels >= 0, rng.uniform(0.1, 5, 30), 0.0)
        U = dense_u(Membership(labels, coeffs, 4))
        G = U.T @ U
        assert_allclose(G - np.diag(np.diag(G)), 0.0)

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            Membership([0], [-1.0], 1)
        with pytest.raises(ValueError):
            Membership([2], [1.0], 2)
        with pytest.raises(ValueError):
            Membership([-2], [0.0], 1)
        with pytest.raises(ValueError):
            Membership(np.array([-1]), np.array([1.0]), 1)


class TestModelSpec:
    def test_binary_mode_rejects_membership_penalties(self):
        with pytest.raises(ValueError):
            ModelSpec("l2", "binary", RegularizationParams(lambda_u=1.0))
        with pytest.raises(ValueError):
            ModelSpec("l2", "normalized", RegularizationParams(mu_u=0.5))

    def test_binary_mode_allows_centroid_penalties(self):
        ModelSpec("l2", "binary", RegularizationParams(lambda_v=1.0, mu_v=2.0))

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("frobenius", "binary")
        with pytest.raises(ValueError):
            ModelSpec("l2", "soft")
        with pytest.raises(ValueError):
            RegularizationParams(lambda_u=-1.0)


class TestDataMatrix:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            as_data_matrix([[1.0, -2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_data_matrix([[np.nan, 1.0]])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            as_data_matrix([1.0, 2.0])


class TestObjective:
    def test_exact_factorization_is_zero(self):
        V = np.array([[1.0, 2.0], [3.0, 0.0]])
        m = Membership([0, 1, 0], [2.0, 1.0, 0.5], 2)
        X = dense_u(m) @ V
        spec = ModelSpec("l2", "c1_free")
        assert objective(X, m, V, spec) == 0.0

    def test_empty_membership_gives_data_norm(self):
        X = np.array([[1.0, 1.0]])
        m = Membership([-1], [0.0], 1)
        V = np.array([[5.0, 3.0]])
        assert objective(X, m, V, ModelSpec("l2", "c1_free")) == 2.0

    def test_membership_penalty(self):
        X = np.array([[2.0, 0.0]])
        m = Membership([0], [1.0], 1)
        V = np.array([[1.0, 0.0]])
        spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=2.0))
        assert objective(X, m, V, spec) == 3.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            M, N, K = rng.integers(1, 8, 3)
            X = rng.uniform(0, 10, (M, N))
            V = rng.uniform(0, 10, (K, N))
            labels = np.where(rng.random(M) < 0.7, rng.integers(K, size=M), -1)
            m = Membership(labels, np.where(labels >= 0, rng.uniform(0.1, 3, M), 0.0), int(K))
            spec = ModelSpec("l1" if rng.random() < 0.5 else "l2", "c1_free",
                             RegularizationParams(*rng.uniform(0, 2, 4)))
            assert objective(X, m, V, spec) >= 0.0

    def test_invariant_under_label_permutation(self):
        rng = np.random.default_rng(9)
        K = 4
        X = rng.uniform(0, 10, (12, 3))
        V = rng.uniform(0, 10, (K, 3))
        labels = rng.integers(0, K, 12)
        coeffs = rng.uniform(0.1, 2.0, 12)
        m = Membership(labels, coeffs, K)
        spec = ModelSpec("l1", "c1_free", RegularizationParams(0.3, 0.7, 0.1, 0.2))
        perm = rng.permutation(K)
        m_perm = Membership(perm[labels], coeffs, K)
        V_perm = np.empty_like(V)
        V_perm[perm] = V
        assert_allclose(objective(X, m, V, spec), objective(X, m_perm, V_perm, spec), rtol=1e-14)

    def test_shape_mismatch_rejected(self):
        m = Membership([0], [1.0], 1)
        spec = ModelSpec()
        with pytest.raises(ValueError):
            objective(np.ones((2, 2)), m, np.ones((1, 2)), spec)
        with pytest.raises(ValueError):
            objective(np.ones((1, 2)), m, np.ones((2, 2)), spec)
        with pytest.raises(ValueError):
            objective(np.ones((1, 3)), m, np.ones((1, 2)), spec)
