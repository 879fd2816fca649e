"""Unit tests for the core data types and the objective."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import (
    FactorizationResult,
    Membership,
    ModelSpec,
    RegularizationParams,
    as_data_matrix,
    objective,
)
from onmfcluster.model import _objective_terms
from reference import plain_objective, plain_terms, plain_u

CELLS = list(itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"]))


class TestMembership:
    def test_columns_orthogonal_by_construction(self):
        rng = np.random.default_rng(3)
        labels = np.where(rng.random(30) < 0.8, rng.integers(4, size=30), -1)
        coeffs = np.where(labels >= 0, rng.uniform(0.1, 5, 30), 0.0)
        m = Membership(labels, coeffs, 4)
        U = plain_u(m.labels, m.coefficients, m.n_clusters)
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

    @pytest.mark.parametrize(
        "labels, coefficients, n_clusters, message",
        [
            ([0, 1], [1.0], 2, "1-D of equal length"),
            ([[0]], [[1.0]], 1, "1-D of equal length"),
            ([-1], [0.0], 0, "n_clusters must be >= 1"),
        ],
    )
    def test_malformed_membership_rejected(self, labels, coefficients, n_clusters, message):
        with pytest.raises(ValueError, match=message):
            Membership(labels, coefficients, n_clusters)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_coefficients_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Membership([0, 1], [value, 1.0], 2)

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, float("nan")], [float("inf"), 0.0]])
    def test_non_integral_labels_rejected(self, labels):
        # An int64 cast would truncate [0.5, 1.7] to [0, 1].
        with pytest.raises(ValueError, match="integers"):
            Membership(labels, [1.0, 1.0], 2)

    def test_integral_float_labels_accepted(self):
        assert_array_equal(Membership([1.0, -1.0], [2.0, 0.0], 2).labels, [1, -1])


def test_empty_clusters_are_those_without_a_positive_coefficient():
    # Cluster 0 has a row of coefficient 0 only, cluster 2 has no row at all.
    m = Membership([0, 1, -1, 3], [0.0, 2.0, 0.0, 1.0], 4)
    result = FactorizationResult(m, np.zeros((4, 1)), np.array([1.0]), True)
    assert result.empty_clusters == {0, 2}
    assert result.unassigned_rows == {2}


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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_no_rows_or_no_columns_rejected(self, shape):
        with pytest.raises(ValueError, match="at least 1x1"):
            as_data_matrix(np.zeros(shape))


class TestObjective:
    def test_exact_factorization_is_zero(self):
        V = np.array([[1.0, 2.0], [3.0, 0.0]])
        m = Membership([0, 1, 0], [2.0, 1.0, 0.5], 2)
        X = plain_u(m.labels, m.coefficients, 2) @ V
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


WEIGHTS = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@pytest.mark.parametrize("discrepancy, mode", CELLS)
@pytest.mark.parametrize("rows", [2, 6, None], ids=["short", "long", "1-D"])
def test_objective_rejects_data_that_does_not_fit_the_membership(discrepancy, mode, rows):
    # Four member rows against X of two or six rows, or a 1-D X: the
    # objective names the mismatch before any residual is formed.
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, 3) if rows is None else rng.uniform(0, 1, (rows, 3))
    membership = Membership(np.array([0, 0, 1, 1]), np.ones(4), 2)
    with pytest.raises(ValueError, match="must be 2-D|do not fit a membership"):
        objective(X, membership, rng.uniform(0, 1, (2, 3)), ModelSpec(discrepancy, mode))


@st.composite
def objective_problems(draw):
    """A cell, penalty weights on and off, and a membership with label -1 rows."""
    discrepancy, mode = draw(st.sampled_from(CELLS))
    free = mode == "c1_free"
    reg = RegularizationParams(
        draw(WEIGHTS) if free else 0.0, draw(WEIGHTS), draw(WEIGHTS) if free else 0.0, draw(WEIGHTS)
    )
    M, N, K = draw(st.integers(1, 60)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(0, 10, (M, N)) * (rng.random((M, N)) < 0.8)
    V = rng.uniform(0, 10, (K, N))
    labels = np.where(rng.random(M) < 0.8, rng.integers(0, K, M), -1)
    coeffs = rng.uniform(0.01, 3.0, M) if mode != "binary" else np.ones(M)
    membership = Membership(labels, np.where(labels >= 0, coeffs, 0.0), K)
    return X, membership, V, ModelSpec(discrepancy, mode, reg)


@settings(max_examples=300, deadline=None)
@given(objective_problems())
def test_objective_is_the_plain_three_term_formula_bit_for_bit(problem):
    X, membership, V, spec = problem
    plain = membership.labels, membership.coefficients, V, spec
    assert objective(X, membership, V, spec) == plain_objective(X, *plain)
    assert _objective_terms(X, membership, V, spec) == plain_terms(X, *plain)
