"""Unit tests for coefficients, distance measures, and assignment."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import onmfcluster
from onmfcluster import (
    ModelSpec,
    NoValidCentroidError,
    RegularizationParams,
    ScalarProxProblem,
    SolverConfig,
    assign,
    brute_force_min,
    coefficient_and_distance,
    coefficient_l1,
    coefficient_l2,
    distance_l1,
    distance_l2,
    distance_l2_angle_form,
    distance_l2_closed_form,
    fit,
    init_centroids,
)
from onmfcluster import distance
from onmfcluster.distance import _argmin, _pair_costs


class TestCoefficientL2:
    def test_unregularized_projection(self):
        assert coefficient_l2([2, 2], [1, 1]) == 2.0

    def test_threshold_boundary_collapses(self):
        assert coefficient_l2([1, 0], [1, 0], lambda_u=2.0) == 0.0

    def test_thresholded_projection(self):
        assert coefficient_l2([2, 0], [1, 0], lambda_u=2.0) == 1.0
        # Cross-check against the brute-force oracle on (2 - t)^2 + 2t.
        p = ScalarProxProblem("quadratic", np.array([2.0, 0.0]), np.array([1.0, 0.0]), 2.0)
        argmin, _ = brute_force_min(p, 0.01)
        assert_allclose(argmin, 1.0, atol=1e-6)


class TestDistanceL2:
    def test_exact_fit(self):
        assert distance_l2([1, 1], [1, 1]) == 0.0

    def test_orthogonal(self):
        assert distance_l2([1, 0], [0, 1]) == 1.0

    def test_regularized(self):
        assert_allclose(distance_l2([2, 0], [1, 0], lambda_u=2.0), 3.0)

    def test_closed_form_branches(self):
        assert_allclose(distance_l2_closed_form([2, 0], [1, 0], lambda_u=2.0), 3.0)
        assert distance_l2_closed_form([1, 0], [0, 1]) == 1.0
        assert_allclose(distance_l2_closed_form([1, 1], [1, 1], mu_u=1.0), 2.0 / 3.0)

    def test_angle_form(self):
        assert distance_l2_angle_form([1, 0], [2, 0]) == 0.0
        assert_allclose(distance_l2_angle_form([1, 1], [1, 0]), 1.0)
        assert_allclose(distance_l2_angle_form([2, 0], [1, 0], lambda_u=2.0), 3.0)
        # <x, v>^2 and ||x||^2 ||v||^2 overflow here; the ratios do not.
        assert distance_l2_angle_form([1e100], [1e100]) == 0.0

    def test_angle_form_rejects_zero_norm(self):
        with pytest.raises(ValueError):
            distance_l2_angle_form([0, 0], [1, 0])

    # Where lambda_u / 2 > <x, v> the coefficient is 0 and the distance
    # ||x||^2 (1.0 and 2.0 here); the angle form used to return 0.75 and 1.0.
    @pytest.mark.parametrize("x, v, lam", [([1, 0], [0, 1], 1.0), ([1, 1], [1, 0], 4.0)])
    def test_angle_form_rejects_a_suppressed_coefficient(self, x, v, lam):
        with pytest.raises(ValueError, match=r"lambda_u / 2 <= <x, v>"):
            distance_l2_angle_form(x, v, lam)

    def test_identity_direct_vs_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x = rng.uniform(0, 10, n)
            v = rng.uniform(0, 10, n)
            lam, mu = rng.uniform(0, 5, 2)
            assert_allclose(
                distance_l2(x, v, lam, mu),
                distance_l2_closed_form(x, v, lam, mu),
                atol=1e-9,
            )

    def test_identity_closed_vs_angle_form(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x = rng.uniform(0.1, 10, n)
            v = rng.uniform(0.1, 10, n)
            lam = float(rng.uniform(0, 5))
            if lam / 2 > float(x @ v):
                continue
            checked += 1
            assert_allclose(
                distance_l2_closed_form(x, v, lam, 0.0),
                distance_l2_angle_form(x, v, lam),
                atol=1e-9,
            )
        assert checked > 200

    def test_scale_invariance_unregularized(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            x = rng.uniform(0, 10, n)
            v = rng.uniform(0.1, 10, n)
            c = float(rng.uniform(0.01, 100))
            assert_allclose(distance_l2(x, c * v), distance_l2(x, v), atol=1e-9)

    def test_bounded_by_data_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x = rng.uniform(0, 10, n)
            v = rng.uniform(0, 10, n) + 1e-3
            lam, mu = rng.uniform(0, 5, 2)
            d = distance_l2(x, v, lam, mu)
            xx = float(x @ x)
            assert d <= xx + 1e-12
            if lam / 2 >= float(x @ v):
                assert_allclose(d, xx)
            else:
                assert d < xx

    def test_not_a_metric(self):
        # With an active sparsity penalty, dist(x, x) > 0.
        x = np.array([1.0, 0.0])
        assert distance_l2(x, x, lambda_u=2.0) > 0.0


class TestL1Family:
    def test_coefficient_flat_interval_midpoint(self):
        assert coefficient_l1([1, 2], [1, 1]) == 1.5

    def test_coefficient_exact_fit(self):
        assert coefficient_l1([3, 5], [3, 5]) == 1.0

    def test_coefficient_ridge(self):
        assert coefficient_l1([2], [1], mu_u=1.0) == 0.5

    def test_distance_exact_fit(self):
        assert distance_l1([1, 2], [1, 2]) == 0.0

    def test_distance_midpoint(self):
        # t* = 1.5 from the flat minimizer interval; brute force agrees.
        assert_allclose(distance_l1([1, 2], [1, 1]), 1.0)
        p = ScalarProxProblem("weighted_l1", np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        _, value = brute_force_min(p, 0.01)
        assert_allclose(value, 1.0, atol=1e-8)

    def test_distance_zero_centroid(self):
        # The coefficient 0 of the constant objective, without a warning.
        assert coefficient_l1([5.0], [0.0]) == 0.0
        assert distance_l1([5.0], [0.0]) == 5.0

    def test_bounded_by_data_l1_norm(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x = rng.uniform(0, 10, n)
            v = rng.uniform(0.1, 10, n)
            lam, mu = rng.uniform(0, 5, 2)
            assert distance_l1(x, v, lam, mu) <= float(np.abs(x).sum()) + 1e-12

    def test_not_a_metric(self):
        assert distance_l1([1.0], [1.0], lambda_u=1.0) > 0.0


class TestAssign:
    def test_binary_nearest(self):
        spec = ModelSpec("l2", "binary")
        k, coeff, dist = assign([0, 0.4], [[0, 0.5], [10, 10]], spec)
        assert (k, coeff) == (0, 1.0)
        assert_allclose(dist, 0.01)

    def test_regularized_branch_comparison(self):
        spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=2.0))
        k, coeff, dist = assign([2, 0], [[1, 0], [0, 1]], spec)
        assert (k, coeff, dist) == (0, 1.0, 3.0)

    def test_tie_breaks_to_lowest_index(self):
        spec = ModelSpec("l2", "binary")
        k, _, _ = assign([1, 1], [[1, 0], [0, 1]], spec)
        assert k == 0

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        spec = ModelSpec("l1", "c1_free", RegularizationParams(0.5, 0, 0.5, 0))
        x = rng.uniform(0, 10, 5)
        V = rng.uniform(0, 10, (4, 5))
        assert assign(x, V, spec) == assign(x, V, spec)

    def test_degenerate_rows_skipped(self):
        spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=1.0))
        k, _, _ = assign([2, 0], [[0, 0], [1, 0]], spec)
        assert k == 1

    def test_all_zero_centroids_cost_the_full_norm(self):
        spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=1.0))
        assert assign([2, 0], [[0, 0], [0, 0]], spec) == (0, 0.0, 4.0)

    def test_zero_centroid_without_penalty_uses_limit(self):
        spec = ModelSpec("l2", "c1_free")
        k, coeff, dist = assign([2, 0], [[0, 0]], spec)
        assert (k, coeff, dist) == (0, 0.0, 4.0)

    def test_normalized_mode_projection(self):
        spec = ModelSpec("l2", "normalized")
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        k, coeff, dist = assign([2, 0], [v], spec)
        assert k == 0
        assert_allclose(coeff, np.sqrt(2.0))
        assert_allclose(dist, float(((np.array([2.0, 0.0]) - np.sqrt(2) * v) ** 2).sum()))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: coefficient_l2([1.0, 2.0], [1.0]), ValueError, "equal length"),
        (lambda: distance_l1([1.0], [1.0, 2.0]), ValueError, "equal length"),
        (lambda: assign(np.ones(2), np.ones((2, 3)), ModelSpec()), ValueError, "equal length"),
        (lambda: assign(np.ones(2), np.ones((2, 3, 2)), ModelSpec()), ValueError, "shape"),
    ],
)
def test_malformed_pairs_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


# A zero centroid, and one whose ||v||^2 underflows to 0, admit no l2
# coefficient: every function gives the pair kernel's coefficient 0 and its
# distance ||x||^2, with a sparsity penalty or without one.
@pytest.mark.parametrize("v", [[0.0, 0.0], [1e-200, 0.0]])
@pytest.mark.parametrize("lam", [1.0, 0.0])
def test_degenerate_l2_centroids_follow_the_kernel_rule(v, lam):
    x = [3.0, 4.0]
    spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=lam))
    T, D = _pair_costs(np.array([x]), np.array([v]), spec)
    assert coefficient_l2(x, v, lam) == T[0, 0] == 0.0
    assert distance_l2(x, v, lam) == distance_l2_closed_form(x, v, lam) == D[0, 0] == 25.0
    assert coefficient_and_distance(x, v, spec) == (0.0, 25.0)


# The one rule of every cell: a zero centroid row has coefficient +0.0 (1 in
# binary mode) and costs the row's full norm, ||x||^2 under l2 and ||x||_1
# under l1, under any lambda_u and mu_u the mode admits.
ZERO_CENTROID_CASES = [
    (discrepancy, mode, lam, mu)
    for discrepancy in ("l1", "l2")
    for mode in ("c1_free", "normalized", "binary")
    for lam, mu in ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)] if mode == "c1_free" else [(0.0, 0.0)])
]


@pytest.mark.parametrize("discrepancy, mode, lam, mu", ZERO_CENTROID_CASES)
def test_a_zero_centroid_costs_the_full_norm_in_every_cell(discrepancy, mode, lam, mu):
    x, V = np.array([[3.0, 4.0]]), np.zeros((2, 2))
    spec = ModelSpec(discrepancy, mode, RegularizationParams(lambda_u=lam, mu_u=mu))
    norm, coeff = (25.0 if discrepancy == "l2" else 7.0), (1.0 if mode == "binary" else 0.0)
    T, D = _pair_costs(x, V, spec)
    assert (T == coeff).all() and not np.signbit(T).any() and (D == norm).all()
    labels, coeffs, _ = distance._nearest(x, np.array([25.0]), V, spec)
    assert labels.tolist() == [0] and coeffs.tolist() == [coeff] and not np.signbit(coeffs).any()
    k, t, d = assign(x[0], V, spec)
    assert (k, t, d) == (0, coeff, norm) and not np.signbit(t)
    t, d = coefficient_and_distance(x[0], V[0], spec)
    assert (t, d) == (coeff, norm) and not np.signbit(t)


def test_every_public_name_resolves():
    assert all(hasattr(onmfcluster, name) for name in onmfcluster.__all__)
    assert "DegenerateCentroidError" not in onmfcluster.__all__


def test_the_public_api_is_pinned():
    # The paper-level functions, fit and its types; the batched kernels a fit
    # runs are private and have no public name in any module.
    assert sorted(onmfcluster.__all__) == [
        "DuplicateRowsError", "FactorizationResult", "FitStep", "Membership", "ModelSpec",
        "NoValidCentroidError", "RegularizationParams", "ScalarProxProblem", "SolverConfig",
        "as_data_matrix", "assign", "brute_force_min", "centroid_l1", "centroid_l2",
        "coefficient_and_distance", "coefficient_l1", "coefficient_l2", "distance_l1", "distance_l2",
        "distance_l2_angle_form", "distance_l2_closed_form", "fit", "fit_history", "init_centroids",
        "objective", "soft_threshold", "solve_closed_form", "weighted_reg_median",
    ]
    modules = (onmfcluster, onmfcluster.centroid, onmfcluster.distance, onmfcluster.model, onmfcluster.solver)
    for name in ("pair_costs", "nearest", "row_costs", "update_centroids", "dense_u"):
        assert not any(hasattr(module, name) for module in modules), name


OVERFLOW_MESSAGE = "a row's pair costs to every centroid overflow float64; rescale the data"


# Seeded from the row 5e-324, the row 6.36961687's l1 coefficient overflows,
# so that row has no centroid at a finite distance, in the bounded
# assignment as in the full kernel. A normalized seed is a unit row, against
# which no coefficient of these rows overflows.
def test_an_l1_row_with_no_finite_centroid_raises():
    X = np.array([[5e-324], [6.36961687]])
    spec, config = ModelSpec("l1", "c1_free"), SolverConfig(n_clusters=1, seed=0)
    assert_array_equal(init_centroids(X, config, spec), X[:1])
    with pytest.raises(NoValidCentroidError, match=re.escape(OVERFLOW_MESSAGE)):
        fit(X, spec, config)
    with pytest.raises(NoValidCentroidError, match=re.escape(OVERFLOW_MESSAGE)):
        _argmin(*_pair_costs(X, X[:1], spec))
    assert fit(X, ModelSpec("l1", "normalized"), config).centroids.tolist() == [[1.0]]
