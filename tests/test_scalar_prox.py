"""Unit tests for the scalar subproblem solvers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onmfcluster import (
    ScalarProxProblem,
    brute_force_min,
    centroid_l1,
    coefficient_l1,
    soft_threshold,
    solve_closed_form,
    weighted_reg_median,
)


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "gamma, x, expected",
        [
            (0.5, 2.0, 1.5),
            (0.0, 3.7, 3.7),
            (1.0, 1.0, 0.0),
            (2.0, -1.0, 0.0),
        ],
    )
    def test_values(self, gamma, x, expected):
        assert soft_threshold(gamma, x) == expected

    def test_zero_is_positive_zero(self):
        assert not np.signbit(soft_threshold(0.0, -0.0))

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(-0.1, 1.0)


class TestWeightedRegMedian:
    def test_classical_median(self):
        assert weighted_reg_median([1, 2, 3], [1, 1, 1]) == 2.0

    def test_even_length_midpoint(self):
        # Minimizer interval is [1, 3]; midpoint convention.
        assert weighted_reg_median([1, 3], [1, 1]) == 2.0

    def test_ridge_shrinkage(self):
        # min |2 - t| + t^2 has its interior stationary point at t = 1/2.
        assert weighted_reg_median([2], [1], 0.0, 1.0) == 0.5

    def test_matches_numpy_median_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            v = rng.uniform(0, 10, n)
            got = weighted_reg_median(v, np.ones(n))
            assert got == np.median(v)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            v = rng.uniform(0, 10, n)
            w = rng.uniform(0, 10, n)
            lam, mu = rng.uniform(0, 5, 2)
            assert weighted_reg_median(v, w, lam, mu) >= 0.0

    def test_monotone_shrinkage_in_lambda(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            v = rng.uniform(0, 10, n)
            w = rng.uniform(0, 10, n)
            mu = float(rng.uniform(0, 5))
            lams = np.sort(rng.uniform(0, 5, 3))
            values = [weighted_reg_median(v, w, lam, mu) for lam in lams]
            assert values[0] >= values[1] >= values[2]

    def test_a_zero_minimizer_is_positive_zero(self):
        # The piece [0, 2/3] has slope +0.0, so its root +0.0 / (-2 mu) is -0.0.
        v, w = [1.0, 0.0, 1.0], [0.5, 2.0, 1.5]
        t = [weighted_reg_median(v, w, 0.0, 0.5), coefficient_l1(v, w, 0.0, 0.5)]
        t += list(centroid_l1(np.array(v)[:, None], w, 0.0, 0.5))
        assert t == [0.0] * 3 and not np.signbit(t).any()

    def test_degenerate_flat_objective_takes_zero(self):
        # A constant objective has the minimizer 0, without a warning (and
        # warnings are errors under the test configuration).
        assert weighted_reg_median([1, 2], [0, 0], 0.0, 0.0) == 0.0

    def test_all_zero_weights_with_penalty_is_silent(self):
        # Penalties make the objective strictly increasing: no degeneracy.
        assert weighted_reg_median([1, 2], [0, 0], 1.0, 0.0) == 0.0
        assert weighted_reg_median([1, 2], [0, 0], 0.0, 1.0) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_reg_median([1, 2], [1])


class TestScalarProxProblem:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ScalarProxProblem("quadratic", np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ScalarProxProblem("quadratic", np.array([1.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            ScalarProxProblem("quadratic", np.array([1.0]), np.array([1.0]), l1_weight=-1)
        with pytest.raises(ValueError):
            ScalarProxProblem("cubic", np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize("l1_weight", [0.0, 1.0])
    def test_no_curvature_takes_zero(self, l1_weight):
        # With zero weights and no l2 weight the quadratic objective is
        # ||targets||^2 + l1_weight t, which t = 0 minimizes.
        p = ScalarProxProblem("quadratic", np.array([1.0, 2.0]), np.zeros(2), l1_weight)
        assert solve_closed_form(p) == 0.0

    def test_value_shapes(self):
        p = ScalarProxProblem("quadratic", np.array([2.0]), np.array([1.0]), 2.0)
        assert p.value(1.0) == 3.0
        assert_allclose(p.value(np.array([0.0, 1.0])), [4.0, 3.0])


class TestBruteForceMin:
    def test_quadratic_with_l1_penalty(self):
        # min (2 - t)^2 + 2t is stationary at t = 1 with value 3.
        p = ScalarProxProblem("quadratic", np.array([2.0]), np.array([1.0]), 2.0)
        argmin, value = brute_force_min(p, 0.01)
        assert_allclose(argmin, 1.0, atol=1e-6)
        assert_allclose(value, 3.0, atol=1e-8)

    def test_weighted_l1_median(self):
        p = ScalarProxProblem("weighted_l1", np.array([1.0, 2.0, 3.0]), np.ones(3))
        argmin, value = brute_force_min(p, 0.01)
        assert_allclose(value, 2.0, atol=1e-8)
        assert_allclose(argmin, 2.0, atol=1e-3)

    @pytest.mark.parametrize("kind", ["quadratic", "weighted_l1"])
    def test_exact_fit(self, kind):
        p = ScalarProxProblem(kind, np.array([5.0]), np.array([1.0]))
        argmin, value = brute_force_min(p, 0.01)
        assert_allclose(argmin, 5.0, atol=1e-6)
        assert_allclose(value, 0.0, atol=1e-8)

    def test_resolution_must_be_positive(self):
        p = ScalarProxProblem("quadratic", np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            brute_force_min(p, 0.0)


def _random_problem(rng, kind):
    n = int(rng.integers(1, 21))
    return ScalarProxProblem(
        kind,
        rng.uniform(0, 10, n),
        rng.uniform(0, 10, n),
        float(rng.uniform(0, 5)),
        float(rng.uniform(0, 5)),
    )


@pytest.mark.parametrize("kind", ["quadratic", "weighted_l1"])
def test_closed_form_agrees_with_oracle(kind):
    rng = np.random.default_rng(2024)
    for _ in range(150):
        p = _random_problem(rng, kind)
        t_closed = solve_closed_form(p)
        t_brute, v_brute = brute_force_min(p, 0.05)
        assert p.value(t_closed) <= v_brute + 1e-8
        if p.l2_weight > 0:
            assert abs(t_closed - t_brute) <= 1e-6
