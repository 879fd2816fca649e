"""Unit tests for initialization and the alternating-minimization driver."""

import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import (
    DuplicateRowsError,
    ModelSpec,
    RegularizationParams,
    SolverConfig,
    coefficient_and_distance,
    fit,
    fit_history,
    init_centroids,
)
from reference import kmedian_history, lloyd_kmeans_history

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])


class TestInitCentroids:
    def test_k_equals_m_is_a_permutation(self):
        cfg = SolverConfig(n_clusters=4, seed=3)
        V = init_centroids(FOUR_POINTS, cfg, ModelSpec())
        assert sorted(map(tuple, V)) == sorted(map(tuple, FOUR_POINTS))

    @pytest.mark.parametrize("init", ["random_rows", "plusplus"])
    def test_k_one_picks_a_data_row(self, init):
        cfg = SolverConfig(n_clusters=1, seed=5, init=init)
        V = init_centroids(FOUR_POINTS, cfg, ModelSpec())
        assert any(np.array_equal(V[0], row) for row in FOUR_POINTS)

    @pytest.mark.parametrize("init", ["random_rows", "plusplus"])
    def test_deterministic_given_seed(self, init):
        cfg = SolverConfig(n_clusters=3, seed=42, init=init)
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, (20, 4))
        assert_array_equal(init_centroids(X, cfg, ModelSpec()), init_centroids(X, cfg, ModelSpec()))

    @pytest.mark.parametrize("init", ["random_rows", "plusplus"])
    def test_duplicate_rows_error(self, init):
        X = np.array([[1.0, 2.0]] * 5)
        cfg = SolverConfig(n_clusters=2, seed=1, init=init)
        with pytest.raises(DuplicateRowsError):
            init_centroids(X, cfg, ModelSpec())

    def test_random_rows_skips_duplicates(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        cfg = SolverConfig(n_clusters=2, seed=0)
        V = init_centroids(X, cfg, ModelSpec())
        assert sorted(map(tuple, V)) == [(1.0,), (2.0,)]

    def test_plusplus_prefers_spread_rows(self):
        # With two tight groups, the second seed lands in the other group.
        X = np.vstack([np.full((10, 2), 0.1), np.full((10, 2), 9.9)])
        X += np.linspace(0, 1e-3, 20)[:, None]
        cfg = SolverConfig(n_clusters=2, seed=8, init="plusplus")
        V = init_centroids(X, cfg, ModelSpec("l2", "binary"))
        groups = {0 if row[0] < 5 else 1 for row in V}
        assert groups == {0, 1}

    def test_more_clusters_than_rows(self):
        cfg = SolverConfig(n_clusters=5, seed=0)
        with pytest.raises(ValueError):
            init_centroids(FOUR_POINTS, cfg, ModelSpec())


class TestFitBasics:
    def test_four_point_binary_l2(self):
        # Seed 7 initializes on rows 0 and 2.
        spec = ModelSpec("l2", "binary")
        cfg = SolverConfig(n_clusters=2, seed=7)
        assert_array_equal(init_centroids(FOUR_POINTS, cfg, spec), FOUR_POINTS[[0, 2]])
        res = fit(FOUR_POINTS, spec, cfg)
        assert_allclose(res.centroids, [[0.0, 0.5], [10.0, 10.5]])
        assert_array_equal(res.membership.labels, [0, 0, 1, 1])
        assert res.converged and res.iterations <= 3

    def test_k_one_is_column_means(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 10, (15, 3))
        res = fit(X, ModelSpec("l2", "binary"), SolverConfig(n_clusters=1, seed=0))
        assert_allclose(res.centroids[0], X.mean(axis=0))
        assert_allclose(res.objective_trace[-1], ((X - X.mean(axis=0)) ** 2).sum())

    def test_k_one_l1_is_coordinate_median(self):
        X = np.array([[1.0], [2.0], [9.0]])
        res = fit(X, ModelSpec("l1", "binary"), SolverConfig(n_clusters=1, seed=0))
        assert_allclose(res.centroids, [[2.0]])
        assert_allclose(res.objective_trace[-1], 8.0)

    def test_k_exceeding_rows_rejected(self):
        with pytest.raises(ValueError):
            fit(FOUR_POINTS, ModelSpec(), SolverConfig(n_clusters=9, seed=0))

    def test_nonconvergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 10, (30, 3))
        res = fit(X, ModelSpec("l2", "binary"), SolverConfig(n_clusters=4, seed=1, max_iter=1))
        assert res.iterations == 1 and not res.converged

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 10, (25, 4))
        spec = ModelSpec("l1", "c1_free", RegularizationParams(0.3, 0.2, 0.1, 0.4))
        cfg = SolverConfig(n_clusters=3, seed=99)
        a = fit(X, spec, cfg)
        b = fit(X, spec, cfg)
        assert_array_equal(a.membership.labels, b.membership.labels)
        assert_array_equal(a.membership.coefficients, b.membership.coefficients)
        assert_array_equal(a.centroids, b.centroids)
        assert_array_equal(a.objective_trace, b.objective_trace)
        assert a.iterations == b.iterations
        assert a.converged == b.converged
        assert a.unassigned_rows == b.unassigned_rows


def _random_instance(rng, max_m=40):
    M = int(rng.integers(4, max_m))
    N = int(rng.integers(1, 8))
    K = int(rng.integers(1, min(5, M) + 1))
    return rng.uniform(0, 10, (M, N)), K


class TestMonotoneDescent:
    @pytest.mark.parametrize(
        "discrepancy, mode",
        list(itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"])),
    )
    def test_trace_non_increasing(self, discrepancy, mode):
        rng = np.random.default_rng(hash((discrepancy, mode)) % 2**32)
        for _ in range(6):
            X, K = _random_instance(rng)
            if mode == "c1_free":
                reg = RegularizationParams(*(rng.uniform(0, 2, 4) * (rng.random(4) < 0.5)))
            elif mode == "binary":
                reg = RegularizationParams(0.0, float(rng.uniform(0, 2)), 0.0, float(rng.uniform(0, 2)))
            else:
                reg = RegularizationParams()
            policy = (
                "keep_previous" if (reg.lambda_v > 0 or reg.mu_v > 0) else "reseed_farthest"
            )
            res = fit(
                X,
                ModelSpec(discrepancy, mode, reg),
                SolverConfig(n_clusters=K, seed=int(rng.integers(2**32)),
                             empty_cluster_policy=policy),
            )
            assert (np.diff(res.objective_trace) <= 1e-10).all()


class TestClassicalReductions:
    def test_matches_lloyd_per_iteration(self):
        rng = np.random.default_rng(12)
        spec = ModelSpec("l2", "binary")
        for _ in range(8):
            X, K = _random_instance(rng)
            cfg = SolverConfig(n_clusters=K, seed=int(rng.integers(2**32)), tol=0.0)
            init = init_centroids(X, cfg, spec)
            ours = fit_history(X, spec, cfg)
            lloyd = lloyd_kmeans_history(X, K, init, max_iter=cfg.max_iter)
            assert len(ours) == len(lloyd)
            for step, ref in zip(ours, lloyd):
                assert_array_equal(step.membership.labels, ref.assignments)
                assert_allclose(step.centroids, ref.centroids, atol=1e-9)
                assert_allclose(step.objective, ref.cost, atol=1e-9)

    def test_matches_kmedian_per_iteration(self):
        rng = np.random.default_rng(14)
        spec = ModelSpec("l1", "binary")
        for _ in range(8):
            X, K = _random_instance(rng, max_m=30)
            cfg = SolverConfig(n_clusters=K, seed=int(rng.integers(2**32)), tol=0.0)
            init = init_centroids(X, cfg, spec)
            ours = fit_history(X, spec, cfg)
            ref_steps = kmedian_history(X, K, init, max_iter=cfg.max_iter)
            assert len(ours) == len(ref_steps)
            for step, ref in zip(ours, ref_steps):
                assert_array_equal(step.membership.labels, ref.assignments)
                assert_allclose(step.centroids, ref.centroids, atol=1e-9)


class TestNormalizedMode:
    def test_unit_norm_rows_every_iteration(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            X, K = _random_instance(rng)
            steps = fit_history(
                X, ModelSpec("l2", "normalized"),
                SolverConfig(n_clusters=K, seed=int(rng.integers(2**32))),
            )
            for step in steps:
                assert_allclose(np.linalg.norm(step.centroids, axis=1), 1.0, atol=1e-12)

    def test_assignment_maximizes_inner_product(self):
        rng = np.random.default_rng(18)
        X, K = _random_instance(rng)
        res = fit(X, ModelSpec("l2", "normalized"), SolverConfig(n_clusters=K, seed=0))
        expected = np.argmax(X @ res.centroids.T, axis=1)
        assert_array_equal(res.membership.labels, expected)


class TestZeroRows:
    def _sparse_setup(self):
        # Row 4 is tiny: lambda_u/2 = 2 exceeds its inner product with any
        # centroid built from the big rows. mu_v pins the scale of V (with a
        # membership penalty alone, the factorization escapes it by growing V
        # while shrinking the coefficients).
        X = np.array(
            [[10.0, 0.0], [10.0, 1.0], [0.0, 10.0], [1.0, 10.0], [0.05, 0.05]]
        )
        spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=4.0, mu_v=1.0))
        return X, spec

    def test_thresholded_row_reported_unassigned(self):
        X, spec = self._sparse_setup()
        res = fit(X, spec, SolverConfig(n_clusters=2, seed=1))
        assert 4 in res.unassigned_rows
        assert res.membership.coefficients[4] == 0.0
        assert res.membership.labels[4] >= 0  # keep_last_cluster retains a label
        k, coeff, dist = (res.membership.labels[4], 0.0,
                          coefficient_and_distance(X[4], res.centroids[res.membership.labels[4]], spec)[1])
        assert_allclose(dist, float(X[4] @ X[4]), atol=1e-12)

    def test_exclude_policy_drops_label(self):
        X, spec = self._sparse_setup()
        res = fit(X, spec, SolverConfig(n_clusters=2, seed=1, zero_row_policy="exclude"))
        assert 4 in res.unassigned_rows
        assert res.membership.labels[4] == -1

    def test_big_rows_stay_assigned(self):
        X, spec = self._sparse_setup()
        res = fit(X, spec, SolverConfig(n_clusters=2, seed=1))
        assert res.unassigned_rows == {4}


class TestStreamedRun:
    @pytest.mark.parametrize(
        "stop, spec, config",
        [
            ("assignments_repeated", ModelSpec("l2", "binary"), SolverConfig(n_clusters=4, seed=3, tol=0.0)),
            ("tol", ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=1.0, mu_v=0.5)),
             SolverConfig(n_clusters=4, seed=3, tol=1e-4)),
            ("max_iter", ModelSpec("l1", "c1_free", RegularizationParams(0.5, 0.2, 0.1, 0.3)),
             SolverConfig(n_clusters=4, seed=3, max_iter=3, tol=0.0)),
        ],
    )
    def test_fit_is_the_last_step_of_fit_history(self, stop, spec, config):
        X = np.random.default_rng(30).uniform(0, 10, (200, 3))
        res = fit(X, spec, config)
        steps = fit_history(X, spec, config)
        last, before = steps[-1], steps[-2]
        repeated = np.array_equal(last.membership.labels, before.membership.labels) and np.array_equal(
            last.membership.coefficients, before.membership.coefficients
        )
        assert repeated == (stop == "assignments_repeated")
        assert (len(steps) == config.max_iter) == (stop == "max_iter")
        assert res.converged == (stop != "max_iter")

        assert res.iterations == len(steps)
        assert_array_equal(res.objective_trace, [s.objective for s in steps])
        assert_array_equal(res.membership.labels, last.membership.labels)
        assert_array_equal(res.membership.coefficients, last.membership.coefficients)
        assert_array_equal(res.centroids, last.centroids)

    def test_peak_memory_does_not_grow_with_iterations(self):
        X = np.random.default_rng(0).uniform(0, 1, (5000, 4))
        spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=1.0, mu_v=0.5))
        peaks = []
        for max_iter in (20, 200):
            tracemalloc.start()
            try:
                res = fit(X, spec, SolverConfig(n_clusters=3, max_iter=max_iter, tol=0.0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.iterations == max_iter
        assert peaks[1] - peaks[0] < 2**20, peaks
