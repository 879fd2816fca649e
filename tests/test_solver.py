"""Unit tests for initialization and the alternating-minimization driver."""

import dataclasses
import itertools
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import (
    DuplicateRowsError,
    Membership,
    ModelSpec,
    NoValidCentroidError,
    RegularizationParams,
    SolverConfig,
    coefficient_and_distance,
    fit,
    fit_history,
    init_centroids,
)
from onmfcluster import solver
from onmfcluster.centroid import _update_centroids
from onmfcluster.distance import _pair_costs
from onmfcluster.model import _row_costs
from reference import kmedian_history, lloyd_kmeans_history, plain_objective, random_rows_seeds

CELLS = list(itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"]))
FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
# Under an l2 sparsity penalty with mu_u = 0 a zero centroid has no
# coefficient, so the pair kernel costs every row its ||x||^2 there.
LASSO = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=1.0))
ZERO_ROWS = np.vstack([np.zeros((6, 2)), np.random.default_rng(1).uniform(1, 5, (6, 2))])


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

    @pytest.mark.parametrize("discrepancy, mode", CELLS)
    def test_plusplus_rows_are_distinct_under_penalties(self, discrepancy, mode):
        # A membership penalty puts a row at a positive distance from itself,
        # so without care a chosen row, or a copy of it, is drawn again.
        X = np.array([[1.0, 2.0], [5.0, 1.0], [2.0, 7.0], [1.0, 2.0], [0.0, 3.0], [-0.0, 3.0]])
        lam, mu = (3.0, 1.0) if mode == "c1_free" else (0.0, 0.0)
        spec = ModelSpec(discrepancy, mode, RegularizationParams(lam, 0.5, mu, 0.5))
        for seed in range(50):
            V = init_centroids(X, SolverConfig(n_clusters=4, seed=seed, init="plusplus"), spec)
            assert len({tuple(row + 0.0) for row in V}) == 4, seed

    @pytest.mark.parametrize("init", ["random_rows", "plusplus"])
    @pytest.mark.parametrize("seed", [1, 6, 9, 11])
    def test_a_degenerate_draw_is_fit_through(self, init, seed):
        # plusplus draws a zero row first at these seeds. Every row then lies
        # at its ||x||^2, so the second draw is in proportion to it and never
        # a zero row, and the zero centroid's empty cluster is reseeded, as
        # after a random_rows draw.
        config = SolverConfig(n_clusters=2, seed=seed, init=init)
        V = init_centroids(ZERO_ROWS, config, LASSO)
        if init == "plusplus":
            assert_array_equal(V[0], [0.0, 0.0])
            assert (V[1] > 0.0).all()
        trace = [step.objective for step in fit_history(ZERO_ROWS, LASSO, config)]
        assert np.isfinite(trace).all() and (np.diff(trace) <= 0.0).all()

    @pytest.mark.parametrize("init", ["random_rows", "plusplus"])
    def test_all_zero_rows_are_duplicates_under_a_sparsity_penalty(self, init):
        with pytest.raises(DuplicateRowsError):
            fit(np.zeros((5, 3)), LASSO, SolverConfig(n_clusters=2, seed=0, init=init))

    @pytest.mark.parametrize("init, seed", [("plusplus", 1), ("random_rows", 0), ("random_rows", 1)])
    def test_a_lone_zero_centroid_is_fit_through(self, init, seed):
        # The zero centroid costs every row ||x||^2 at coefficient 0, so step
        # 1 leaves all four rows unassigned at objective ||[1, 2]||^2 = 5. The
        # empty cluster then takes its farthest row, [1, 2].
        X = np.vstack([np.zeros((3, 2)), [[1.0, 2.0]]])
        config = SolverConfig(n_clusters=1, seed=seed, init=init)
        assert_array_equal(init_centroids(X, config, LASSO), [[0.0, 0.0]])
        steps = fit_history(X, LASSO, config)
        assert steps[0].membership.labels.tolist() == [-1] * 4 and steps[0].objective == 5.0
        assert_array_equal(steps[0].centroids, [[1.0, 2.0]])
        assert (np.diff([step.objective for step in steps]) <= 0.0).all()

    def test_normalized_seeds_are_the_drawn_rows_over_their_norms(self):
        # 5e-324's square underflows, so that row's norm is 0 in float64; it
        # becomes e_j for its largest entry j, and the zero row e_0.
        X = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 2.0], [5e-324, 0.0]])
        config = SolverConfig(n_clusters=4, seed=0)
        unit = {(0.0, 0.0): (1.0, 0.0), (3.0, 4.0): (0.6, 0.8), (0.0, 2.0): (0.0, 1.0), (5e-324, 0.0): (1.0, 0.0)}
        drawn = init_centroids(X, config, ModelSpec())
        seeds = init_centroids(X, config, ModelSpec("l1", "normalized"))
        assert [tuple(row) for row in seeds] == [unit[tuple(row)] for row in drawn]

    def test_more_clusters_than_rows(self):
        cfg = SolverConfig(n_clusters=5, seed=0)
        with pytest.raises(ValueError):
            init_centroids(FOUR_POINTS, cfg, ModelSpec())

    @pytest.mark.parametrize("mode", ["c1_free", "normalized"])
    def test_plusplus_reads_the_fits_squared_norms(self, mode, monkeypatch):
        # The fit hands seeding the ||x||^2 it computed when it checked X, so
        # no draw recomputes them, and the draws are the public function's.
        X = np.random.default_rng(4).uniform(0, 10, (300, 5))
        spec = ModelSpec("l2", mode, RegularizationParams(lambda_u=1.0 if mode == "c1_free" else 0.0))
        config = SolverConfig(n_clusters=4, seed=2, init="plusplus", max_iter=1)
        norms = []

        def recording(X_, V, spec_, xx=None):
            if V.shape[0] == 1:
                norms.append(xx)
            return _pair_costs(X_, V, spec_, xx)

        monkeypatch.setattr(solver, "_pair_costs", recording)
        step = fit_history(X, spec, config)[0]
        assert len(norms) == 4
        for xx in norms:
            assert xx is not None and xx.tobytes() == np.einsum("mn,mn->m", X, X).tobytes()
        monkeypatch.undo()
        T, D = _pair_costs(X, init_centroids(X, config, spec), spec)
        labels = D.argmin(axis=1)
        assert_array_equal(step.membership.labels, np.where(T[np.arange(300), labels] > 0, labels, -1))


@st.composite
def seeding_problems(draw):
    """Data with injected duplicate rows, rows of 0.0 and -0.0, K up to M."""
    N = draw(st.integers(1, 4))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(0.0, 10.0))
    base = draw(arrays(float, (draw(st.integers(1, 6)), N), elements=entries))
    X = base[draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=1, max_size=25))]
    return X, draw(st.integers(1, X.shape[0])), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(seeding_problems())
@example((np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 0.0]]), 3, 0))  # signed zeros are duplicates
@example((np.array([[0.0, -0.0], [2.0, 1.0], [1.0, 2.0]]), 3, 4))  # K = M
@example((np.full((7, 3), 2.5), 2, 9))  # all rows equal
def test_random_rows_takes_the_rows_of_the_loop(problem):
    X, K, seed = problem
    expected = random_rows_seeds(X, K, seed)
    config = SolverConfig(n_clusters=K, seed=seed)
    if len(expected) < K:
        message = f"only {len(expected)} distinct rows for {K} centroids"
        with pytest.raises(DuplicateRowsError, match=message):
            init_centroids(X, config, ModelSpec())
        return
    # Byte for byte, so every zero of the chosen rows is +0.0.
    assert init_centroids(X, config, ModelSpec()).tobytes() == (X[expected] + 0.0).tobytes()


def test_random_rows_memory_is_linear_in_the_rows_it_scans():
    # 4000 copies of one row hide three distinct ones, so the scan reaches
    # every row; a pairwise comparison of them would need 16 MB or more. Rows
    # are keyed one at a time, so the scan holds no gather of those it read.
    M, N = 4003, 8
    X = np.vstack([np.ones((M - 3, N)), np.arange(3.0 * N).reshape(3, N) + 2.0])
    config = SolverConfig(n_clusters=4, seed=0)
    init_centroids(X, config, ModelSpec())
    tracemalloc.start()
    try:
        V = init_centroids(X, config, ModelSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(map(tuple, V))[1:] == sorted(map(tuple, X[M - 3:]))
    assert peak < X.nbytes // 2


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

    @pytest.mark.parametrize(
        "field, value", [("n_clusters", 2.0), ("max_iter", 2.5), ("seed", 1.5), ("n_clusters", "2")]
    )
    def test_non_integral_counts_and_seed_rejected(self, field, value):
        # Caught at construction, not as a TypeError from slicing or range mid-fit.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{"n_clusters": 2, field: value})

    @pytest.mark.parametrize("field", ["n_clusters", "max_iter", "seed"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_not_integers(self, field, value):
        # bool passes the Integral check, and n_clusters=True used to die in
        # the centroid update with np.bincount's "an integer is required".
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            SolverConfig(**{"n_clusters": 2, field: value})
        assert SolverConfig(**{"n_clusters": 2, field: int(value) + 1})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_clusters", 0, "n_clusters must be >= 1"),
            ("max_iter", 0, "max_iter must be >= 1"),
            ("seed", -1, "seed must fit"),
            ("seed", 2**64, "seed must fit"),
            ("init", "kmeans", "init must be one of"),
        ],
    )
    def test_out_of_range_settings_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{"n_clusters": 2, field: value})

    def test_config_has_no_policy_fields(self):
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["n_clusters", "max_iter", "tol", "seed", "init"]

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
    @pytest.mark.parametrize("discrepancy, mode", CELLS)
    def test_trace_non_increasing(self, discrepancy, mode):
        rng = np.random.default_rng(zlib.crc32(f"{discrepancy}/{mode}".encode()))
        for _ in range(6):
            X, K = _random_instance(rng)
            if mode == "c1_free":
                reg = RegularizationParams(*(rng.uniform(0, 2, 4) * (rng.random(4) < 0.5)))
            elif mode == "binary":
                reg = RegularizationParams(0.0, float(rng.uniform(0, 2)), 0.0, float(rng.uniform(0, 2)))
            else:
                reg = RegularizationParams()
            config = SolverConfig(n_clusters=K, seed=int(rng.integers(2**32)))
            res = fit(X, ModelSpec(discrepancy, mode, reg), config)
            assert (np.diff(res.objective_trace) <= 1e-10).all()


PENALTY_WEIGHTS = st.one_of(st.just(0.0), st.floats(0.1, 3.0))


@st.composite
def penalized_runs(draw):
    discrepancy, mode = draw(st.sampled_from(CELLS))
    # One column puts every row on one ray, where only binary seeding finds
    # distinct centroids.
    M, N = draw(st.integers(4, 24)), draw(st.integers(1 if mode == "binary" else 2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(0, 10, (M, N))
    # A membership penalty thresholds the tiny rows, which empties clusters.
    X[rng.random(M) < 0.3] *= 1e-3
    # A large lambda_u thresholds whole clusters.
    lambda_u = draw(st.one_of(PENALTY_WEIGHTS, st.floats(3.0, 60.0))) if mode == "c1_free" else 0.0
    mu_u = draw(PENALTY_WEIGHTS) if mode == "c1_free" else 0.0
    centroid_penalties = draw(st.booleans())
    lambda_v, mu_v = (draw(PENALTY_WEIGHTS), draw(PENALTY_WEIGHTS)) if centroid_penalties else (0.0, 0.0)
    reg = RegularizationParams(lambda_u, lambda_v, mu_u, mu_v)
    config = SolverConfig(
        n_clusters=draw(st.integers(2, min(8, M))), seed=draw(st.integers(0, 2**32 - 1)), max_iter=30,
        init=draw(st.sampled_from(["random_rows", "plusplus"])),
    )
    return X, ModelSpec(discrepancy, mode, reg), config


@settings(max_examples=150, deadline=None)
@given(penalized_runs())
def test_trace_never_rises_and_unpenalized_empty_clusters_take_the_farthest_row(run):
    X, spec, config = run
    steps = fit_history(X, spec, config)
    trace = np.array([step.objective for step in steps])
    assert (np.diff(trace) <= 1e-10).all(), trace
    if spec.reg.lambda_v or spec.reg.mu_v:
        return
    # Without centroid penalties every empty cluster takes its farthest row
    # against the previous centroids, lower index first on ties, exactly as
    # an unconditional reseed does.
    V = init_centroids(X, config, spec)
    for step in steps:
        labels, coeffs = step.membership.labels, step.membership.coefficients
        empty = np.flatnonzero(np.bincount(labels[coeffs > 0], minlength=config.n_clusters) == 0)
        farthest = np.argsort(-_row_costs(X, step.membership, V, spec), kind="stable")
        for k, m in zip(empty, farthest):
            if spec.constraint_mode == "normalized":
                assert_allclose(step.centroids[k], X[m] / np.linalg.norm(X[m]), rtol=1e-15, atol=0)
            else:
                assert step.centroids[k].tobytes() == X[m].tobytes()
        V = step.centroids


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


SCALE = 2.0**-47


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["c1_free", "normalized", "binary"]),
    init=st.sampled_from(["random_rows", "plusplus"]),
    penalized=st.booleans(),
)
def test_l1_fits_scale_exactly_with_the_data(seed, mode, init, penalized):
    # A power-of-two scale moves every l1 breakpoint, slope and residual
    # exactly, so every label stays and every value scales. Penalties scale
    # where the objective does: lambda_u, mu_u and 1 / mu_v with the data
    # (normalized centroids do not scale, so that mode runs without them).
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (40, 3))
    reg = scaled_reg = RegularizationParams()
    if penalized and mode != "normalized":
        lam, mu = (0.5, 1.0) if mode == "c1_free" else (0.0, 0.0)
        reg = RegularizationParams(lambda_u=lam, mu_u=mu, lambda_v=0.5, mu_v=1.0)
        scaled_reg = RegularizationParams(lambda_u=lam * SCALE, mu_u=mu * SCALE, lambda_v=0.5, mu_v=1.0 / SCALE)
    config = SolverConfig(n_clusters=3, seed=seed, max_iter=30, tol=0.0, init=init)
    ours = fit_history(X, ModelSpec("l1", mode, reg), config)
    scaled = fit_history(X * SCALE, ModelSpec("l1", mode, scaled_reg), config)
    assert len(scaled) == len(ours)
    for a, b in zip(ours, scaled):
        assert b.membership.labels.tobytes() == a.membership.labels.tobytes()
        if mode == "normalized":
            assert b.centroids.tobytes() == a.centroids.tobytes()
            assert b.membership.coefficients.tobytes() == (a.membership.coefficients * SCALE).tobytes()
            assert b.objective == a.objective * SCALE
        else:
            assert b.membership.coefficients.tobytes() == a.membership.coefficients.tobytes()
            assert b.centroids.tobytes() == (a.centroids * SCALE).tobytes()
            assert b.objective == a.objective * SCALE


def test_a_normalized_l1_trace_scales_exactly_from_its_first_step():
    # The seeds are unit rows, so the first coefficients, too, are measured
    # against centroids that do not scale with the data.
    X = np.random.default_rng(0).uniform(0, 1, (40, 3))
    config = SolverConfig(n_clusters=3, seed=0, max_iter=30, tol=0.0)
    spec = ModelSpec("l1", "normalized")
    trace = fit(X, spec, config).objective_trace
    assert fit(X * SCALE, spec, config).objective_trace.tobytes() == (trace * SCALE).tobytes()


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
        assert res.membership.labels[4] == -1
        for v in res.centroids:
            assert coefficient_and_distance(X[4], v, spec) == (0.0, float(X[4] @ X[4]))

    def test_big_rows_stay_assigned(self):
        X, spec = self._sparse_setup()
        res = fit(X, spec, SolverConfig(n_clusters=2, seed=1))
        assert res.unassigned_rows == {4}


@settings(max_examples=150, deadline=None)
@given(penalized_runs())
def test_every_step_records_the_plain_three_term_objective(run):
    X, spec, config = run
    for step in fit_history(X, spec, config):
        m = step.membership
        assert step.objective == plain_objective(X, m.labels, m.coefficients, step.centroids, spec)


@pytest.mark.parametrize("discrepancy, mode", CELLS)
def test_each_step_membership_is_the_one_the_constructor_builds(discrepancy, mode):
    # The loop hands its arrays to the membership without the constructor's
    # copies and checks; they must be what the constructor would have made.
    rng = np.random.default_rng(zlib.crc32(f"membership/{discrepancy}/{mode}".encode()))
    X = rng.uniform(0, 10, (60, 4))
    X[rng.random(60) < 0.3] *= 1e-3
    lambda_u = (1.5 * X.sum(axis=1).mean() if discrepancy == "l1" else 4.0) if mode == "c1_free" else 0.0
    spec = ModelSpec(discrepancy, mode, RegularizationParams(lambda_u=lambda_u, lambda_v=0.5))
    thresholded = 0
    for init in ["random_rows", "plusplus"]:
        for step in fit_history(X, spec, SolverConfig(n_clusters=4, seed=5, init=init)):
            m = step.membership
            built = Membership(m.labels, m.coefficients, m.n_clusters)
            assert m.n_clusters == built.n_clusters == 4
            pairs = (m.labels, built.labels, np.int64), (m.coefficients, built.coefficients, np.float64)
            for ours, theirs, dtype in pairs:
                assert ours.dtype == theirs.dtype == dtype
                assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
                assert not ours.flags.writeable and not theirs.flags.writeable
            thresholded += int((m.labels == -1).sum())
    assert (thresholded > 0) == (mode == "c1_free")


@pytest.mark.parametrize("discrepancy, mode", CELLS)
def test_label_is_minus_one_exactly_where_the_coefficient_is_zero(discrepancy, mode):
    rng = np.random.default_rng(zlib.crc32(f"unassigned/{discrepancy}/{mode}".encode()))
    thresholded = 0
    for init in ["random_rows", "plusplus"] * 2:
        K = int(rng.integers(1, 5))
        X = rng.uniform(0, 10, (int(rng.integers(8, 40)), int(rng.integers(2, 8))))
        # Under l2 a membership penalty thresholds the tiny rows to
        # coefficient 0; under l1 it thresholds every positive row against a
        # centroid of l1 norm at most lambda_u, whatever the row's size.
        X[rng.random(X.shape[0]) < 0.3] *= 1e-3
        scale = X.sum(axis=1).mean() if discrepancy == "l1" else 4.0
        lambda_u, mu_u = rng.uniform(0, 1, 2) * scale if mode == "c1_free" else (0.0, 0.0)
        spec = ModelSpec(discrepancy, mode, RegularizationParams(lambda_u, rng.uniform(0, 1), mu_u, 1.0))
        config = SolverConfig(n_clusters=K, seed=int(rng.integers(2**32)), init=init)
        steps = fit_history(X, spec, config)
        for step in steps:
            assert_array_equal(step.membership.labels == -1, step.membership.coefficients == 0.0)
        res = fit(X, spec, config)
        assert res.iterations == len(res.objective_trace) == len(steps)
        assert res.unassigned_rows == set(np.flatnonzero(res.membership.labels == -1).tolist())
        members = res.membership.labels[res.membership.coefficients > 0]
        assert res.empty_clusters == {k for k in range(K) if not (members == k).any()}
        thresholded += len(res.unassigned_rows)
    if mode == "c1_free":
        assert thresholded > 0


@pytest.mark.parametrize(
    "reg", [RegularizationParams(mu_u=0.5), RegularizationParams(mu_u=0.5, mu_v=0.5)], ids=["mu_u", "mu_u-mu_v"]
)
def test_l1_fits_on_sparse_grid_data_hold_no_negative_zero(reg):
    # A piece from 0 with slope +0.0 has the root +0.0 / (-2 mu) = -0.0; a zero
    # coefficient or centroid entry taken there must still be +0.0.
    rng = np.random.default_rng(0)
    X = rng.integers(1, 5, (60, 4)) * 0.5
    X[rng.random((60, 4)) < 0.3] = 0.0
    for seed in range(10):
        res = fit(X, ModelSpec("l1", "c1_free", reg), SolverConfig(n_clusters=3, seed=seed))
        assert not np.signbit(res.membership.coefficients).any()
        assert not np.signbit(res.centroids).any()


@pytest.mark.parametrize("init", ["random_rows", "plusplus"])
@pytest.mark.parametrize("discrepancy, mode", CELLS)
def test_centroid_rows_taken_from_the_data_hold_no_negative_zero(discrepancy, mode, init):
    # Seeds, reseeds and kept previous rows are copies, not minimizers; on data
    # with -0.0 entries they too must be +0.0, and normalized seeds unit rows.
    rng = np.random.default_rng(0)
    X = rng.integers(0, 5, (12, 2)) * 0.5
    X[rng.random(X.shape) < 0.4] = -0.0
    spec = ModelSpec(discrepancy, mode)
    for seed in range(10):
        config = SolverConfig(n_clusters=5, seed=seed, init=init)
        V = init_centroids(X, config, spec)
        assert not np.signbit(V).any()
        if mode == "normalized":
            assert_allclose(np.linalg.norm(V, axis=1), 1.0, rtol=0.0, atol=1e-12)
        for step in fit_history(X, spec, config):
            assert not np.signbit(step.centroids).any()
    # Four empty clusters: under lambda_v most keep the previous row, whose
    # penalty a reseed would raise, and the others take a data row. A fit's
    # previous rows hold no -0.0, so the rows taken from the data are checked.
    spec = ModelSpec(discrepancy, mode, RegularizationParams(lambda_v=0.5))
    previous = np.array([[0.0, 0.1]] * 5)
    V = _update_centroids(X, Membership(np.zeros(12, dtype=int), np.ones(12), 5), spec, previous)
    assert not np.signbit(V).any()


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
