"""l1 assignment by drift-decayed lower bounds, checked against the full kernel.

``distance._l1_labels`` keeps a lower bound on every (row, centroid)
distance from one assignment of a fit to the next and runs the median sweep
only on each row's own pair and the pairs whose bound does not rule them
out. Its labels and coefficients must be the argmin and coefficient of
``pair_costs`` bit for bit: on every step of random fits in the three l1
modes, on arbitrary centroid sequences (duplicated, zeroed, unmoved and
barely moved rows), and on hand-made cases where a bound meets the own cost
exactly or rounding alone separates them. On well-separated data most pairs
must be ruled out, which catches a bound that never prunes.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from onmfcluster import (
    DuplicateRowsError,
    ModelSpec,
    RegularizationParams,
    SolverConfig,
    fit_history,
    init_centroids,
)
from onmfcluster import distance
from onmfcluster.distance import _L1Bounds, _l1_labels, pair_costs
from reference import kmedian_history

MODES = ["c1_free", "normalized", "binary"]
PENALTY = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 5.0))


@pytest.fixture
def costed(monkeypatch):
    """The number of pairs of every call ``_l1_labels`` makes to ``_costs_at``.

    ``pair_costs``, and so ``plusplus`` seeding, runs the same kernel; its
    calls are not counted.
    """
    calls = []
    costs_at = distance._costs_at

    def counting(X, V, pairs, spec, out):
        if sys._getframe(1).f_code is distance._l1_labels.__code__:
            calls.append(pairs.size)
        return costs_at(X, V, pairs, spec, out)

    monkeypatch.setattr(distance, "_costs_at", counting)
    return calls


def _full(X, V, spec):
    """Labels and coefficients as the argmin of the full kernel gives them."""
    T, D = pair_costs(X, V, spec)
    labels = D.argmin(axis=1)
    return labels, T[np.arange(X.shape[0]), labels]


def _assert_full(X, V, spec, labels, coeffs):
    expected_labels, expected_coeffs = _full(X, V, spec)
    assert labels.tobytes() == expected_labels.astype(labels.dtype).tobytes()
    assert coeffs.tobytes() == expected_coeffs.tobytes()


def _data(draw, rng, M, N):
    X = rng.uniform(0, 10, (M, N))
    kind = draw(st.sampled_from(["real", "integer", "tied"]))
    if kind == "integer":
        X = np.round(X)
    elif kind == "tied":
        X = np.round(X / 5.0) * 5.0
    X[rng.random(M) < 0.2] = 0.0
    if draw(st.booleans()):
        X = X[rng.integers(0, M, M)]
    return X


@st.composite
def l1_fits(draw):
    mode = draw(st.sampled_from(MODES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, N = draw(st.integers(4, 40)), draw(st.integers(1, 5))
    X = _data(draw, rng, M, N)
    lambda_u, mu_u = (draw(PENALTY), draw(PENALTY)) if mode == "c1_free" else (0.0, 0.0)
    # A large lambda_v zeroes centroid rows; few rows and many clusters make
    # empty clusters, which take their farthest row.
    lambda_v = draw(st.one_of(PENALTY, st.floats(20.0, 200.0)))
    reg = RegularizationParams(lambda_u, lambda_v, mu_u, draw(PENALTY))
    config = SolverConfig(
        n_clusters=draw(st.integers(1, min(8, M))), seed=draw(st.integers(0, 2**32 - 1)), max_iter=30,
        init=draw(st.sampled_from(["random_rows", "plusplus"])),
    )
    return X, ModelSpec("l1", mode, reg), config


@settings(max_examples=200, deadline=None)
@given(l1_fits())
def test_every_fit_step_is_the_full_kernels_argmin(run):
    X, spec, config = run
    try:
        steps = fit_history(X, spec, config)
    except DuplicateRowsError:
        reject()
    V = init_centroids(X, config, spec)
    for step in steps:
        labels, coeffs = _full(X, V, spec)
        assert step.membership.labels.tobytes() == np.where(coeffs == 0.0, -1, labels).tobytes()
        assert step.membership.coefficients.tobytes() == coeffs.tobytes()
        V = step.centroids


@st.composite
def centroid_walks(draw):
    """X and a sequence of centroid matrices, each derived from the one before."""
    mode = draw(st.sampled_from(MODES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, N, K = draw(st.integers(1, 30)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    X = _data(draw, rng, M, N)
    lambda_u, mu_u = (draw(PENALTY), draw(PENALTY)) if mode == "c1_free" else (0.0, 0.0)
    V = rng.uniform(0, 10, (K, N))
    walk = [V]
    for _ in range(draw(st.integers(1, 6))):
        V = V.copy()
        for k in range(K):
            move = draw(st.sampled_from(["stay", "nudge", "ulp", "jump", "copy", "zero", "row"]))
            if move == "nudge":
                V[k] = np.abs(V[k] + rng.normal(0, 0.3, N))
            elif move == "ulp":
                V[k] = V[k] * (1.0 + 2.0**-52)
            elif move == "jump":
                V[k] = rng.uniform(0, 10, N)
            elif move == "copy":
                V[k] = V[rng.integers(K)]
            elif move == "zero":
                V[k] = 0.0
            elif move == "row":
                V[k] = X[rng.integers(M)]
        walk.append(V)
    return X, walk, ModelSpec("l1", mode, RegularizationParams(lambda_u=lambda_u, mu_u=mu_u))


@settings(max_examples=300, deadline=None)
@given(centroid_walks())
def test_bounded_labels_follow_any_centroid_walk(problem):
    X, walk, spec = problem
    bounds = _L1Bounds(X, walk[0])
    for V in walk:
        labels, coeffs = _l1_labels(X, V, spec, bounds)
        _assert_full(X, V, spec, labels, coeffs)


def _two_steps(X, V_old, V_new, spec, first_labels):
    bounds = _L1Bounds(X, V_old)
    labels, _ = _l1_labels(X, V_old, spec, bounds)
    assert labels.tolist() == first_labels
    labels, coeffs = _l1_labels(X, V_new, spec, bounds)
    _assert_full(X, V_new, spec, labels, coeffs)
    return labels


def test_a_bound_equal_to_the_own_cost_is_costed():
    # Centroid 0 does not move, so its bound is its exact computed distance,
    # 2; the row's own centroid 1 moves onto it, so the own cost is 2 too.
    # The tie goes to centroid 0 only if the equal bound is costed.
    X = np.array([[0.0]])
    labels = _two_steps(X, np.array([[2.0], [1.0]]), np.array([[2.0], [2.0]]), ModelSpec("l1", "binary"), [1])
    assert labels.tolist() == [0]


def test_the_margin_covers_rounding_of_the_decay():
    # Centroid 0 moves toward x on every coordinate, so in exact arithmetic
    # its distance falls by exactly the drift; in floating point the decayed
    # bound fl(d_old - drift) lands one ulp above the new computed distance,
    # which the row's own centroid, a copy, also has. Without the margin the
    # bound rules out centroid 0 and the tie goes to the wrong index.
    x = [1.9132392605720028, 0.8155261736351271, 8.552269742870703]
    v = [10.527461387386909, 9.582131766836767, 13.276647839265017]
    v_new = [4.2739529535862655, 0.8776974379336718, 11.602899398309106]
    X, spec = np.array([x]), ModelSpec("l1", "binary")
    d_old, d_new = pair_costs(X, np.array([v, v_new]), spec)[1][0]
    assert d_old - np.abs(np.subtract(v_new, v)).sum() > d_new
    labels = _two_steps(X, np.array([v, v_new]), np.array([v_new, v_new]), spec, [1])
    assert labels.tolist() == [0]


def test_the_decay_divides_by_one_plus_the_relative_drift():
    # x = (0, 5) lies at distance 5 from (4, 4) and 2 from (2, 5); the drift
    # is 3 and ||v'||_1 = 7, so (5 - 5 * 3/7) / (1 + 3/7) = 2 is tight, while
    # 5 - 5 * 3/7 = 2.86 would rule out the new best centroid against the own
    # cost 2.5 of (1, 2).
    X = np.array([[0.0, 5.0]])
    V_old, V_new = np.array([[4.0, 4.0], [1.0, 2.0]]), np.array([[2.0, 5.0], [1.0, 2.0]])
    labels = _two_steps(X, V_old, V_new, ModelSpec("l1", "normalized"), [1])
    assert labels.tolist() == [0]


@pytest.mark.parametrize("mode", ["c1_free", "normalized"])
def test_a_zero_centroid_row_is_always_costed(mode):
    # Every row lies at distance ||x||_1 from a zero centroid row, in a tie
    # with each centroid the penalty thresholds it against, which the lower
    # index takes. Its bounds become -inf, so all its pairs are costed and
    # their computed distances written into the bounds.
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, (50, 4))
    spec = ModelSpec("l1", mode, RegularizationParams(lambda_u=3.0 if mode == "c1_free" else 0.0))
    V_old = np.vstack([rng.uniform(0, 1, (1, 4)), rng.uniform(5, 6, (2, 4))])
    bounds = _L1Bounds(X, V_old)
    _l1_labels(X, V_old, spec, bounds)
    V_new = V_old.copy()
    V_new[0] = 0.0
    labels, coeffs = _l1_labels(X, V_new, spec, bounds)
    _assert_full(X, V_new, spec, labels, coeffs)
    assert bounds.lower[0].tobytes() == pair_costs(X, V_new, spec)[1][:, 0].tobytes()


def _blobs(seed, M, N, K, width, sigma):
    """|centre + noise| around K centres uniform in [0, width]^N."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0, width, (K, N))
    return np.abs(centres[rng.integers(0, K, M)] + rng.normal(0, sigma, (M, N)))


@pytest.mark.parametrize("mode", MODES)
def test_separated_blobs_rule_out_most_pairs(mode, costed):
    X = _blobs(1, 1000, 8, 10, width=100.0, sigma=1.0)
    reg = RegularizationParams(lambda_u=5.0, mu_u=0.5) if mode == "c1_free" else RegularizationParams()
    config = SolverConfig(n_clusters=10, seed=2, max_iter=8, tol=0.0)
    steps = fit_history(X, ModelSpec("l1", mode, reg), config)
    assert len(steps) >= 4
    # Each assignment costs the own pairs, then the open ones.
    share = np.reshape(costed, (-1, 2)).sum(axis=1) / (X.shape[0] * 10)
    assert share[0] == 1.0
    assert (share[2:] < 0.5).all(), share


@pytest.mark.parametrize("seed, M, N, K", [(0, 600, 8, 8), (2, 10000, 16, 10)], ids=["600x8", "10000x16"])
def test_matches_kmedian_per_iteration_at_scale(costed, seed, M, N, K):
    # Blobs as overlapping as the benchmark's (sigma 3 around centres in
    # [0, 10]^N), on which K-median runs at least 20 iterations: for 20 of
    # them the labels are the oracle's, and the batched sorted medians its
    # centroids bit for bit, while the bounds rule out most pairs.
    X = _blobs(seed, M, N, K, width=10.0, sigma=3.0)
    spec = ModelSpec("l1", "binary")
    config = SolverConfig(n_clusters=K, seed=seed, max_iter=20, tol=0.0)
    ours = fit_history(X, spec, config)
    ref = kmedian_history(X, K, init_centroids(X, config, spec), max_iter=20)
    assert len(ours) == len(ref) == 20
    for step, expected in zip(ours, ref):
        assert step.membership.labels.tobytes() == expected.assignments.astype(np.int64).tobytes()
        assert step.centroids.tobytes() == expected.centroids.tobytes()
    assert sum(costed) < 0.5 * 20 * M * K


def test_bounded_assignment_peak_memory_stays_near_pair_costs_bound():
    # From bounds of -inf every pair is costed; only gathers chunked within
    # the kernel's budget keep the peak below the bound pair_costs meets.
    rng = np.random.default_rng(5)
    M, K = 4000, 8
    X = rng.uniform(0, 10, (M, 8))
    V = rng.uniform(0, 10, (K, 8))
    spec = ModelSpec("l1", "c1_free", RegularizationParams(lambda_u=1.0, mu_u=0.5))
    bounds = _L1Bounds(X, V)
    tracemalloc.start()
    try:
        _l1_labels(X, V, spec, bounds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * M * K * 8 + 2**20
