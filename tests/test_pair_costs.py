"""The batched pair-cost kernel against the scalar oracles.

``_pair_costs`` computes every (row, centroid) coefficient and distance at
once; these properties check it pair by pair against
``coefficient_and_distance`` in all six (discrepancy, mode) cells, and the
vectorized ``centroid_l1`` against its per-column definition. Under l1 those
oracles run the kernel's own median sweep, so the sweep is checked on its own
against ``brute_force_min`` and the subgradient optimality condition. Entries
are 0 or in [1e-3, 10], so zero rows, sparse rows and zero centroids all
occur.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from onmfcluster import (
    ModelSpec,
    NoValidCentroidError,
    RegularizationParams,
    ScalarProxProblem,
    assign,
    brute_force_min,
    centroid_l1,
    coefficient_and_distance,
    weighted_reg_median,
)
from onmfcluster import distance, scalar_prox
from onmfcluster.distance import _pair_costs
from onmfcluster.scalar_prox import _weighted_reg_medians

CELLS = list(itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"]))
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
WEIGHTS = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 10.0))
PENALTIES = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 5.0))
PROPERTY = settings(max_examples=150, deadline=None)


def _with_null_rows(draw, shape):
    A = draw(arrays(float, shape, elements=ENTRIES))
    A[draw(arrays(bool, shape[0]))] = 0.0
    return A


@st.composite
def problems(draw):
    discrepancy, mode = draw(st.sampled_from(CELLS))
    n = draw(st.integers(1, 6))
    X = _with_null_rows(draw, (draw(st.integers(1, 6)), n))
    V = _with_null_rows(draw, (draw(st.integers(1, 4)), n))
    if mode == "c1_free":
        reg = RegularizationParams(lambda_u=draw(PENALTIES), mu_u=draw(PENALTIES))
    else:
        reg = RegularizationParams()
    return X, V, ModelSpec(discrepancy, mode, reg)


def _close(a: float, b: float) -> bool:
    # inf - inf is NaN, so equal infinities (degenerate centroids) compare first.
    return a == b or abs(a - b) <= 1e-12 * max(1.0, abs(b))


@PROPERTY
@given(problems())
def test_pair_costs_match_the_scalar_oracle(problem):
    X, V, spec = problem
    T, D = _pair_costs(X, V, spec)
    assert T.shape == D.shape == (X.shape[0], V.shape[0])
    # plusplus seeding draws rows with probability proportional to D.
    assert (D >= 0.0).all() and (T >= 0.0).all()
    for m, k in np.ndindex(*D.shape):
        t, d = coefficient_and_distance(X[m], V[k], spec)
        assert _close(D[m, k], d), (m, k, D[m, k], d)
        assert _close(T[m, k], t), (m, k, T[m, k], t)


def _full_norm(x, spec):
    return float(x @ x) if spec.discrepancy == "l2" else float(np.abs(x).sum())


@PROPERTY
@given(problems())
def test_argmin_matches_the_scalar_assignment_up_to_ties(problem):
    X, V, spec = problem
    _, D = _pair_costs(X, V, spec)
    for m in range(X.shape[0]):
        costs = np.array([coefficient_and_distance(X[m], V[k], spec)[1] for k in range(V.shape[0])])
        if np.isinf(costs).all():
            with pytest.raises(NoValidCentroidError):
                assign(X[m], V, spec)
            continue
        label = int(D[m].argmin())
        assert assign(X[m], V, spec)[0] == label
        best = int(costs.argmin())
        if label != best:
            second = np.sort(costs)[1]
            assert second - costs[best] <= 1e-12 * max(1.0, _full_norm(X[m], spec))


@st.composite
def median_slices(draw):
    n = draw(st.integers(1, 7))
    s = draw(st.integers(1, 5))
    # Small integer targets and unit-ish weights make ties and flat
    # minimizer intervals common; a target -0.0 is a breakpoint -0.0.
    targets = st.one_of(st.integers(0, 4).map(float), st.just(-0.0), ENTRIES)
    v = draw(arrays(float, (s, n), elements=targets))
    w = draw(arrays(float, (s, n), elements=WEIGHTS))
    return v, w, draw(PENALTIES), draw(PENALTIES)


@PROPERTY
@given(median_slices())
def test_batched_medians_equal_each_slice_alone(case):
    # Nothing may leak between slices through the gathers or broadcasting,
    # with per-slice weights or with one weight vector shared by every slice.
    v, w, lam, mu = case
    for weights, alone in ((w, w), (w[0], [w[0]] * len(v))):
        expected = [_weighted_reg_medians(vi, wi, lam, mu) for vi, wi in zip(v, alone)]
        assert_array_equal(_weighted_reg_medians(v, weights, lam, mu), expected)


def _one_sided_derivatives(t, v, w, lam, mu):
    """Left and right derivatives of sum |v - w t| + lam t + mu t^2 at t.

    A term whose kink v / w lies within rounding of t counts as a kink, so
    it contributes -w to the left and +w to the right derivative.
    """
    r = w * t - v
    kink = np.abs(r) <= 1e-12 * np.maximum(1.0, np.abs(v))
    sign = np.sign(r)
    smooth = lam + 2.0 * mu * t
    return (smooth + (w * np.where(kink, -1.0, sign)).sum(),
            smooth + (w * np.where(kink, 1.0, sign)).sum())


@settings(max_examples=300, deadline=None)
@given(median_slices())
# The piece [0, 2/3] has slope +0.0, so its root +0.0 / (-2 mu) is -0.0.
@example((np.array([[1.0, 0.0, 1.0]]), np.array([[0.5, 2.0, 1.5]]), 0.0, 0.5))
def test_batched_medians_are_optimal(case):
    # Independent of the sweep: t must satisfy the first-order condition on
    # t >= 0 and attain the brute-force minimum at criterion 1's tolerance.
    # No minimizer is -0.0.
    v, w, lam, mu = case
    for vi, wi, t in zip(v, w, _weighted_reg_medians(v, w, lam, mu)):
        assert t >= 0.0 and not np.signbit(t)
        left, right = _one_sided_derivatives(t, vi, wi, lam, mu)
        tol = 1e-9 * (1.0 + lam + wi.sum() + 2.0 * mu * t)
        assert right >= -tol, (vi, wi, t, right)
        if t > 0.0:
            assert left <= tol, (vi, wi, t, left)
        p = ScalarProxProblem("weighted_l1", vi, wi, lam, mu)
        positive = wi[wi > 0]
        scale = vi.max() / positive.min() if positive.size else 1.0
        _, best = brute_force_min(p, (scale + 1.0) / 1500.0)
        assert abs(p.value(t) - best) <= 1e-8, (vi, wi, t, p.value(t), best)


def test_batched_medians_flat_midpoints_and_ridge():
    v = np.array([[1.0, 2.0], [3.0, 5.0], [2.0, 0.0]])
    w = np.ones_like(v)
    assert_array_equal(_weighted_reg_medians(v, w, 0.0, 0.0), [1.5, 4.0, 1.0])
    assert_array_equal(
        _weighted_reg_medians([[2.0], [0.0]], [[1.0], [0.0]], 0.0, 1.0),
        [weighted_reg_median([2.0], [1.0], 0.0, 1.0), 0.0],
    )


@PROPERTY
@given(median_slices())
def test_centroid_l1_matches_its_per_column_definition(case):
    X_k, u, lam, mu = case
    u_k = u[:, 0]
    if not (u_k > 0).any():
        u_k = np.ones_like(u_k)
    expected = [weighted_reg_median(X_k[:, n], u_k, lam, mu) for n in range(X_k.shape[1])]
    assert_array_equal(centroid_l1(X_k, u_k, lam, mu), expected)


@pytest.mark.parametrize("scale", [1.0, 1e100])
@pytest.mark.parametrize("reg", [RegularizationParams(), RegularizationParams(lambda_u=1.0)])
def test_l2_distances_never_round_negative_or_overflow(scale, reg):
    # Rows that are exact multiples of a centroid have distance 0, where the
    # expanded ||x||^2 - (lam - 2 <x, v>)^2 / (4 denom) rounds below zero; at
    # 1e100 it squares <x, v> past the float range, though ||x||^2 is finite.
    rng = np.random.default_rng(0)
    V = rng.uniform(0.1, 10, (6, 5)) * scale
    X = np.vstack([c * V for c in rng.uniform(0.1, 10, 40)])
    for mode in ("c1_free", "normalized"):
        spec = ModelSpec("l2", mode, reg if mode == "c1_free" else RegularizationParams())
        _, D = _pair_costs(X, V, spec)
        assert np.isfinite(D).all() and (D >= 0.0).all()


CHUNKED_CELLS = [("l1", "c1_free"), ("l1", "normalized"), ("l1", "binary"), ("l2", "binary")]


@pytest.mark.parametrize("discrepancy, mode", CHUNKED_CELLS)
def test_pair_costs_peak_memory_stays_near_its_results(discrepancy, mode):
    # Pair chunking bounds every temporary; without it the l1 sweep holds
    # several arrays of 4000 x 8 pairs by 8 entries, 2 MB each. Each chunk
    # builds its own pair index, so no K M index is held either: l1 c1_free
    # peaks near 1.12 MiB, about 10 % under the bound of 1.24 MiB.
    rng = np.random.default_rng(5)
    M, K = 4000, 8
    X = rng.uniform(0, 10, (M, 8))
    V = rng.uniform(0, 10, (K, 8))
    reg = RegularizationParams(lambda_u=1.0, mu_u=0.5) if mode == "c1_free" else RegularizationParams()
    spec = ModelSpec(discrepancy, mode, reg)
    tracemalloc.start()
    try:
        _pair_costs(X, V, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * M * K * 8 + 0.75 * 2**20


@pytest.mark.parametrize("discrepancy, mode", CHUNKED_CELLS)
@pytest.mark.parametrize("seed", range(3))
def test_pair_costs_do_not_depend_on_the_chunk_budget(discrepancy, mode, seed, monkeypatch):
    # The budget only bounds memory: one row per chunk, the default and one
    # chunk for all rows give the same bytes, and so does any subset of rows.
    # (The l2 matmul cells do not chunk, and BLAS blocking may depend on M.)
    rng = np.random.default_rng(seed)
    M, K, N = 301, 5, 6
    X = np.round(rng.uniform(0, 4, (M, N)), 1)
    X[rng.random((M, N)) < 0.2] = 0.0
    V = np.round(rng.uniform(0, 4, (K, N)), 1)
    V[rng.random((K, N)) < 0.2] = 0.0
    reg = RegularizationParams(lambda_u=1.0, mu_u=0.5 * seed) if mode == "c1_free" else RegularizationParams()
    spec = ModelSpec(discrepancy, mode, reg)
    T, D = _pair_costs(X, V, spec)
    rows = rng.permutation(M)[:37]
    T_rows, D_rows = _pair_costs(X[rows], V, spec)
    assert T_rows.tobytes() == T[rows].tobytes() and D_rows.tobytes() == D[rows].tobytes()
    for budget in (K * N, M * K * N):
        monkeypatch.setattr(scalar_prox, "_CHUNK_ELEMENTS", budget)
        T_b, D_b = _pair_costs(X, V, spec)
        assert T_b.tobytes() == T.tobytes() and D_b.tobytes() == D.tobytes()


@st.composite
def column_matrices(draw):
    """K x M matrices of few values, with ties, signed zeros, +inf and NaN; K runs past 255.

    The values include the neighbours of 0.0 and 1.0 one ulp up and down,
    so a tie is exact or not one.
    """
    K = draw(st.one_of(st.integers(1, 6), st.sampled_from([255, 256, 257, 300])))
    M = draw(st.integers(1, 6))
    values = [0.0, -0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0, 2.5, np.inf, np.nan]
    pool = draw(st.lists(st.sampled_from(values), min_size=1, max_size=4))
    D = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, size=(K, M))
    # Rows above head hold a larger value, so that a column's least entry
    # can lie past the 255 an 8-bit index holds.
    D[: draw(st.integers(0, K - 1))] = draw(st.sampled_from([3.0, np.inf]))
    return D


@PROPERTY
@given(column_matrices())
def test_column_min_is_numpys_argmin_along_the_columns(D):
    best, labels = distance._column_min(D)
    assert labels.dtype == np.intp
    assert_array_equal(labels, D.argmin(axis=0))
    assert_array_equal(best, D[labels, np.arange(D.shape[1])])


@pytest.mark.parametrize("mode", ["c1_free", "normalized"])
@pytest.mark.parametrize("seed", range(3))
def test_l2_nearest_is_the_row_major_argmin_of_pair_costs(mode, seed):
    # Repeated centroid rows tie exactly, and the zero row admits no
    # coefficient under lambda_u with mu_u = 0 (seed 0); it costs every row
    # ||x||^2, as under mu_u > 0. A large lambda_u thresholds the short rows,
    # whose every centroid then costs ||x||^2 with coefficient 0.
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(0, 2, (300, 4)), 1)
    W = np.round(rng.uniform(0, 2, (5, 4)), 1) + 0.1
    if mode == "normalized":
        W /= np.linalg.norm(W, axis=1, keepdims=True)
    V = np.vstack([W, np.zeros((1, 4)), W[::-1]])
    reg = RegularizationParams(lambda_u=8.0, mu_u=0.5 * seed) if mode == "c1_free" else RegularizationParams()
    spec = ModelSpec("l2", mode, reg)
    xx = np.einsum("mn,mn->m", X, X)
    T, D = _pair_costs(X, V, spec, xx)
    labels, coeffs, _ = distance._nearest(X, xx, V, spec)
    expected = np.ascontiguousarray(D).argmin(axis=1)
    assert_array_equal(labels, expected)
    assert_array_equal(coeffs, T[np.arange(X.shape[0]), expected])
    if mode == "c1_free":
        cut = (T == 0.0).all(axis=1)
        assert 0 < cut.sum() < X.shape[0]
        assert (D[cut] == xx[cut, None]).all() and (D[:, 5] == xx).all() and (T[:, 5] == 0.0).all()
        assert (labels[cut] == 0).all()
