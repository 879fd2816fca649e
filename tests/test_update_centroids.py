"""The batched centroid update and the shared per-row cost against their oracles.

``_update_centroids`` updates all clusters in one pass; these properties check
it cluster by cluster against ``centroid_l2``/``centroid_l1`` (projected onto
the unit sphere in normalized mode), check the normalized-mode guard and the
reseeding of empty clusters, and check ``_row_costs`` against a per-row
residual and against the distances the assignment chose, in all six
(discrepancy, mode) cells. Memberships include unlabelled rows, labelled
rows with coefficient 0 and binary memberships with coefficients outside
{0, 1}. The l2 update must also equal the plain masked arithmetic of
``reference.plain_l2_update`` bit for bit, and the zero rows of an l1
normalized update rank their components by X^T u_k - lambda_v / 2.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import (
    Membership,
    ModelSpec,
    RegularizationParams,
    centroid_l1,
    centroid_l2,
)
from onmfcluster import scalar_prox
from onmfcluster.centroid import _medians, _update_centroids
from onmfcluster.distance import _pair_costs
from onmfcluster.model import _row_costs
from onmfcluster.scalar_prox import _weighted_reg_medians
from reference import plain_l2_update

CELLS = list(itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"]))
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
COEFFICIENTS = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-2, 5.0))
PENALTIES = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 5.0))
# Large centroid penalties threshold whole rows to zero, which in normalized
# mode exercises the e_j fallback.
LAMBDA_V = st.one_of(PENALTIES, st.floats(5.0, 100.0))
PROPERTY = settings(max_examples=150, deadline=None)
TOL = 1e-9


def _with_null_rows(draw, shape):
    A = draw(arrays(float, shape, elements=ENTRIES))
    A[draw(arrays(bool, shape[0]))] = 0.0
    return A


def _spec(draw, discrepancy, mode, lambda_v=0.0, mu_v=0.0):
    lambda_u = mu_u = 0.0
    if mode == "c1_free":
        lambda_u, mu_u = draw(PENALTIES), draw(PENALTIES)
    return ModelSpec(discrepancy, mode, RegularizationParams(lambda_u, lambda_v, mu_u, mu_v))


@st.composite
def updates(draw):
    discrepancy, mode = draw(st.sampled_from(CELLS))
    M, N, K = draw(st.integers(1, 10)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spec = _spec(draw, discrepancy, mode, draw(LAMBDA_V), draw(PENALTIES))
    X = _with_null_rows(draw, (M, N))
    labels = draw(arrays(np.int64, M, elements=st.integers(-1, K - 1)))
    # Binary memberships that a fit builds have coefficients in {0, 1}; some
    # built by hand do not.
    unit = mode == "binary" and draw(st.booleans())
    elements = st.sampled_from([0.0, 1.0]) if unit else COEFFICIENTS
    coeffs = draw(arrays(float, M, elements=elements))
    coeffs[labels < 0] = 0.0
    previous = _with_null_rows(draw, (K, N))
    if mode == "normalized":
        # Some previous rows feasible (unit norm), some raw, as after seeding.
        norms = np.linalg.norm(previous, axis=1)
        unit = draw(arrays(bool, K)) & (norms > 0)
        previous[unit] /= norms[unit, None]
    return X, Membership(labels, coeffs, K), spec, previous


def _row_cost(x, u, v, spec):
    r = x - u * v
    fit = float(r @ r) if spec.discrepancy == "l2" else float(np.abs(r).sum())
    return fit + spec.reg.lambda_u * u + spec.reg.mu_u * u * u


def _penalty(v, spec):
    return spec.reg.lambda_v * float(np.abs(v).sum()) + spec.reg.mu_v * float(v @ v)


def _block_cost(X_k, u_k, v, spec):
    return sum(_row_cost(x, u, v, spec) for x, u in zip(X_k, u_k)) + _penalty(v, spec)


def _on_sphere(row, a):
    """Every unit-sphere image of ``row`` that the update may return.

    A positive row has one, its projection. A zero row maps to e_j for a
    maximal a_j; near-ties of a may resolve either way under rounding.
    """
    norm = float(np.linalg.norm(row))
    if norm > 0.0:
        return [row / norm]
    eye = np.eye(a.size)
    return [eye[j] for j in np.flatnonzero(a >= a.max() - TOL * max(1.0, abs(a).max()))]


def _assert_one_of(v, options):
    assert any(np.allclose(v, o, rtol=TOL, atol=TOL) for o in options), (v, options)


def _empty_cluster_update(discrepancy, mode, lambda_v=0.0):
    # Cluster 1 is empty, and its farthest row (0, 3) differs from its
    # previous row (1, 1) on and off the sphere, with the larger l1 norm.
    X = np.array([[1.0, 0.0], [0.0, 3.0]])
    spec = ModelSpec(discrepancy, mode, RegularizationParams(lambda_v=lambda_v))
    return X, Membership([0, 0], [1.0, 1.0], 2), spec, np.array([[0.5, 0.5], [1.0, 1.0]])


@PROPERTY
@given(updates())
@example(_empty_cluster_update("l2", "binary"))
@example(_empty_cluster_update("l1", "c1_free"))
@example(_empty_cluster_update("l1", "normalized"))
@example(_empty_cluster_update("l2", "binary", lambda_v=1.0))
@example(_empty_cluster_update("l2", "normalized", lambda_v=1.0))
# No row labelled: every cluster is empty and takes a reseed.
@example((np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]), Membership([-1, -1, -1], np.zeros(3), 2),
          ModelSpec("l2", "c1_free"), np.zeros((2, 2))))
def test_update_matches_the_per_cluster_definitions(update):
    X, membership, spec, previous = update
    K, N = previous.shape
    V = _update_centroids(X, membership, spec, previous)
    labels, coeffs = membership.labels, membership.coefficients
    normalized = spec.constraint_mode == "normalized"
    centroid = centroid_l2 if spec.discrepancy == "l2" else centroid_l1
    lambda_v, mu_v = spec.reg.lambda_v, spec.reg.mu_v
    members = coeffs > 0
    empty = [k for k in range(K) if not (members & (labels == k)).any()]

    for k in sorted(set(range(K)) - set(empty)):
        rows = members & (labels == k)
        X_k, u_k = X[rows], coeffs[rows]
        candidate = centroid(X_k, u_k, lambda_v, mu_v)
        if not normalized and spec.discrepancy == "l1":
            # The batched sweep does the same arithmetic as centroid_l1.
            assert V[k].tobytes() == candidate.tobytes()
            continue
        if not normalized:
            assert_allclose(V[k], candidate, rtol=TOL, atol=TOL)
            continue
        options = _on_sphere(candidate, X_k.T @ u_k - lambda_v / 2.0)
        prev_cost = _block_cost(X_k, u_k, previous[k], spec)
        feasible = abs(float(previous[k] @ previous[k]) - 1.0) <= 1e-9
        if spec.discrepancy == "l2":
            # The projection is the exact minimizer, so no guard runs: the
            # candidate is taken and never costs more than a feasible previous.
            _assert_one_of(V[k], options)
            if feasible:
                cost = _block_cost(X_k, u_k, V[k], spec)
                assert cost <= prev_cost + TOL * max(1.0, cost)
            continue
        if feasible and np.array_equal(V[k], previous[k]):
            # The guard kept the previous row: the candidate was no better.
            cost = max(_block_cost(X_k, u_k, o, spec) for o in options)
            assert cost >= prev_cost - TOL * max(1.0, cost)
            continue
        _assert_one_of(V[k], options)
        if feasible:
            cost = _block_cost(X_k, u_k, V[k], spec)
            assert cost <= prev_cost + TOL * max(1.0, cost)

    # Empty clusters pair with the rows of largest cost against previous,
    # lower index first on ties, one per cluster. A cluster takes its row
    # where the row's centroid penalty, on the sphere in normalized mode, is
    # no larger than its previous row's, and keeps the previous row otherwise.
    costs = _row_costs(X, membership, previous, spec)
    order = sorted(range(X.shape[0]), key=lambda m: (-costs[m], m))
    no_members = np.full(N, -lambda_v / 2.0)
    for i, k in enumerate(empty):
        kept = _on_sphere(previous[k], no_members) if normalized else [previous[k]]
        options = kept
        if i < len(order):
            taken = _on_sphere(X[order[i]], no_members) if normalized else [X[order[i]]]
            if not (lambda_v or mu_v):
                # No centroid penalty: every pairing is taken.
                options = taken
            else:
                gain = _penalty(kept[0], spec) - _penalty(taken[0], spec)
                if abs(gain) <= TOL * max(1.0, _penalty(kept[0], spec)):
                    # A tie up to the rounding of the two penalty sums.
                    options = taken + kept
                elif gain > 0:
                    options = taken
        if normalized:
            _assert_one_of(V[k], options)
        else:
            assert any(np.array_equal(V[k], o) for o in options), (k, V[k], options)


@PROPERTY
@given(updates())
@example((np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), Membership([0, 0, 1], [0.5, 1.0, 1.0], 2),
          ModelSpec("l2", "binary"), np.zeros((2, 2))))
@example(_empty_cluster_update("l2", "normalized", lambda_v=1.0))
@example((np.array([[1.0, 2.0], [3.0, 4.0]]), Membership([0, 1], [1.0, 2.0], 2), ModelSpec(), np.zeros((2, 2))))
@example((np.array([[5.0], [2.0]]), Membership([-1, 0], [0.0, 0.5], 1), ModelSpec(), np.zeros((1, 1))))
def test_l2_update_is_the_plain_arithmetic_bit_for_bit(update):
    # One scatter, the member counts of a unit binary membership, and the
    # division in place must give the masked, copied arithmetic's bytes; a
    # binary membership whose coefficients are not all 1 keeps its sums of
    # squares, where the counts would give [[1.75, 2.5], ...] above. The
    # scatter sends an unlabelled row's coefficient 0 to column K - 1, which
    # the last example's one cluster must not feel.
    X, membership, spec, previous = update
    spec = ModelSpec("l2", spec.constraint_mode, spec.reg)
    V = _update_centroids(X, membership, spec, previous)
    labels, coeffs = membership.labels, membership.coefficients
    expected = plain_l2_update(X, labels, coeffs, membership.n_clusters, spec, previous)
    full = np.bincount(labels[coeffs > 0], minlength=membership.n_clusters) > 0
    assert V[full].tobytes() == expected[full].tobytes()


def _zero_median_update():
    # lambda_v = 100 thresholds every median to 0, so clusters 0 and 1 are
    # zero rows, and cluster 2 is empty; the previous rows are off the sphere.
    X = np.array([[3.0, 1.0], [2.0, 1.0], [0.0, 5.0]])
    membership = Membership([0, 0, 1], [1.0, 2.0, 0.5], 3)
    spec = ModelSpec("l1", "normalized", RegularizationParams(lambda_v=100.0))
    return X, membership, spec, np.full((3, 2), 2.0)


def test_l1_normalized_zero_rows_rank_by_the_product():
    X, membership, spec, previous = _zero_median_update()
    V = _update_centroids(X, membership, spec, previous)
    # X^T u_k - lambda_v / 2 for clusters 0 and 1.
    A = np.array([1.0 * X[0] + 2.0 * X[1], 0.5 * X[2]]) - 50.0
    assert_array_equal(V[:2], np.eye(2)[A[:2].argmax(axis=1)])
    # Row 1 is the farthest from its previous row (a tie with row 2, the lower
    # index first), and its unit row has the smaller centroid penalty.
    assert_array_equal(V[2], X[1] / np.linalg.norm(X[1]))


@st.composite
def assignments(draw):
    discrepancy, mode = draw(st.sampled_from(CELLS))
    N = draw(st.integers(1, 4))
    X = _with_null_rows(draw, (draw(st.integers(1, 10)), N))
    V = _with_null_rows(draw, (draw(st.integers(1, 4)), N))
    return X, V, _spec(draw, discrepancy, mode)


@PROPERTY
@given(assignments())
# The kernel adds mu_u u^2 before lambda_u u; _row_costs added them the other
# way round, 8.37456815212658 against the kernel's 8.374568152126578.
@example(
    (np.array([[9.5, 3.1]]), np.array([[4.2, 8.3]]), ModelSpec("l1", reg=RegularizationParams(lambda_u=1.0, mu_u=0.5)))
)
def test_row_costs_are_the_residuals_the_assignment_chose(problem):
    X, V, spec = problem
    T, D = _pair_costs(X, V, spec)
    rows = np.arange(X.shape[0])
    labels = D.argmin(axis=1)
    assigned = np.isfinite(D[rows, labels])
    labels = np.where(assigned, labels, -1)
    coeffs = np.where(assigned, T[rows, np.maximum(labels, 0)], 0.0)
    membership = Membership(labels, coeffs, V.shape[0])
    costs = _row_costs(X, membership, V, spec)
    for m in rows:
        v = V[labels[m]] if labels[m] >= 0 else np.zeros(X.shape[1])
        assert abs(costs[m] - _row_cost(X[m], coeffs[m], v, spec)) <= 1e-12 * max(1.0, costs[m])
        if not assigned[m]:
            continue
        if spec.discrepancy == "l2" and spec.constraint_mode != "binary":
            # These kernels take the product form ||x||^2 - t a, not the residual.
            assert abs(costs[m] - D[m, labels[m]]) <= 1e-12 * max(1.0, float(X[m] @ X[m]))
        else:
            # The l1 and binary kernels end in _row_costs' own reduction.
            assert costs[m] == D[m, labels[m]]


# Small integers, signed zeros and rounded values make ties common.
MEDIAN_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]),
    st.floats(0.0, 10.0).map(lambda x: round(x, 1)),
    st.floats(0.0, 1e300),
    # Two of these sum past float64's range, yet their midpoint is finite.
    st.floats(1e308, 1.7e308),
)


@PROPERTY
@given(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 5)), elements=MEDIAN_ENTRIES))
def test_sorted_median_equals_the_unit_weight_sweep(X_k):
    expected = _weighted_reg_medians(X_k.T, np.ones(X_k.shape[0]), 0.0, 0.0)
    # Bit for bit, alone and behind +inf padding; no median is -0.0.
    assert not np.signbit(expected).any()
    n = X_k.shape[0]
    assert _medians(X_k[None], np.array([n]))[0].tobytes() == expected.tobytes()
    padded = np.vstack((X_k, np.full((3, X_k.shape[1]), np.inf)))
    assert _medians(padded[None], np.array([n]))[0].tobytes() == expected.tobytes()


@PROPERTY
@given(updates())
def test_unpenalized_l1_update_equals_the_sweep_bit_for_bit(update):
    # Unit coefficients (binary draws) take the sorted median, others the
    # weighted sweep; both must give centroid_l1's value exactly.
    X, membership, _, previous = update
    K = previous.shape[0]
    V = _update_centroids(X, membership, ModelSpec("l1", "c1_free"), previous)
    labels, coeffs = membership.labels, membership.coefficients
    for k in range(K):
        rows = (coeffs > 0) & (labels == k)
        if rows.any():
            assert V[k].tobytes() == centroid_l1(X[rows], coeffs[rows]).tobytes()


@st.composite
def l1_updates(draw):
    """Clusters of unequal sizes, tied entries, and a chunk budget that may split them."""
    K, N = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 12), min_size=K + 1, max_size=K + 1))
    sizes[1] = max(sizes[1], 1)
    labels = np.array(draw(st.permutations(np.repeat(np.arange(-1, K), sizes))), dtype=np.int64)
    M = labels.size
    X = draw(arrays(float, (M, N), elements=MEDIAN_ENTRIES))
    # Half the draws are K-median updates: unit weights and no penalties.
    kmedian = draw(st.booleans())
    if kmedian or draw(st.booleans()):
        coeffs = np.ones(M)
    else:
        coeffs = draw(arrays(float, M, elements=COEFFICIENTS))
    coeffs[labels < 0] = 0.0
    lambda_v, mu_v = (0.0, 0.0) if kmedian else (draw(LAMBDA_V), draw(PENALTIES))
    # 1 puts every cluster in a batch of its own; 7 N batches clusters of up
    # to 7 rows together.
    budget = draw(st.sampled_from([scalar_prox._CHUNK_ELEMENTS, 1, 7 * N]))
    return X, Membership(labels, coeffs, K), lambda_v, mu_v, budget


@PROPERTY
@given(l1_updates())
# 1e308 over the coefficient 0.5 is past float64's range.
@example((np.array([[1e308], [1e308]]), Membership([0, 0], [0.5, 0.5], 1), 0.0, 0.0, 8192))
def test_batched_l1_update_equals_the_sweep_bit_for_bit(update):
    # The batches pad clusters to a common width, which must not change a bit.
    # Sweep or K-median sort, over -0.0 targets, zero weights and mu_v = 0 or
    # > 0, no entry of a cluster with members is -0.0. A weighted median past
    # float64's range is +inf, and the update names that overflow instead.
    X, membership, lambda_v, mu_v, budget = update
    K = membership.n_clusters
    spec = ModelSpec("l1", "c1_free", RegularizationParams(lambda_v=lambda_v, mu_v=mu_v))
    labels, coeffs = membership.labels, membership.coefficients
    expected = {}
    for k in range(K):
        rows = (coeffs > 0) & (labels == k)
        if rows.any():
            expected[k] = centroid_l1(X[rows], coeffs[rows], lambda_v, mu_v)
    with mock.patch.object(scalar_prox, "_CHUNK_ELEMENTS", budget):
        if not all(np.isfinite(row).all() for row in expected.values()):
            with pytest.raises(ValueError, match="the l1 centroid update .* overflows float64; rescale the data"):
                _update_centroids(X, membership, spec, np.zeros((K, X.shape[1])))
            return
        V = _update_centroids(X, membership, spec, np.zeros((K, X.shape[1])))
    for k, row in expected.items():
        assert V[k].tobytes() == row.tobytes()
        assert not np.signbit(V[k]).any()


@pytest.mark.parametrize("skewed", [False, True])
def test_l1_update_peak_memory_stays_near_its_largest_cluster(skewed):
    # Padding every cluster to the largest in one batch would hold several
    # K x N x (largest cluster) arrays at once; the chunk budget bounds them.
    rng = np.random.default_rng(7)
    M, N, K = 4000, 8, 8
    X = rng.uniform(0, 10, (M, N))
    labels = np.arange(M) % K
    if skewed:
        labels = np.where(rng.random(M) < 0.9, 0, rng.integers(1, K, M))
    membership = Membership(labels, rng.uniform(0.5, 2.0, M), K)
    spec = ModelSpec("l1", "c1_free", RegularizationParams(lambda_v=0.5, mu_v=0.5))
    previous = rng.uniform(0, 10, (K, N))
    tracemalloc.start()
    try:
        _update_centroids(X, membership, spec, previous)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * np.bincount(labels).max() * N * 8 + 2**20


def test_kmedian_update_equals_centroid_l1_with_positive_zero_medians():
    X = np.random.default_rng(0).choice([0.0, -0.0, 1.0, 2.0], size=(400, 8))
    labels = np.arange(400) % 3
    membership = Membership(labels, np.ones(400), 3)
    V = _update_centroids(X, membership, ModelSpec("l1", "binary"), np.zeros((3, 8)))
    expected = [centroid_l1(X_k, np.ones(X_k.shape[0])) for X_k in (X[labels == k] for k in range(3))]
    assert V.tobytes() == np.array(expected).tobytes()
    assert (V == 0.0).any() and not np.signbit(V).any()
