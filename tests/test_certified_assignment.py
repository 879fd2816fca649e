"""Binary l2 assignment by one matmul, certified against the exact kernel.

``_l2_binary_labels`` reads each row's argmin off the K x M matrix
||v||^2 - 2 <x, v> and sends every row with more or fewer than one entry
within twice the rounding bound of its best to ``_pair_costs``. Its labels
must equal the argmin of the exact pair kernel on every input: exact
ties, duplicated centroids, rows on the bisector of two centroids, entries on
the threshold, huge entries, overflowing norms, K = 1 and random nonnegative
data. On well-separated data no row may need the exact kernel, which catches
a bound that is too loose. At scale the fit's labels must stay the Lloyd
oracle's at every iteration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import ModelSpec, NoValidCentroidError, SolverConfig, fit, fit_history, init_centroids
from onmfcluster import distance
from onmfcluster.distance import _l2_binary_labels, _pair_costs
from onmfcluster.model import _data_matrix
from reference import lloyd_kmeans_history

BINARY_L2 = ModelSpec("l2", "binary")


@pytest.fixture
def rechecked(monkeypatch):
    """The row count of every call the certified path makes to ``_pair_costs``."""
    calls = []

    def counting(X, V, spec):
        calls.append(np.atleast_2d(X).shape[0])
        return _pair_costs(X, V, spec)

    monkeypatch.setattr(distance, "_pair_costs", counting)
    return calls


def _certified(X, V):
    """The certified labels, with ||x||^2 as the solver computes it."""
    return _l2_binary_labels(X, V, _data_matrix(X)[1], BINARY_L2)


def _exact(X, V):
    return _pair_costs(X, V, BINARY_L2)[1].argmin(axis=1)


def _naive(X, V):
    """The matmul argmin with no certificate."""
    D = -2.0 * (X @ V.T) + np.einsum("mn,mn->m", X, X)[:, None] + np.einsum("kn,kn->k", V, V)
    return D.argmin(axis=1)


def test_exact_ties_go_to_the_lowest_index(rechecked):
    V = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    X = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 5.0], [3.0, 3.0]])
    labels = _certified(X, V)
    assert_array_equal(labels, _exact(X, V))
    assert_array_equal(labels, [0, 0, 0, 2, 1])
    assert sum(rechecked) == 4


def test_duplicated_centroids_take_the_first_copy(rechecked):
    rng = np.random.default_rng(3)
    V = rng.uniform(0, 10, (3, 5))
    V = V[[0, 1, 0, 2, 1]]
    X = rng.uniform(0, 10, (300, 5))
    labels = _certified(X, V)
    assert_array_equal(labels, _exact(X, V))
    assert set(labels.tolist()) <= {0, 1, 3}
    # A row closest to a duplicated centroid has a zero gap.
    assert sum(rechecked) == np.isin(labels, [0, 1]).sum() > 0


@pytest.mark.parametrize("seed", range(4))
def test_rows_on_the_bisector_are_rechecked(rechecked, seed):
    # Rows (v1 + v2) / 2 + w with w orthogonal to v2 - v1 are equidistant from
    # v1 and v2 up to rounding, and closer to them than to the third centroid.
    rng = np.random.default_rng(seed)
    N = 16
    v1, v2 = rng.uniform(1, 10, (2, N))
    d = v2 - v1
    W = rng.uniform(-0.5, 0.5, (2000, N))
    W -= np.outer(W @ d, d) / (d @ d)
    X = np.maximum((v1 + v2) / 2 + W, 0.0)
    V = np.vstack([v1, v2, np.full(N, 100.0)])
    labels = _certified(X, V)
    assert_array_equal(labels, _exact(X, V))
    # Without the certificate the matmul argmin gets some of them wrong.
    assert (_naive(X, V) != _exact(X, V)).any()
    assert 0 < sum(rechecked) <= X.shape[0]


def test_entries_near_1e150():
    rng = np.random.default_rng(7)
    X = rng.uniform(0, 1, (500, 8)) * 1e150
    V = np.vstack([X[:6], X[:2]])
    X[-20:] = (V[0] + V[1]) / 2
    assert_array_equal(_certified(X, V), _exact(X, V))


def test_overflowing_bound_rechecks_the_row_without_a_warning(rechecked):
    # ||x||^2 + ||v||^2 = 2.88e308 overflows, so the bound is infinite;
    # -2 <x, v> overflows too. The exact kernel's differences are all finite.
    X = np.array([[1.2e154], [1.0e150], [3.0]])
    V = np.array([[1.2e154], [0.0]])
    assert_array_equal(_certified(X, V), [0, 1, 1])
    assert_array_equal(_certified(X, V), _exact(X, V))
    assert rechecked[0] >= 1


def test_a_nan_gap_is_rechecked(rechecked):
    # With K = 1 the entry overflows to +inf, its gap is inf - inf = NaN, and
    # the exact kernel finds no finite distance, without a warning.
    X = np.array([[1.3e154, 0.0]])
    V = np.array([[0.0, 1.3e154]])
    with pytest.raises(NoValidCentroidError, match="rescale the data"):
        _certified(X, V)
    assert rechecked == [1]


def test_an_infinite_best_is_rechecked(rechecked):
    # Every ||v||^2 overflows, so each entry ||v||^2 - 2 <x, v> and the best
    # are +inf, while the exact kernel's (x - v)^2 stay finite.
    X = np.array([[0.6e154], [0.3e154]])
    V = np.array([[1.4e154], [1.35e154], [1.45e154]])
    with np.errstate(over="ignore"):
        assert np.isinf(np.einsum("kn,kn->k", V, V)).all()
    assert_array_equal(_certified(X, V), [1, 1])
    assert_array_equal(_certified(X, V), _exact(X, V))
    assert rechecked[0] == 2


def test_an_entry_on_the_threshold_is_rechecked(rechecked):
    # With x = 0 the entries are ||v||^2 exactly: 1 and b^2, and b^2 equals
    # the rounded threshold best + 2 (4N + 8)(u (||x||^2 + max ||v||^2) + 2^-1074).
    b = float.fromhex("0x1.0000000000006p+0")
    assert b * b == 1.0 + 2.0 * 12.0 * (2.0**-53 * (b * b) + 2.0**-1074)
    X = np.zeros((1, 1))
    V = np.array([[1.0], [b]])
    assert_array_equal(_certified(X, V), [0])
    assert rechecked == [1]
    # One ulp more on b puts b^2 above the threshold, and the row is accepted.
    assert_array_equal(_certified(X, V * [[1.0], [1.0 + 2.0**-52]]), [0])
    assert rechecked == [1]


def test_one_centroid_needs_no_recheck(rechecked):
    X = np.random.default_rng(0).uniform(0, 10, (50, 3))
    assert_array_equal(_certified(X, X[:1]), np.zeros(50, dtype=int))
    assert rechecked == []


ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5]),
    st.floats(0.0, 10.0),
    st.floats(0.0, 1e100),
)


@st.composite
def problems(draw):
    N = draw(st.integers(1, 6))
    X = draw(arrays(float, (draw(st.integers(1, 8)), N), elements=ENTRIES))
    V = draw(arrays(float, (draw(st.integers(1, 5)), N), elements=ENTRIES))
    if draw(st.booleans()):
        V = np.vstack([V, V[: draw(st.integers(0, V.shape[0]))], X[: draw(st.integers(0, 2))]])
    return X, V


@settings(max_examples=300, deadline=None)
@given(problems())
def test_labels_equal_the_exact_argmin(problem):
    X, V = problem
    assert_array_equal(_certified(X, V), _exact(X, V))


def test_separated_blobs_never_reach_the_exact_kernel(rechecked):
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 100, (10, 16))
    X = np.abs(centers[rng.integers(0, 10, 2000)] + rng.normal(0, 3, (2000, 16)))
    result = fit(X, BINARY_L2, SolverConfig(n_clusters=10, seed=2, max_iter=20))
    assert result.iterations > 2
    assert rechecked == []


def test_matches_lloyd_per_iteration_at_scale():
    # Overlapping blobs (sigma 3 around centres in [0, 10]^32): the certified
    # product settles most rows, and its labels must stay the oracle's, while
    # the means differ from numpy's by tens of ulp.
    rng = np.random.default_rng(2)
    centres = rng.uniform(0, 10, (4, 32))
    X = np.abs(centres[rng.integers(0, 4, 10000)] + rng.normal(0, 3, (10000, 32)))
    cfg = SolverConfig(n_clusters=4, seed=2, max_iter=20, tol=0.0, init="plusplus")
    ours = fit_history(X, BINARY_L2, cfg)
    ref = lloyd_kmeans_history(X, 4, init_centroids(X, cfg, BINARY_L2), max_iter=cfg.max_iter)
    assert len(ours) == len(ref)
    for step, expected in zip(ours, ref):
        assert_array_equal(step.membership.labels, expected.assignments)
        assert_allclose(step.centroids, expected.centroids, rtol=1e-12, atol=0)
