"""Loud failure on float overflow and non-finite input, and termination that never hides a rise."""

import re
import warnings
from functools import partial

import numpy as np
import pytest

from onmfcluster import (
    Membership,
    ModelSpec,
    NoValidCentroidError,
    RegularizationParams,
    ScalarProxProblem,
    SolverConfig,
    assign,
    centroid_l1,
    centroid_l2,
    coefficient_and_distance,
    coefficient_l1,
    coefficient_l2,
    distance_l1,
    distance_l2,
    distance_l2_angle_form,
    distance_l2_closed_form,
    as_data_matrix,
    fit,
    fit_history,
    init_centroids,
    objective,
    soft_threshold,
    weighted_reg_median,
)
from onmfcluster import centroid, solver
from onmfcluster.centroid import _update_centroids
from onmfcluster.cli import main
from onmfcluster.distance import _nearest, _pair_costs

# Row 0's squared norm, 1e400, overflows float64; before it was rejected the
# fit returned the trace [nan, nan] with converged=True.
OVERFLOW = [[1e200, 1.0], [2.0, 3.0], [5.0, 5.0]]


# The cells that square a data row: l2, and normalized mode, whose unit seeds
# do. The l1 c1_free and binary cells check each row's l1 norm instead.
SQUARING = [("l2", "c1_free"), ("l2", "normalized"), ("l2", "binary"), ("l1", "normalized")]
# Each row's squared norm overflows float64, its l1 norm does not.
HUGE = np.random.default_rng(0).uniform(0, 1, (60, 3)) * 1e300


@pytest.mark.parametrize(("discrepancy", "mode"), SQUARING)
def test_fit_rejects_rows_whose_squared_norm_overflows(discrepancy, mode):
    with pytest.raises(ValueError, match=re.escape("squared norm of data row 0 (0-based) overflows float64")):
        fit(OVERFLOW, ModelSpec(discrepancy, mode), SolverConfig(n_clusters=2))


# These fits used to be refused for squared norms no l1 kernel forms.
@pytest.mark.parametrize("init", ["random_rows", "plusplus"])
@pytest.mark.parametrize("mode", ["c1_free", "binary"])
def test_l1_fits_take_rows_whose_squared_norm_overflows(mode, init):
    trace = fit(HUGE, ModelSpec("l1", mode), SolverConfig(n_clusters=3, init=init)).objective_trace
    assert np.isfinite(trace).all() and (np.diff(trace) <= 0).all()


def test_l1_fits_name_a_row_whose_l1_norm_overflows():
    with pytest.raises(ValueError, match=re.escape("l1 norm of data row 0 (0-based) overflows float64")):
        fit(np.full((3, 4), 1e308), ModelSpec("l1", "binary"), SolverConfig(n_clusters=2))


def test_cli_runs_an_l1_fit_on_rows_whose_squared_norm_overflows(tmp_path):
    path = tmp_path / "huge.csv"
    np.savetxt(path, HUGE[:20], fmt="%.17g", delimiter=",")
    out = tmp_path / "o"
    argv = ["--input", str(path), "--out", str(out), "--k", "3", "--discrepancy", "l1", "--mode", "binary"]
    assert main(argv) == 0
    assert sorted(f.name for f in out.iterdir()) == ["assignments.csv", "centroids.csv", "run.json", "trace.csv"]


# assign used to warn and return distance NaN for this row.
@pytest.mark.parametrize(("discrepancy", "mode"), SQUARING)
def test_assign_rejects_a_row_whose_squared_norm_overflows(discrepancy, mode):
    with pytest.raises(ValueError, match=re.escape("||x||^2 overflows float64")):
        assign([1e200, 1e200], [[1.0, 1.0], [2.0, 0.0]], ModelSpec(discrepancy, mode))


@pytest.mark.parametrize("mode", ["c1_free", "binary"])
def test_l1_assign_takes_a_row_whose_squared_norm_overflows(mode):
    k, t, d = assign([1e300, 1e300], [[1e300, 2e300]], ModelSpec("l1", mode))
    assert k == 0 and (t, d) == ((1.0, 1e300) if mode == "binary" else (0.5, 5e299))


@pytest.mark.parametrize("mode", ["c1_free", "binary"])
def test_l1_assign_rejects_a_row_whose_l1_norm_overflows(mode):
    with pytest.raises(ValueError, match=re.escape("||x||_1 overflows float64")):
        assign([1e308, 1e308], [[1.0, 1.0]], ModelSpec("l1", mode))


def test_assign_rejects_zero_centroid_rows():
    message = "centroids must be one row or a nonempty 2-D matrix, got shape (0, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        assign([1.0, 1.0], np.zeros((0, 2)), ModelSpec())


def test_cli_exits_2_on_rows_whose_squared_norm_overflows(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in OVERFLOW) + "\n")
    argv = ["--input", str(path), "--out", str(tmp_path / "o"), "--k", "2",
            "--discrepancy", "l2", "--mode", "binary"]
    assert main(argv) == 2
    assert "row 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_objective_skips_zero_weight_penalties():
    # V * V overflows, but its weight mu_v is 0 and no row uses the centroid.
    X = np.array([[1.0, 2.0]])
    membership = Membership([-1], [0.0], 1)
    V = np.array([[1e200, 1e200]])
    assert objective(X, membership, V, ModelSpec("l2", "c1_free")) == 5.0


def test_objective_raises_when_not_finite():
    X = np.array([[1.0, 2.0]])
    membership = Membership([-1], [0.0], 1)
    V = np.array([[1e200, 1e200]])
    spec = ModelSpec("l2", "c1_free", RegularizationParams(mu_v=1.0))
    with pytest.raises(ValueError, match="inf"), np.errstate(over="ignore"):
        objective(X, membership, V, spec)


def test_objective_raises_when_its_row_costs_sum_past_float64():
    # Each row costs about 1.7e308, which is finite; their sum is not.
    X = np.array([[1.3e154], [1.3e154]])
    membership = Membership([0, 0], [1.0, 1.0], 1)
    with pytest.raises(ValueError, match="overflow float64"):
        objective(X, membership, np.zeros((1, 1)), ModelSpec("l2", "binary"))


@pytest.mark.parametrize("seed", range(5))
def test_plusplus_seeds_rows_whose_distances_sum_past_float64(seed):
    # One column, rows near 0 and near 1.3e154: every squared norm is finite,
    # but the squared distances across the two groups, about 1.7e308 each,
    # sum to +inf. Before the weights were rescaled, seeding raised.
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.uniform(0, 1, (2000, 1)), 1.3e154 * rng.uniform(0.99, 1.0, (2000, 1))])
    config = SolverConfig(n_clusters=3, seed=seed, init="plusplus")
    res = fit(X, ModelSpec("l2", "binary"), config)
    assert np.isfinite(res.objective_trace).all()
    labels = res.membership.labels
    assert not set(labels[:2000]) & set(labels[2000:])


# One column, 2000 rows in [0, 1) and 2000 in [1.2e154, 1.3e154). Against a
# small seed row the large rows' l2 coefficients near 1e154, so at seed 1 the
# first centroid update's U^T X overflows. It used to stop on a matmul
# overflow warning, or without warnings as errors on "objective is nan".
_TWO_SCALES_RNG = np.random.default_rng(0)
TWO_SCALES = np.concatenate(
    [_TWO_SCALES_RNG.uniform(0.0, 1.0, 2000), _TWO_SCALES_RNG.uniform(1.2e154, 1.3e154, 2000)]
)[:, None]
UPDATE_OVERFLOW = r"l2 centroid update \(U\^T X over the squared coefficient sums\) overflows float64"


@pytest.mark.parametrize("mode", ["c1_free", "normalized"])
def test_an_overflowing_l2_centroid_update_is_named(mode):
    with pytest.raises(ValueError, match=UPDATE_OVERFLOW):
        fit(TWO_SCALES, ModelSpec("l2", mode), SolverConfig(n_clusters=3, seed=1, init="plusplus"))


def test_an_l2_centroid_update_whose_squared_coefficients_underflow_is_centroid_l2():
    # (1e-170)^2 underflows to 0, so the weighted mean 1e-170 / 0 was +inf
    # and the update raised; centroid_l2 gives a zero row there, and so does
    # the update, which in normalized mode then becomes e_0.
    X, membership = np.array([[1.0]]), Membership([0], [1e-170], 1)
    V = _update_centroids(X, membership, ModelSpec("l2", "c1_free"), np.ones((1, 1)))
    assert V.tobytes() == centroid_l2(X, [1e-170])[None].tobytes() == np.zeros((1, 1)).tobytes()
    assert _update_centroids(X, membership, ModelSpec("l2", "normalized"), np.ones((1, 1))).tolist() == [[1.0]]


# Six rows, then six more scaled by 1e-170: a tiny row's coefficient against
# a unit centroid is about 1e-170, so a cluster of them has ||u_k||^2 = 0 in
# float64. At seed 0, under both inits, the fit used to stop on the update's
# overflow message, which rescaling the data cannot mend.
_TINY_ROWS_RNG = np.random.default_rng(0)
TINY_ROWS = np.vstack([_TINY_ROWS_RNG.uniform(0.5, 2, (6, 2)), _TINY_ROWS_RNG.uniform(0.5, 2, (6, 2)) * 1e-170])


@pytest.mark.parametrize("init", ["random_rows", "plusplus"])
def test_a_normalized_l2_fit_whose_squared_coefficients_underflow_runs(init):
    config = SolverConfig(n_clusters=3, max_iter=50, seed=0, init=init)
    steps = fit_history(TINY_ROWS, ModelSpec("l2", "normalized"), config)
    trace = np.array([step.objective for step in steps])
    assert np.isfinite(trace).all() and (np.diff(trace) <= 0.0).all()
    assert np.allclose(np.linalg.norm(steps[-1].centroids, axis=1), 1.0, rtol=0.0, atol=1e-12)


# The other l2 c1_free seeds stay finite. Under l1 normalized, U^T X only
# ranks a zero row's components, so its overflow no longer stops the fit.
@pytest.mark.parametrize(
    "discrepancy, mode, seed",
    [("l2", "c1_free", s) for s in (0, 2, 3, 4)] + [("l1", "normalized", s) for s in range(5)],
)
def test_fits_past_a_centroid_update_that_stays_finite(discrepancy, mode, seed):
    config = SolverConfig(n_clusters=3, seed=seed, init="plusplus", max_iter=5)
    assert np.isfinite(fit(TWO_SCALES, ModelSpec(discrepancy, mode), config).objective_trace).all()


def test_cli_exits_2_on_an_overflowing_centroid_update(tmp_path, capsys):
    path = tmp_path / "two_scales.csv"
    np.savetxt(path, TWO_SCALES, fmt="%.17g")
    argv = ["--input", str(path), "--out", str(tmp_path / "o"), "--k", "3",
            "--discrepancy", "l2", "--init", "plusplus", "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the l2 centroid update") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_an_l2_centroid_whose_squared_norm_overflows_is_named():
    # Seeded at 1e-160 under mu_u = 0.5, the first update's centroid is about
    # 5e159, finite but with a square past float64's range. The next
    # assignment's product then overflowed (a RuntimeWarning) into a NaN cost,
    # which the argmin read.
    spec = ModelSpec("l2", "c1_free", RegularizationParams(mu_u=0.5))
    with pytest.raises(ValueError, match=UPDATE_OVERFLOW):
        fit([[1e-160], [1e150]], spec, SolverConfig(n_clusters=1, seed=0))


def test_a_thresholded_l2_mean_below_float64s_range_is_zero():
    # -lambda_v / 2 over a subnormal mu_v is -inf for the empty cluster 1,
    # and the update raised on it, although that row is thresholded to 0 and
    # replaced; cluster 1 takes the farthest row, whose penalty is smaller.
    spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_v=1.0, mu_v=1e-320))
    V = _update_centroids(np.array([[2.0]]), Membership([0], [1.0], 2), spec, np.array([[1.0], [3.0]]))
    assert V.tolist() == [[1.5], [2.0]]


# Two fits whose first l1 update takes a weighted regularized median past
# float64's range, +inf. The update passed it on, as [0.0, nan] after the
# normalized projection and as [1e153, inf] in c1_free; the fit then let a
# RuntimeWarning out and failed on "objective is nan".
L1_UPDATE_OVERFLOWS = [
    ([[0.0, 0.0], [1e-160, 1e150]], ModelSpec("l1", "normalized"), SolverConfig(1, seed=0, max_iter=5)),
    (
        [[1e153, 0.0], [2.0, 1e-300], [0.0, 1e200], [1.0, 1e200], [1e300, 1.0]],
        ModelSpec("l1", "c1_free", RegularizationParams(lambda_u=1e-300, mu_u=0.5)),
        SolverConfig(3, seed=1998, max_iter=6),
    ),
]
L1_UPDATE_OVERFLOW = r"the l1 centroid update \(the weighted medians\) overflows float64; rescale the data"


@pytest.mark.parametrize("X, spec, config", L1_UPDATE_OVERFLOWS)
def test_an_overflowing_l1_centroid_update_is_named(X, spec, config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=L1_UPDATE_OVERFLOW):
            fit(X, spec, config)


def test_cli_exits_2_on_an_overflowing_l1_centroid_update(tmp_path, capsys):
    path = tmp_path / "x.csv"
    np.savetxt(path, L1_UPDATE_OVERFLOWS[0][0], fmt="%.17g", delimiter=",")
    argv = ["--input", str(path), "--out", str(tmp_path / "o"), "--k", "1", "--discrepancy", "l1",
            "--mode", "normalized", "--seed", "0", "--max-iter", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the l1 centroid update") and "Warning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode, K, seed", [("binary", 1, 1), ("c1_free", 2, 0)])
def test_an_l1_centroid_that_moves_past_float64s_range_is_fit_through(mode, K, seed):
    # A centroid moving between 0 and the largest float drifts by an l1
    # distance that, rounded up for the bounds, overflows; the bounds became
    # -inf as meant, but an overflow RuntimeWarning got out first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit([[1.7976931348623157e308], [0.0], [0.0]], ModelSpec("l1", mode), SolverConfig(K, seed=seed))
    assert np.isfinite(result.objective_trace).all()


# Rows whose squares leave float64's normal range: 1e-160 squares to a
# subnormal, so its unit row came out 1.0000056; [3e-162, 1e-161] lost
# digits, to a squared norm of 1.0028; and [1e-170, 2e-170] squares to 0 and
# was taken for a zero row, [1e-170, 1.0]. An update's mean or median can
# pass the data's 1.3e154, where the square overflows and [1e155] and
# [1e200, 1e200] became all zeros.
SMALL_ROWS = [[[1e-160]], [[3e-162, 1e-161]], [[1e-170, 2e-170]]]
LARGE_ROWS = [[[1e155]], [[1e200, 1e200]]]


def _assert_unit_rows(V, rows):
    assert (np.abs(np.einsum("kn,kn->k", V, V) - 1.0) <= 1e-15).all()
    # Scaled by 2^600 or 2^-700 the rows square within range.
    W = np.ldexp(rows, 600 if np.max(rows) < 1.0 else -700)
    np.testing.assert_allclose(V, W / np.linalg.norm(W, axis=1, keepdims=True), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("row", SMALL_ROWS + LARGE_ROWS)
def test_unit_rows_hold_across_float64s_range(row):
    W = np.array(row)
    _assert_unit_rows(centroid._unit_rows(W.copy(), W.copy()), W)


@pytest.mark.parametrize("discrepancy", ["l1", "l2"])
@pytest.mark.parametrize("row", SMALL_ROWS)
def test_normalized_seeds_are_unit_rows_across_float64s_range(discrepancy, row):
    for init in ("random_rows", "plusplus"):
        V = init_centroids(row, SolverConfig(1, init=init), ModelSpec(discrepancy, "normalized"))
        _assert_unit_rows(V, np.array(row))


@pytest.mark.parametrize(
    "discrepancy, X",
    [("l1", [[1e-160, 0.0], [1e-170, 2e-170], [1.0, 2.0]]), ("l2", [[1e-160, 0.0], [1e-170, 2e-170]])],
)
def test_normalized_fits_keep_unit_rows_across_float64s_range(discrepancy, X):
    spec, config = ModelSpec(discrepancy, "normalized"), SolverConfig(len(X), seed=0, max_iter=4)
    for V in [step.centroids for step in fit_history(X, spec, config)] + [fit(X, spec, config).centroids]:
        assert (np.abs(np.einsum("kn,kn->k", V, V) - 1.0) <= 1e-15).all()


@pytest.mark.parametrize("tol", [0.0, 0.5])
def test_a_rising_step_never_reports_convergence(monkeypatch, tol):
    # The solver's updates never raise the objective, so step 2 is forced to
    # report it 1 too high. Its assignments repeat step 1's, and with
    # tol = 0.5 its relative change is below tol too; either would end the
    # run as converged but for the rise. Step 3 repeats and converges.
    X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    spec, config = ModelSpec("l2", "binary"), SolverConfig(n_clusters=2, seed=7, tol=tol)
    assert fit(X, spec, config).iterations == 2
    true_objective, calls = solver.objective, []

    def rising(*args):
        calls.append(None)
        return true_objective(*args) + (len(calls) == 2)

    monkeypatch.setattr(solver, "objective", rising)
    res = fit(X, spec, config)
    assert np.diff(res.objective_trace)[0] == 1.0
    assert res.converged and res.iterations == 3
    calls.clear()
    assert [converged for _, converged in solver._steps(X, spec, config)] == [False, False, True]


def _normalized_runs():
    # The fixed reproducer first: at lambda_v = 50 every thresholded mean is zero.
    yield np.random.default_rng(0).uniform(0, 1, (50, 4)), 3, 1, 50.0, 0.0
    rng = np.random.default_rng(23)
    for trial in range(40):
        X = rng.uniform(0, 1, (int(rng.integers(6, 30)), int(rng.integers(1, 5))))
        lambda_v = float(rng.choice([0.5, 5.0, 50.0]) * rng.uniform(0.5, 2.0))
        yield X, int(rng.integers(2, 5)), trial, lambda_v, float(rng.uniform(0, 2))


@pytest.mark.parametrize("discrepancy", ["l1", "l2"])
def test_normalized_centroids_stay_on_the_sphere_under_large_lambda_v(discrepancy):
    # Under a large lambda_v the thresholded candidate row can be all zero;
    # the update then takes the unit vector e_j of the least negative
    # component of X^T u - lambda_v / 2, the exact l2 minimizer over
    # nonnegative unit vectors. Every run checks descent.
    for X, K, seed, lambda_v, mu_v in _normalized_runs():
        spec = ModelSpec(discrepancy, "normalized", RegularizationParams(lambda_v=lambda_v, mu_v=mu_v))
        config = SolverConfig(n_clusters=K, seed=seed, max_iter=30)
        steps = fit_history(X, spec, config)
        for step in steps:
            assert np.allclose(np.linalg.norm(step.centroids, axis=1), 1.0, atol=1e-12), (seed, lambda_v)
        trace = np.array([s.objective for s in steps])
        assert (np.diff(trace) <= 1e-10 * trace[:-1]).all(), (seed, lambda_v, trace)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_tol_and_penalty_weights_are_rejected(value):
    # A NaN tol used to pass the "< 0" check and silently disable the
    # tolerance; an infinite weight ran a whole fit before overflowing.
    with pytest.raises(ValueError, match="tol must be finite"):
        SolverConfig(n_clusters=2, tol=value)
    for name in ("lambda_u", "lambda_v", "mu_u", "mu_v"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RegularizationParams(**{name: value})


@pytest.mark.parametrize("value", [True, False, "1", None, 1j])
def test_tol_and_penalty_weights_must_be_real_numbers(value):
    # A bool was taken as 0 or 1, and a string, None or a complex raised
    # TypeError from math.isfinite.
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        SolverConfig(n_clusters=2, tol=value)
    for name in ("lambda_u", "lambda_v", "mu_u", "mu_v"):
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            RegularizationParams(**{name: value})


@pytest.mark.parametrize("data", [[[1.0 + 1.0j, 2.0]], np.array([[1.0, 2.0]], dtype=complex)])
def test_complex_data_is_rejected(data):
    # numpy's float cast dropped the imaginary part with a ComplexWarning.
    for check in (as_data_matrix, lambda X: fit(X, ModelSpec(), SolverConfig(1))):
        with pytest.raises(ValueError, match="data matrix must be real"):
            check(data)


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "nan"), ("--tol", "inf"), ("--mu-u", "inf"), ("--lambda-v", "nan")],
)
def test_cli_exits_2_on_non_finite_tol_and_penalty_weights(tmp_path, capsys, flag, value):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3,4\n5,7\n")
    argv = ["--input", str(path), "--out", str(tmp_path / "o"), "--k", "2", flag, value]
    assert main(argv) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


PAIR = ([1.0, 2.0], [1.0, 1.0])
CLUSTER = ([[1.0, 2.0], [3.0, 4.0]], [1.0, 0.5])
# Public pointwise functions with valid arguments and the keywords of their
# penalty weights; all but soft_threshold take their input through
# ``scalar_prox._check_problem``. ``fit`` is guarded by ``as_data_matrix`` and
# ``RegularizationParams`` instead.
POINTWISE = {
    "weighted_reg_median": (weighted_reg_median, PAIR, ("lam", "mu")),
    "ScalarProxProblem": (
        lambda v, w, **weights: ScalarProxProblem("weighted_l1", v, w, **weights),
        PAIR, ("l1_weight", "l2_weight"),
    ),
    "coefficient_l1": (coefficient_l1, PAIR, ("lambda_u", "mu_u")),
    "coefficient_l2": (coefficient_l2, PAIR, ("lambda_u", "mu_u")),
    "distance_l1": (distance_l1, PAIR, ("lambda_u", "mu_u")),
    "distance_l2": (distance_l2, PAIR, ("lambda_u", "mu_u")),
    "distance_l2_closed_form": (distance_l2_closed_form, PAIR, ("lambda_u", "mu_u")),
    "distance_l2_angle_form": (distance_l2_angle_form, PAIR, ("lambda_u",)),
    "coefficient_and_distance": (lambda x, v: coefficient_and_distance(x, v, ModelSpec("l1")), PAIR, ()),
    "centroid_l2": (centroid_l2, CLUSTER, ("lambda_v", "mu_v")),
    "centroid_l1": (centroid_l1, CLUSTER, ("lambda_v", "mu_v")),
    "assign": (lambda x, V: assign(x, V, ModelSpec("l2", "binary")), ([1.0, 2.0], CLUSTER[0]), ()),
    "soft_threshold": (lambda gamma=0.5: soft_threshold(gamma, 1.0), (), ("gamma",)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", sorted(name for name, entry in POINTWISE.items() if entry[1]))
def test_pointwise_functions_reject_non_finite_input(name, position, bad):
    # These used to return NaN, or a number computed from the finite entries
    # alone, or to blame the centroids.
    function, args, _ = POINTWISE[name]
    args = [np.array(a, dtype=float) for a in args]
    args[position].flat[-1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        function(*args)


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", sorted(name for name, entry in POINTWISE.items() if entry[1]))
def test_pointwise_functions_reject_negative_input(name, position):
    # Outside the model's domain these used to return a minimizer below 0, as
    # weighted_reg_median([1, -2], [1, 1]) = -0.5, or a distance above the
    # minimum over t >= 0, as assign's 21.0 for x = [1, 2], v = [-1, 0.1].
    function, args, _ = POINTWISE[name]
    args = [np.array(a, dtype=float) for a in args]
    args[position].flat[-1] = -1.0
    with pytest.raises(ValueError, match="must be nonnegative"):
        function(*args)


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", sorted(name for name, entry in POINTWISE.items() if entry[1]))
def test_pointwise_functions_reject_complex_input(name, position):
    function, args, _ = POINTWISE[name]
    args = [np.array(a, dtype=complex) if i == position else a for i, a in enumerate(args)]
    with pytest.raises(ValueError, match="must be real"):
        function(*args)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_soft_threshold_rejects_non_finite_x(x):
    # nan >= gamma is False, so NaN used to come back as 0.0, and inf as inf.
    with pytest.raises(ValueError, match="x must be finite"):
        soft_threshold(0.5, x)


@pytest.mark.parametrize(
    "function, x, v, product",
    [
        (coefficient_l2, [1e200, 1e200], [1e200, 1e200], "<x, v>"),
        (coefficient_l2, [1e300], [1e10], "<x, v>"),
        (distance_l2_closed_form, [1e200], [1e200], "<x, v>"),
        (distance_l2_closed_form, [1e200, 1.0], [1.0, 1.0], "||x||^2"),
        (distance_l2_closed_form, [1.0], [1e200], "||v||^2"),
        (distance_l2_closed_form, [1e100], [1e100], "(lambda_u - 2 <x, v>)^2"),
        (distance_l2_angle_form, [1e200], [1e200], "<x, v>"),
        (distance_l2_angle_form, [1e200, 1.0], [1.0, 1.0], "||x||^2"),
        (distance_l2_angle_form, [1.0], [1e200], "||v||^2"),
        (distance_l2, [1e200, 0.0], [1.0, 1.0], "||x - t v||^2"),
    ],
)
def test_coefficient_l2_names_an_overflowing_inner_product(function, x, v, product):
    # Finite inputs whose <x, v> overflows used to reach soft_threshold as inf
    # and fail with its "x must be finite", after overflow warnings; the
    # closed form returned NaN or raised OverflowError, the angle form NaN.
    with pytest.raises(ValueError, match=re.escape(f"{product} overflows float64; rescale x or v")):
        function(x, v)


@pytest.mark.parametrize(
    "function, x, product",
    [
        (distance_l1, [1.7e308, 1.7e308], "||x - t v||_1"),
        (partial(coefficient_and_distance, spec=ModelSpec("l1", "binary")), [1.7e308, 1.7e308], "the binary distance"),
        (partial(coefficient_and_distance, spec=ModelSpec("l2", "binary")), [1e200], "the binary distance"),
    ],
)
def test_scalar_distances_name_an_overflowing_residual(function, x, product):
    # These returned inf after a RuntimeWarning, where distance_l2 raised.
    with pytest.raises(ValueError, match=re.escape(f"{product} overflows float64; rescale x or v")):
        function(x, np.zeros(len(x)))


# The breakpoints 1 / 1e-308 sum past float64's range, and the midpoint of
# their flat interval came out +inf, so centroid 0 lost to centroid 1 (cost
# 1.0), though at t = 1 / 1e-308 it costs 2.2e-16.
def test_a_flat_interval_between_huge_ends_has_a_finite_midpoint():
    assert weighted_reg_median([1e308, 1e308], [1, 1]) == 1e308
    assert centroid_l1([[1e308], [1.5e308]], [1, 1]).tolist() == [1.25e308]
    V = np.array([[1e-308, 1e-308], [3.0, 0.0]])
    t = coefficient_l1([1, 1], V[0])
    assert t == weighted_reg_median([1, 1], V[0]) < np.inf
    cost = ScalarProxProblem("weighted_l1", [1, 1], V[0]).value(t)
    assert cost < 1e-15
    assert assign([1, 1], V, ModelSpec("l1")) == (0, t, cost)
    X = np.array([[1.0, 1.0], [3.0, 0.0]])
    labels, coeffs, _ = _nearest(X, (X * X).sum(axis=1), V, ModelSpec("l1"))
    assert labels.tolist() == [0, 1] and coeffs.tolist() == [t, 1.0]


# 6.36961687 / 5e-324 overflows float64, so the l1 coefficient is +inf. Its
# distance used to come out NaN, after 0 * inf, and NaN won the argmin.
@pytest.mark.parametrize("mode", ["c1_free", "normalized"])
def test_an_overflowing_l1_coefficient_costs_inf(mode):
    spec = ModelSpec("l1", mode)
    T, D = _pair_costs(np.array([[6.36961687]]), np.array([[5e-324]]), spec)
    assert T[0, 0] == D[0, 0] == np.inf
    assert coefficient_and_distance([6.36961687], [5e-324], spec) == (np.inf, np.inf)
    assert distance_l1([6.36961687], [5e-324]) == np.inf


def test_assign_passes_over_an_overflowing_l1_coefficient():
    assert assign([6.36961687], [[5e-324], [1.0]], ModelSpec("l1", "c1_free")) == (1, 6.36961687, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_l1_fit_runs_past_overflowing_coefficients(seed):
    # 2e150 / 1e-160 overflows; with NaN distances five of these six seeds
    # ended in "membership coefficients must be finite and nonnegative".
    steps = fit_history([[1e-160], [1e150], [2e150]], ModelSpec("l1", "c1_free"), SolverConfig(2, seed=seed))
    trace = [step.objective for step in steps]
    assert np.isfinite(trace).all() and (np.diff(trace) <= 0).all()


# 1e-10 / 1e-320 overflows float64, so the l2 coefficient is +inf. Its
# distance used to come out 0.0 in the kernel and NaN in distance_l2.
def test_an_overflowing_l2_coefficient_costs_inf():
    T, D = _pair_costs(np.array([[1e150]]), np.array([[1e-160]]), ModelSpec())
    assert T[0, 0] == D[0, 0] == np.inf
    assert coefficient_and_distance([1e150], [1e-160], ModelSpec()) == (np.inf, np.inf)
    assert distance_l2([1e150], [1e-160]) == distance_l2_closed_form([1e150], [1e-160]) == np.inf


@pytest.mark.parametrize("seed", range(6))
def test_l2_fit_runs_past_overflowing_coefficients(seed):
    # 2e150 * 1e-160 / 1e-320 overflows; the divide warned on every seed, and
    # seeds 1 and 4 then ended in an overflowing l2 centroid update.
    steps = fit_history([[1e-160], [1e150], [2e150]], ModelSpec("l2", "c1_free"), SolverConfig(2, seed=seed))
    trace = [step.objective for step in steps]
    assert np.isfinite(trace).all() and (np.diff(trace) <= 0).all()


# Each row passes the data check, but a binary pair of two of them costs
# about twice their norm, past float64, so the middle row's only pair cost
# overflows. It used to warn and raise "all centroid rows are degenerate".
BINARY_OVERFLOW = {
    "l2": ([[1.3e154, 0.0], [0.0, 1.3e154], [1.3e154, 0.0]], [0.0, 1.2e154]),
    "l1": ([[1.7e308, 0.0], [0.0, 1.7e308], [1.7e308, 0.0]], [0.0, 1.6e308]),
}
PAIR_OVERFLOW = re.escape("a row's pair costs to every centroid overflow float64; rescale the data")


@pytest.mark.parametrize("discrepancy", ["l2", "l1"])
def test_a_row_whose_every_binary_pair_cost_overflows_is_named(discrepancy):
    X, _ = BINARY_OVERFLOW[discrepancy]
    spec = ModelSpec(discrepancy, "binary")
    with pytest.raises(NoValidCentroidError, match=PAIR_OVERFLOW) as fitting:
        fit(X, spec, SolverConfig(1))
    with pytest.raises(NoValidCentroidError, match=PAIR_OVERFLOW) as assigning:
        assign(X[0], [X[1]], spec)
    assert isinstance(fitting.value, ValueError) and isinstance(assigning.value, ValueError)


@pytest.mark.parametrize("discrepancy", ["l2", "l1"])
def test_a_binary_fit_runs_past_overflowing_pair_costs(discrepancy):
    X, fourth = BINARY_OVERFLOW[discrepancy]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit(X + [fourth], ModelSpec(discrepancy, "binary"), SolverConfig(2))
    assert result.membership.labels.tolist() == [0, 1, 0, 1]
    assert np.isfinite(result.objective_trace).all()


@pytest.mark.parametrize("discrepancy", ["l2", "l1"])
def test_cli_exits_2_where_every_pair_cost_of_a_row_overflows(tmp_path, capsys, discrepancy):
    path = tmp_path / "big.csv"
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in BINARY_OVERFLOW[discrepancy][0]) + "\n")
    argv = ["--input", str(path), "--out", str(tmp_path / "o"), "--k", "1",
            "--discrepancy", discrepancy, "--mode", "binary"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "rescale the data" in err and "degeneracy" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(("discrepancy", "mode"), SQUARING)
def test_assign_names_an_overflowing_centroid_norm(discrepancy, mode):
    # Centroid 0 is parallel to x, but its ||v||^2 overflowed to inf, and l2
    # took label 1 at distance 1.0, silently.
    with pytest.raises(ValueError, match=re.escape("||v||^2 overflows float64; rescale x or v")):
        assign([1.0, 1.0], [[1e200, 1e200], [3.0, 0.0]], ModelSpec(discrepancy, mode))


@pytest.mark.parametrize("mode", ["c1_free", "binary"])
def test_l1_assign_names_an_overflowing_centroid_l1_norm(mode):
    with pytest.raises(ValueError, match=re.escape("||v||_1 overflows float64; rescale x or v")):
        assign([1.0, 1.0], [[1e308, 1e308], [3.0, 0.0]], ModelSpec("l1", mode))


# Seeded from the row 5e-324, the other rows' l1 coefficients overflow, so
# they lie at +inf, and the next draw takes one of them.
@pytest.mark.parametrize("tiny", [0, 1])
def test_plusplus_draws_a_row_at_infinite_l1_distance(tiny):
    X = np.array([[1.0], [2.0]])
    X = np.insert(X, tiny, 5e-324, axis=0)
    spec = ModelSpec("l1", "c1_free")
    seed = next(s for s in range(100) if np.random.default_rng(s).integers(3) == tiny)
    config = SolverConfig(2, seed=seed, init="plusplus")
    V = solver.init_centroids(X, config, spec)
    assert V[0, 0] == 5e-324 and V[1, 0] in (1.0, 2.0)
    trace = [step.objective for step in fit_history(X, spec, config)]
    assert np.isfinite(trace).all() and (np.diff(trace) <= 0).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize(
    "name, weight", [(name, weight) for name, entry in sorted(POINTWISE.items()) for weight in entry[2]]
)
def test_pointwise_functions_reject_bad_penalty_weights(name, weight, bad):
    function, args, _ = POINTWISE[name]
    with pytest.raises(ValueError, match=f"{weight} must be finite and nonnegative, got"):
        function(*args, **{weight: bad})
