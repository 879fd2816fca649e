"""Loud failure on float overflow and non-finite input, and termination that never hides a rise."""

import numpy as np
import pytest

from onmfcluster import (
    Membership,
    ModelSpec,
    RegularizationParams,
    ScalarProxProblem,
    SolverConfig,
    assign,
    centroid_l1,
    centroid_l2,
    coefficient_and_distance,
    coefficient_l2,
    distance_l1,
    fit,
    fit_history,
    objective,
    weighted_reg_median,
)
from onmfcluster.cli import main

# Row 0's squared norm, 1e400, overflows float64; before it was rejected the
# fit returned the trace [nan, nan] with converged=True.
OVERFLOW = [[1e200, 1.0], [2.0, 3.0], [5.0, 5.0]]


def test_fit_rejects_rows_whose_squared_norm_overflows():
    with pytest.raises(ValueError, match="row 0"):
        fit(OVERFLOW, ModelSpec("l2", "binary"), SolverConfig(n_clusters=2))


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


def test_a_rising_step_never_reports_convergence():
    # Reseeding an empty cluster with a data row under active centroid
    # penalties can raise the objective; such a step must not end the run as
    # converged, through the tolerance test or through repeated assignments.
    rng = np.random.default_rng(11)
    rising = 0
    for trial in range(60):
        X = rng.uniform(0, 10, (int(rng.integers(6, 30)), int(rng.integers(1, 5))))
        reg = RegularizationParams(lambda_v=float(rng.uniform(0, 3)), mu_v=float(rng.uniform(0, 3)))
        spec = ModelSpec(("l1", "l2")[trial % 2], "binary", reg)
        config = SolverConfig(n_clusters=int(rng.integers(2, 6)), seed=trial, max_iter=40)
        res = fit(X, spec, config)
        rises = np.diff(res.objective_trace) > 0.0
        rising += bool(rises.any())
        assert not (rises.size and rises[-1] and res.converged), trial
    assert rising > 0


def _normalized_runs():
    # The fixed reproducer first: at lambda_v = 50 every thresholded mean is zero.
    yield np.random.default_rng(0).uniform(0, 1, (50, 4)), 3, 1, 50.0, 0.0
    rng = np.random.default_rng(23)
    for trial in range(40):
        X = rng.uniform(0, 1, (int(rng.integers(6, 30)), int(rng.integers(1, 5))))
        lambda_v = float(rng.choice([0.5, 5.0, 50.0]) * rng.uniform(0.5, 2.0))
        yield X, int(rng.integers(2, 5)), trial, lambda_v, float(rng.uniform(0, 2))


@pytest.mark.parametrize("policy", ["reseed_farthest", "keep_previous"])
@pytest.mark.parametrize("discrepancy", ["l1", "l2"])
def test_normalized_centroids_stay_on_the_sphere_under_large_lambda_v(discrepancy, policy):
    # Under a large lambda_v the thresholded candidate row can be all zero;
    # the update then takes the unit vector e_j of the least negative
    # component of X^T u - lambda_v / 2, the exact l2 minimizer over
    # nonnegative unit vectors. Rises under reseed_farthest with lambda_v > 0
    # are a separate defect, so only keep_previous checks descent.
    for X, K, seed, lambda_v, mu_v in _normalized_runs():
        spec = ModelSpec(discrepancy, "normalized", RegularizationParams(lambda_v=lambda_v, mu_v=mu_v))
        config = SolverConfig(n_clusters=K, seed=seed, max_iter=30, empty_cluster_policy=policy)
        steps = fit_history(X, spec, config)
        for step in steps:
            assert np.allclose(np.linalg.norm(step.centroids, axis=1), 1.0, atol=1e-12), (seed, lambda_v)
        if policy == "keep_previous":
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
# Public pointwise functions with valid arguments, at least one behind each
# shared validator; ``fit`` is guarded by ``as_data_matrix`` instead.
POINTWISE = {
    "weighted_reg_median": (weighted_reg_median, PAIR),
    "ScalarProxProblem": (lambda v, w: ScalarProxProblem("weighted_l1", v, w), PAIR),
    "coefficient_l2": (coefficient_l2, PAIR),
    "distance_l1": (distance_l1, PAIR),
    "coefficient_and_distance": (lambda x, v: coefficient_and_distance(x, v, ModelSpec("l1")), PAIR),
    "centroid_l2": (centroid_l2, CLUSTER),
    "centroid_l1": (centroid_l1, CLUSTER),
    "assign": (lambda x, V: assign(x, V, ModelSpec("l2", "binary")), ([1.0, 2.0], CLUSTER[0])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("name", sorted(POINTWISE))
def test_pointwise_functions_reject_non_finite_input(name, position, bad):
    # These used to return NaN, or a number computed from the finite entries
    # alone, or to blame the centroids.
    function, args = POINTWISE[name]
    args = [np.array(a, dtype=float) for a in args]
    args[position].flat[-1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        function(*args)
