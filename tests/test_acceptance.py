"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import contextlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster import (
    ModelSpec,
    RegularizationParams,
    ScalarProxProblem,
    SolverConfig,
    brute_force_min,
    coefficient_and_distance,
    distance_l1,
    distance_l2,
    distance_l2_angle_form,
    distance_l2_closed_form,
    fit,
    fit_history,
    init_centroids,
    solve_closed_form,
)
from reference import kmedian_history, lloyd_kmeans_history


@contextlib.contextmanager
def _criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {title}")
        raise
    print(f"PASS  criterion {number}: {title}")


def _random_problem(rng, kind):
    n = int(rng.integers(1, 21))
    return ScalarProxProblem(
        kind,
        rng.uniform(0, 10, n),
        rng.uniform(0, 10, n),
        float(rng.uniform(0, 5)),
        float(rng.uniform(0, 5)),
    )


def _oracle_resolution(problem):
    weights = problem.weights
    positive = weights[weights > 0]
    scale = float(problem.targets.max()) / max(float(positive.min()), 1e-12) if positive.size else 1.0
    return max((scale + 1.0) / 1500.0, 1e-9)


def test_criterion_1_scalar_oracle_equivalence():
    with _criterion(1, "closed-form scalar minimizers match the brute-force oracle"):
        rng = np.random.default_rng(101)
        for kind in ("quadratic", "weighted_l1"):
            for _ in range(1000):
                p = _random_problem(rng, kind)
                t_closed = solve_closed_form(p)
                t_brute, v_brute = brute_force_min(p, _oracle_resolution(p))
                assert abs(p.value(t_closed) - v_brute) <= 1e-8
                if p.l2_weight > 0:  # unique minimizer
                    assert abs(t_closed - t_brute) <= 1e-6


def test_criterion_2_distance_identities():
    with _criterion(2, "l2 distance = closed form = angle form"):
        rng = np.random.default_rng(202)
        zero_branch = full_branch = angle_checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            scale = 10.0 if rng.random() < 0.7 else 0.4
            x = rng.uniform(0, scale, n)
            v = rng.uniform(0, scale, n)
            lam = float(rng.uniform(0, 5))
            mu = float(rng.uniform(0, 5)) if rng.random() < 0.5 else 0.0
            direct = distance_l2(x, v, lam, mu)
            closed = distance_l2_closed_form(x, v, lam, mu)
            # A zero v with mu = 0 costs +inf in both forms, and inf - inf is NaN.
            assert direct == closed or abs(direct - closed) <= 1e-9
            if lam / 2 > float(x @ v):
                zero_branch += 1
            else:
                full_branch += 1
            if mu == 0.0 and lam / 2 <= float(x @ v) and (x @ x) > 0 and (v @ v) > 0:
                angle_checked += 1
                assert abs(closed - distance_l2_angle_form(x, v, lam)) <= 1e-9
        assert zero_branch > 50 and full_branch > 500 and angle_checked > 200


def _random_instance(rng):
    M = int(rng.integers(4, 61))
    N = int(rng.integers(1, 9))
    K = int(rng.integers(1, min(5, M) + 1))
    return rng.uniform(0, 10, (M, N)), K


def test_criterion_3_monotone_descent_all_modes():
    with _criterion(3, "objective trace non-increasing in every discrepancy and mode"):
        rng = np.random.default_rng(303)
        for disc, mode in itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"]):
            for _ in range(50):
                X, K = _random_instance(rng)
                if mode == "c1_free":
                    reg = RegularizationParams(*(rng.uniform(0, 2, 4) * (rng.random(4) < 0.5)))
                elif mode == "binary":
                    on = rng.random(2) < 0.5
                    reg = RegularizationParams(
                        0.0, float(rng.uniform(0, 2) * on[0]), 0.0, float(rng.uniform(0, 2) * on[1])
                    )
                else:
                    reg = RegularizationParams()
                res = fit(
                    X,
                    ModelSpec(disc, mode, reg),
                    SolverConfig(n_clusters=K, seed=int(rng.integers(2**63)), max_iter=120),
                )
                assert (np.diff(res.objective_trace) <= 1e-10).all(), (disc, mode)


def test_criterion_4_lloyd_reduction():
    with _criterion(4, "binary/l2 run equals reference Lloyd K-means per iteration"):
        rng = np.random.default_rng(404)
        spec = ModelSpec("l2", "binary")
        for _ in range(50):
            X, K = _random_instance(rng)
            cfg = SolverConfig(n_clusters=K, seed=int(rng.integers(2**63)), tol=0.0)
            init = init_centroids(X, cfg, spec)
            ours = fit_history(X, spec, cfg)
            ref = lloyd_kmeans_history(X, K, init, max_iter=cfg.max_iter)
            assert len(ours) == len(ref)
            for step, base in zip(ours, ref):
                assert_array_equal(step.membership.labels, base.assignments)
                assert_allclose(step.centroids, base.centroids, atol=1e-9, rtol=0)


def test_criterion_5_kmedian_reduction():
    with _criterion(5, "binary/l1 run equals reference K-median per iteration"):
        rng = np.random.default_rng(505)
        spec = ModelSpec("l1", "binary")
        for _ in range(50):
            X, K = _random_instance(rng)
            cfg = SolverConfig(n_clusters=K, seed=int(rng.integers(2**63)), tol=0.0)
            init = init_centroids(X, cfg, spec)
            ours = fit_history(X, spec, cfg)
            ref = kmedian_history(X, K, init, max_iter=cfg.max_iter)
            assert len(ours) == len(ref)
            for step, base in zip(ours, ref):
                assert_array_equal(step.membership.labels, base.assignments)
                assert_allclose(step.centroids, base.centroids, atol=1e-9, rtol=0)


def test_criterion_6_spherical_behavior():
    with _criterion(6, "normalized mode: unit-norm centroids, max-inner-product assignment"):
        rng = np.random.default_rng(606)
        spec = ModelSpec("l2", "normalized")
        for _ in range(20):
            X, K = _random_instance(rng)
            cfg = SolverConfig(n_clusters=K, seed=int(rng.integers(2**63)))
            steps = fit_history(X, spec, cfg)
            for step in steps:
                assert_allclose(
                    np.linalg.norm(step.centroids, axis=1), 1.0, atol=1e-12, rtol=0
                )
            final = steps[-1]
            expected = np.argmax(X @ final.centroids.T, axis=1)
            assert_array_equal(final.membership.labels, expected)


def test_criterion_7_sparsity_thresholding():
    with _criterion(7, "strong membership penalty leaves the designated row unassigned"):
        # lambda_u/2 = 2 exceeds <x_4, v_k> for the tiny row 4 but not for the
        # big rows; mu_v pins the centroid scale.
        X = np.array(
            [[10.0, 0.0], [10.0, 1.0], [0.0, 10.0], [1.0, 10.0], [0.05, 0.05]]
        )
        spec = ModelSpec("l2", "c1_free", RegularizationParams(lambda_u=4.0, mu_v=1.0))
        res = fit(X, spec, SolverConfig(n_clusters=2, seed=1))
        assert res.unassigned_rows == {4}
        assert res.membership.labels[4] == -1
        assert 4.0 / 2.0 > (X[4] @ res.centroids.T).max()
        for v in res.centroids:
            assert coefficient_and_distance(X[4], v, spec) == (0.0, float(X[4] @ X[4]))


def test_criterion_8_non_metric_witness():
    with _criterion(8, "dist(x, x) > 0 under an active sparsity penalty"):
        x = np.array([1.0, 0.0])
        assert distance_l2(x, x, lambda_u=2.0) > 0.0
        assert distance_l1([1.0], [1.0], lambda_u=1.0) > 0.0


def test_criterion_9_cli_golden_determinism(tmp_path):
    with _criterion(9, "repeated CLI runs produce byte-identical result files"):
        data = tmp_path / "toy.csv"
        data.write_text("0,0\n0,1\n10,10\n10,11\n")
        outputs = []
        # The CLI runs in a child process, which finds the package in src/.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "onmfcluster",
                    "--input", str(data), "--out", str(out),
                    "--k", "2", "--discrepancy", "l2", "--mode", "binary",
                    "--seed", "7",
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out)
        for name in ("assignments.csv", "centroids.csv", "trace.csv"):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, name
        trace = np.loadtxt(outputs[0] / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert (np.diff(trace[:, 1]) <= 1e-10).all()
