"""Correctness gate for every operation the benchmark times.

The gate works on plain arrays, so it is independent of the program's result
types. It owns its Lloyd / K-median oracle rather than importing the
package's reference module, and recomputes the objective from the returned
membership and centroids itself. Each check returns a list of problems; an
operation with any problem counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TRACE_RISE_TOL = 1e-10
NORM_TOL = 1e-9
OBJECTIVE_RTOL = 1e-9
CENTROID_RTOL = 1e-9
_CHUNK_ROWS = 4096
# What each checked fit saves for the timed runs to reproduce.
EXPECTED_ARRAYS = ("labels", "coefficients", "centroids", "trace")


def residual_cost(R: np.ndarray, discrepancy: str) -> float:
    return float((R * R).sum()) if discrepancy == "l2" else float(np.abs(R).sum())


def zero_objective(X: np.ndarray, discrepancy: str) -> float:
    """Objective of the all-zero membership: ||X||_F^2 (l2) or ||X||_1 (l1)."""
    return residual_cost(X, discrepancy)


def objective_of(X, labels, coeffs, V, discrepancy: str, reg: dict) -> float:
    rows = np.where(labels >= 0, labels, 0)
    fit = residual_cost(X - coeffs[:, None] * V[rows], discrepancy)
    return (
        fit
        + reg.get("lambda_u", 0.0) * float(coeffs.sum())
        + reg.get("mu_u", 0.0) * float((coeffs * coeffs).sum())
        + reg.get("lambda_v", 0.0) * float(np.abs(V).sum())
        + reg.get("mu_v", 0.0) * float((V * V).sum())
    )


def check_result(X, cell, k: int, labels, coeffs, V, trace) -> list[str]:
    """Invariants every final result must satisfy."""
    labels, coeffs = np.asarray(labels), np.asarray(coeffs, dtype=float)
    V, trace = np.asarray(V, dtype=float), np.asarray(trace, dtype=float)
    problems = []
    if trace.ndim != 1 or trace.size == 0 or not np.isfinite(trace).all():
        problems.append("objective is non-finite or missing")
    elif (np.diff(trace) > TRACE_RISE_TOL * np.abs(trace[:-1])).any():
        problems.append("objective trace rises")
    if labels.shape != (X.shape[0],) or coeffs.shape != labels.shape:
        return problems + ["membership has the wrong shape"]
    if ((labels < -1) | (labels >= k) | ((labels == -1) & (coeffs != 0))).any():
        problems.append("label out of range")
    if not np.isfinite(coeffs).all() or (coeffs < 0).any():
        problems.append("coefficient below 0 or non-finite")
    if V.shape != (k, X.shape[1]) or not np.isfinite(V).all():
        return problems + ["centroids have the wrong shape or are non-finite"]
    if cell.mode == "normalized" and (np.abs(np.linalg.norm(V, axis=1) - 1.0) > NORM_TOL).any():
        problems.append("normalized centroid norm differs from 1")
    if not problems:
        mine = objective_of(X, labels, coeffs, V, cell.discrepancy, cell.reg)
        if not math.isclose(mine, float(trace[-1]), rel_tol=OBJECTIVE_RTOL):
            problems.append(f"recomputed objective {mine!r} != reported {float(trace[-1])!r}")
    return problems


def _pair_costs(X: np.ndarray, C: np.ndarray, discrepancy: str) -> np.ndarray:
    # Row chunks keep the M x K x N difference tensor small, so the oracle
    # does not dominate the peak memory of the process it runs in.
    out = np.empty((X.shape[0], C.shape[0]))
    for lo in range(0, X.shape[0], _CHUNK_ROWS):
        diff = X[lo:lo + _CHUNK_ROWS, None, :] - C[None, :, :]
        out[lo:lo + _CHUNK_ROWS] = (
            (diff * diff).sum(axis=2) if discrepancy == "l2" else np.abs(diff).sum(axis=2)
        )
    return out


def oracle_history(X, init, max_iter: int, discrepancy: str):
    """Lloyd (l2) or K-median (l1) iterations: list of (labels, centroids, cost).

    Conventions match the solver's binary mode: lowest index wins ties, an
    empty cluster takes the row farthest from its own centroid (lower index
    first, each row used once), the cost is recorded after the centroid
    update, and the run stops once labels repeat.
    """
    X = np.asarray(X, dtype=float)
    C = np.array(init, dtype=float)
    center = (lambda M: M.mean(axis=0)) if discrepancy == "l2" else (lambda M: np.median(M, axis=0))
    steps, previous = [], None
    for _ in range(max_iter):
        D = _pair_costs(X, C, discrepancy)
        labels = D.argmin(axis=1)
        own = D[np.arange(X.shape[0]), labels]
        new = C.copy()
        empty = []
        for k in range(C.shape[0]):
            members = X[labels == k]
            if members.shape[0]:
                new[k] = center(members)
            else:
                empty.append(k)
        for k in empty:
            m = int(np.argmax(own))
            new[k] = X[m]
            own[m] = -np.inf
        C = new
        steps.append((labels, C.copy(), residual_cost(X - C[labels], discrepancy)))
        if previous is not None and np.array_equal(previous, labels):
            break
        previous = labels
    return steps


def check_against_oracle(X, discrepancy: str, init, max_iter: int, labels_per_iter, centroids, trace) -> list[str]:
    """Binary cells: per-iteration labels identical to the oracle's."""
    steps = oracle_history(X, init, max_iter, discrepancy)
    if len(steps) != len(labels_per_iter):
        return [f"{len(labels_per_iter)} iterations, oracle ran {len(steps)}"]
    for i, ((o_labels, _, o_cost), labels, cost) in enumerate(zip(steps, labels_per_iter, trace), 1):
        if not np.array_equal(o_labels, labels):
            n = int((o_labels != labels).sum())
            return [f"iteration {i}: {n} labels differ from the oracle"]
        if not math.isclose(o_cost, float(cost), rel_tol=OBJECTIVE_RTOL):
            return [f"iteration {i}: objective {float(cost)!r} != oracle {o_cost!r}"]
    if not np.allclose(centroids, steps[-1][1], rtol=CENTROID_RTOL, atol=0.0):
        return ["final centroids differ from the oracle"]
    return []


def check_same(expected: dict, labels, coeffs, V, trace) -> list[str]:
    """A repeated run of a deterministic fit must reproduce the checked one."""
    for name, got in (("labels", labels), ("coefficients", coeffs), ("centroids", V), ("trace", trace)):
        if not np.array_equal(np.asarray(got), expected[name]):
            return [f"{name} differ from the checked run"]
    return []


def load_expected(expected_path: str) -> tuple[np.ndarray, list[dict], list[dict]]:
    """The checked input, one dict of arrays per fit, and each fit's counters."""
    with np.load(expected_path) as data:
        counters = json.loads(str(data["counters"]))
        runs = [
            {**{key: data[f"{key}_{j}"] for key in EXPECTED_ARRAYS}, "solver_seed": int(data[f"solver_seed_{j}"])}
            for j in range(len(counters))
        ]
        return data["X"], runs, counters


def history_counters(labels_per_iter, coeffs_per_iter, k: int) -> dict:
    """Counts read from one fit's per-iteration memberships."""
    empty = sum(
        k - np.unique(labels[coeffs > 0]).size for labels, coeffs in zip(labels_per_iter, coeffs_per_iter)
    )
    changed = sum(int((a != b).sum()) for a, b in zip(labels_per_iter, labels_per_iter[1:]))
    return {
        "empty_clusters": int(empty),
        "reassigned_rows": changed,
        "reassign_chances": labels_per_iter[0].size * (len(labels_per_iter) - 1),
        "zero_coeff_rows": int((coeffs_per_iter[-1] == 0).sum()),
    }


CLI_FILES = ("assignments.csv", "centroids.csv", "trace.csv", "run.json")


def check_cli_outputs(out_dir, cell, k: int, X, expected: dict) -> list[str]:
    """The four files of one CLI run: present, well-sized, and equal to the checked fit."""
    out = Path(out_dir)
    missing = [name for name in CLI_FILES if not (out / name).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    report = json.loads((out / "run.json").read_text())
    rows = np.loadtxt(out / "assignments.csv", delimiter=",", skiprows=1, ndmin=2)
    V = np.loadtxt(out / "centroids.csv", delimiter=",", ndmin=2)
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (X.shape[0], 5) or not np.array_equal(rows[:, 0], np.arange(X.shape[0])):
        return [f"assignments.csv has shape {rows.shape}, expected {(X.shape[0], 5)}"]
    if trace.shape != (report.get("iterations"), 2):
        return [f"trace.csv has {trace.shape[0]} rows, run.json reports {report.get('iterations')} iterations"]
    labels, coeffs, trace = rows[:, 1].astype(np.int64), rows[:, 2], trace[:, 1]
    return check_result(X, cell, k, labels, coeffs, V, trace) or check_same(expected, labels, coeffs, V, trace)
