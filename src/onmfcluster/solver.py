"""Alternating-minimization driver.

Each iteration assigns every data row to its best centroid (exact scalar
minimization of the membership coefficient), recomputes the centroids from
the new memberships, and records the objective. Both block updates are exact
minimizers of their subproblems, so the recorded objective trace is
non-increasing.

Assignment and ``plusplus`` seeding read every (row, centroid) cost from the
batched kernel ``distance.pair_costs``: an assignment is the argmin of its
M x K distance matrix. The centroid update and the objective read each row's
cost from ``model.row_costs``. The scalar ``assign`` and
``coefficient_and_distance`` remain the paper-level definitions the kernel is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .centroid import EMPTY_CLUSTER_POLICIES, update_centroids
from .distance import DegenerateCentroidError, NoValidCentroidError, pair_costs
from .model import FactorizationResult, Membership, ModelSpec, as_data_matrix, objective

INIT_METHODS = ("random_rows", "plusplus")
ZERO_ROW_POLICIES = ("keep_last_cluster", "exclude")


class DuplicateRowsError(ValueError):
    """Fewer distinct data rows than requested centroids."""


@dataclass(frozen=True)
class SolverConfig:
    """Run configuration: cluster count, termination, seeding, and policies.

    ``zero_row_policy`` governs rows whose coefficient thresholds to zero:
    ``keep_last_cluster`` keeps the most recent cluster label for reporting
    (the row still contributes nothing to centroid updates), ``exclude``
    drops the label entirely.
    """

    n_clusters: int
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0
    init: str = "random_rows"
    empty_cluster_policy: str = "reseed_farthest"
    zero_row_policy: str = "keep_last_cluster"

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.init not in INIT_METHODS:
            raise ValueError(f"init must be one of {INIT_METHODS}")
        if self.empty_cluster_policy not in EMPTY_CLUSTER_POLICIES:
            raise ValueError(f"empty_cluster_policy must be one of {EMPTY_CLUSTER_POLICIES}")
        if self.zero_row_policy not in ZERO_ROW_POLICIES:
            raise ValueError(f"zero_row_policy must be one of {ZERO_ROW_POLICIES}")


def init_centroids(X, config: SolverConfig, spec: ModelSpec) -> np.ndarray:
    """Seeded initial centroids: K distinct data rows.

    ``random_rows`` samples rows uniformly without replacement, skipping
    duplicates of rows already taken. ``plusplus`` draws each next row with
    probability proportional to its distance (under the model's own distance
    measure) to the nearest row chosen so far. Deterministic given the seed.
    """
    X = as_data_matrix(X)
    M = X.shape[0]
    K = config.n_clusters
    if K > M:
        raise ValueError(f"cannot place {K} centroids on {M} data rows")
    rng = np.random.default_rng(config.seed)

    if config.init == "random_rows":
        chosen: list[int] = []
        for idx in rng.permutation(M):
            if any(np.array_equal(X[idx], X[c]) for c in chosen):
                continue
            chosen.append(int(idx))
            if len(chosen) == K:
                break
        if len(chosen) < K:
            raise DuplicateRowsError(f"only {len(chosen)} distinct rows for {K} centroids")
        return X[chosen].copy()

    def distances_to(m: int) -> np.ndarray:
        dist = pair_costs(X, X[m:m + 1], spec)[1][:, 0]
        if np.isinf(dist[0]):
            raise DegenerateCentroidError("zero centroid under an l1 penalty")
        return dist

    chosen = [int(rng.integers(M))]
    nearest = distances_to(chosen[0])
    for _ in range(K - 1):
        total = float(nearest.sum())
        if total <= 0.0:
            raise DuplicateRowsError("remaining rows coincide with chosen centroids")
        nxt = int(rng.choice(M, p=nearest / total))
        chosen.append(nxt)
        nearest = np.minimum(nearest, distances_to(nxt))
    return X[chosen].copy()


class FitStep(NamedTuple):
    """State after one full iteration (assignment + centroid update)."""

    membership: Membership
    centroids: np.ndarray
    objective: float


def _nearest(X: np.ndarray, V: np.ndarray, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best centroid (lowest index on ties) and its coefficient.

    A function of its own so the M x K cost matrices are freed before the
    centroid update and the objective allocate theirs.
    """
    T, D = pair_costs(X, V, spec)
    rows = np.arange(X.shape[0])
    labels = D.argmin(axis=1)
    if np.isinf(D[rows, labels]).any():
        raise NoValidCentroidError("all centroid rows are degenerate for this model")
    return labels, T[rows, labels]


def _iterations(X: np.ndarray, spec: ModelSpec, config: SolverConfig) -> Iterator[FitStep]:
    K = config.n_clusters
    V = init_centroids(X, config, spec)
    prev_labels = np.full(X.shape[0], -1, dtype=np.int64)

    for _ in range(config.max_iter):
        labels, coeffs = _nearest(X, V, spec)
        zero = coeffs == 0.0
        if config.zero_row_policy == "keep_last_cluster":
            labels = np.where(zero & (prev_labels >= 0), prev_labels, labels)
        else:
            labels = np.where(zero, -1, labels)
        membership = Membership(labels, coeffs, K)
        V = update_centroids(X, membership, K, spec, V, config.empty_cluster_policy)
        yield FitStep(membership, V, objective(X, membership, V, spec))
        prev_labels = labels


def _same_assignments(a: Membership, b: Membership) -> bool:
    return np.array_equal(a.labels, b.labels) and np.array_equal(a.coefficients, b.coefficients)


def _run(X: np.ndarray, spec: ModelSpec, config: SolverConfig) -> tuple[list[FitStep], bool]:
    if config.n_clusters > X.shape[0]:
        raise ValueError(
            f"n_clusters = {config.n_clusters} exceeds the {X.shape[0]} data rows"
        )
    steps: list[FitStep] = []
    for step in _iterations(X, spec, config):
        steps.append(step)
        if len(steps) < 2:
            continue
        prev = steps[-2]
        # A rise is never convergence, whatever else repeats.
        if step.objective > prev.objective:
            continue
        if _same_assignments(prev.membership, step.membership):
            return steps, True
        rel = 0.0 if prev.objective <= 0.0 else (prev.objective - step.objective) / prev.objective
        if rel < config.tol:
            return steps, True
    return steps, False


def fit_history(X, spec: ModelSpec, config: SolverConfig) -> list[FitStep]:
    """Run the solver and return the full per-iteration trajectory.

    The trajectory ends when assignments repeat exactly, when the relative
    objective decrease drops below ``config.tol``, or after ``max_iter``
    iterations, whichever comes first. An iteration that raises the
    objective never ends it as converged.
    """
    return _run(as_data_matrix(X), spec, config)[0]


def fit(X, spec: ModelSpec, config: SolverConfig) -> FactorizationResult:
    """Cluster X by alternating exact block minimization.

    Args:
        X: nonnegative data matrix, rows are data points.
        spec: discrepancy, constraint mode, and penalty weights.
        config: cluster count, termination, seeding, and policies.

    Returns:
        A :class:`FactorizationResult` with the final membership, centroid
        matrix, per-iteration objective trace, and convergence metadata.
        Hitting ``max_iter`` is reported via ``converged=False``, not raised.
    """
    steps, converged = _run(as_data_matrix(X), spec, config)
    last = steps[-1]
    unassigned = frozenset(int(m) for m in np.nonzero(last.membership.coefficients == 0.0)[0])
    return FactorizationResult(
        membership=last.membership,
        centroids=last.centroids,
        objective_trace=np.array([s.objective for s in steps]),
        iterations=len(steps),
        converged=converged,
        unassigned_rows=unassigned,
    )
