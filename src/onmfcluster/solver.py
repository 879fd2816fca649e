"""Alternating-minimization driver.

Each iteration assigns every data row to its best centroid (exact scalar
minimization of the membership coefficient), recomputes the centroids from
the new memberships, and records the objective. Both block updates are exact
minimizers of their subproblems, so the recorded objective trace is
non-increasing. The iterations are streamed: ``fit`` keeps only the previous
step and the objective trace, and ``fit_history`` alone keeps every step.

Assignment and ``plusplus`` seeding read every (row, centroid) cost from the
batched kernel ``distance.pair_costs``: an assignment is the argmin of its
M x K distance matrix. Binary l2 assignment reads the same argmin off one
matmul with a rounding certificate, and recomputes only the rows the
certificate leaves open with ``pair_costs``, so its labels are the exact
kernel's. The centroid update and the objective read each row's cost from
``model.row_costs``. The scalar ``assign`` and ``coefficient_and_distance``
remain the paper-level definitions the kernel is tested against; under l1
they run its median sweep, whose oracle is ``brute_force_min``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .centroid import EMPTY_CLUSTER_POLICIES, update_centroids
from .distance import DegenerateCentroidError, NoValidCentroidError, _l2_binary_labels, pair_costs
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
        if not math.isfinite(self.tol) or self.tol < 0:
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")
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
    centroid update and the objective allocate theirs. Binary l2 takes its
    labels from the certified matmul argmin, which equals the exact kernel's.
    """
    if spec.discrepancy == "l2" and spec.constraint_mode == "binary":
        return _l2_binary_labels(X, V), np.ones(X.shape[0])
    T, D = pair_costs(X, V, spec)
    rows = np.arange(X.shape[0])
    labels = D.argmin(axis=1)
    if np.isinf(D[rows, labels]).any():
        raise NoValidCentroidError("all centroid rows are degenerate for this model")
    return labels, T[rows, labels]


def _steps(X: np.ndarray, spec: ModelSpec, config: SolverConfig) -> Iterator[tuple[FitStep, bool]]:
    """Each iteration's step and whether it ends the run as converged.

    Only the previous step is kept, so a run's memory does not grow with its
    iteration count.
    """
    K = config.n_clusters
    V = init_centroids(X, config, spec)
    prev = None
    for _ in range(config.max_iter):
        labels, coeffs = _nearest(X, V, spec)
        zero = coeffs == 0.0
        if config.zero_row_policy == "exclude":
            labels = np.where(zero, -1, labels)
        elif prev is not None:
            labels = np.where(zero & (prev.membership.labels >= 0), prev.membership.labels, labels)
        membership = Membership(labels, coeffs, K)
        V = update_centroids(X, membership, K, spec, V, config.empty_cluster_policy)
        step = FitStep(membership, V, objective(X, membership, V, spec))
        converged = False
        # A rise is never convergence, whatever else repeats.
        if prev is not None and step.objective <= prev.objective:
            repeated = np.array_equal(membership.labels, prev.membership.labels) and np.array_equal(
                coeffs, prev.membership.coefficients
            )
            rel = 0.0 if prev.objective <= 0.0 else (prev.objective - step.objective) / prev.objective
            converged = repeated or rel < config.tol
        yield step, converged
        if converged:
            return
        prev = step


def fit_history(X, spec: ModelSpec, config: SolverConfig) -> list[FitStep]:
    """Run the solver and return the full per-iteration trajectory.

    The trajectory ends when assignments repeat exactly, when the relative
    objective decrease drops below ``config.tol``, or after ``max_iter``
    iterations, whichever comes first. An iteration that raises the
    objective never ends it as converged.
    """
    return [step for step, _ in _steps(as_data_matrix(X), spec, config)]


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
    trace = []
    for last, converged in _steps(as_data_matrix(X), spec, config):
        trace.append(last.objective)
    unassigned = frozenset(int(m) for m in np.nonzero(last.membership.coefficients == 0.0)[0])
    return FactorizationResult(
        membership=last.membership,
        centroids=last.centroids,
        objective_trace=np.array(trace),
        iterations=len(trace),
        converged=converged,
        unassigned_rows=unassigned,
    )
