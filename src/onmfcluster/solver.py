"""Alternating-minimization driver.

Each iteration assigns every data row to its best centroid (exact scalar
minimization of the membership coefficient), recomputes the centroids from
the new memberships, and records the objective. A row whose coefficient the
membership penalty thresholds to 0 belongs to no cluster and carries label
-1. The assignment is an exact block minimizer and the centroid update
never raises the objective, an empty cluster included, so the recorded
objective trace is non-increasing in every configuration. The iterations
are streamed: ``fit`` keeps only the previous step and the objective
trace, and ``fit_history`` alone keeps every step.

Every assignment is one call of ``distance.nearest``, which picks the
kernel for the model and returns the argmin, lowest index on ties, of the
batched kernel ``distance.pair_costs`` bit for bit. A fit validates X and
computes its squared row norms once, for seeding (``plusplus`` reads its
distances from ``pair_costs``) and every assignment, and hands each
assignment the state the previous one returned. The centroid update reads
each row's cost from ``model.row_costs``; the objective is the paper's three
terms, each one flat reduction, and each step's ``Membership`` takes the
arrays the loop just made without copying or checking them again. Binary
labels go in as the kernel returns them: every binary coefficient is 1, so
no row is unlabelled. The scalar ``assign`` and ``coefficient_and_distance``
remain the paper-level definitions the kernel is tested against; under l1
they run its median sweep, whose oracle is ``brute_force_min``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .centroid import update_centroids
from .distance import nearest, pair_costs
from .model import FactorizationResult, Membership, ModelSpec, _data_matrix, objective

INIT_METHODS = ("random_rows", "plusplus")


class DuplicateRowsError(ValueError):
    """Fewer distinct data rows than requested centroids."""


@dataclass(frozen=True)
class SolverConfig:
    """Run configuration: cluster count, termination, and seeding."""

    n_clusters: int
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0
    init: str = "random_rows"

    def __post_init__(self):
        for name in ("n_clusters", "max_iter", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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


def init_centroids(X, config: SolverConfig, spec: ModelSpec) -> np.ndarray:
    """Seeded initial centroids: K distinct data rows.

    ``random_rows`` takes the first K pairwise distinct rows of a uniform
    random permutation of the rows. ``plusplus`` draws each next row with
    probability proportional to its distance (under the model's own distance
    measure) to the nearest row chosen so far, never a row equal to a chosen
    one. Rows at +inf from every chosen row are drawn first, uniformly: after
    a degenerate draw, such as a zero row under an l2 sparsity penalty, that
    is every other row. Deterministic given the seed.
    """
    return _init_centroids(*_data_matrix(X), config, spec)


def _init_centroids(X: np.ndarray, xx: np.ndarray, config: SolverConfig, spec: ModelSpec) -> np.ndarray:
    """``init_centroids`` on validated rows, with their squared norms xx."""
    M = X.shape[0]
    K = config.n_clusters
    if K > M:
        raise ValueError(f"cannot place {K} centroids on {M} data rows")
    rng = np.random.default_rng(config.seed)

    if config.init == "random_rows":
        return X[_distinct_prefix(X, rng.permutation(M), K)]

    def distances_to(m: int) -> np.ndarray:
        dist = pair_costs(X, X[m:m + 1], spec, xx)[1][:, 0]
        # A membership penalty puts a row at a positive distance from itself,
        # so the rows equal to the chosen one are taken out of the draw here.
        if dist[m] > 0.0:
            dist[(X == X[m]).all(axis=1)] = 0.0
        return dist

    chosen = [int(rng.integers(M))]
    nearest = distances_to(chosen[0])
    for _ in range(K - 1):
        far = np.isinf(nearest)
        weights = far if far.any() else nearest
        with np.errstate(over="ignore"):
            total = float(weights.sum())
        if total == np.inf:  # finite distances whose sum overflows
            weights = weights / weights.max()
            total = float(weights.sum())
        if total <= 0.0:
            raise DuplicateRowsError("every remaining row lies at distance 0 from a chosen centroid")
        nxt = int(rng.choice(M, p=weights / total))
        chosen.append(nxt)
        nearest = np.minimum(nearest, distances_to(nxt))
    return X[chosen].copy()


def _distinct_prefix(X: np.ndarray, perm: np.ndarray, K: int) -> np.ndarray:
    """The first K entries of ``perm`` whose rows differ from every earlier one.

    Rows compare as ``np.array_equal`` does: adding 0.0 turns -0.0 into 0.0,
    after which equal finite rows have equal bytes, and a dict keyed by them
    keeps each row's first position. The rows are read in prefixes that
    double until K distinct ones are found, so memory stays O(prefix x N)
    whatever the duplicates.
    """
    first: dict[bytes, int] = {}
    n = 0
    while len(first) < K and n < perm.size:
        end = min(max(2 * n, K), perm.size)
        for i, row in enumerate(X[perm[n:end]] + 0.0, n):
            first.setdefault(row.tobytes(), i)
        n = end
    if len(first) < K:
        raise DuplicateRowsError(f"only {len(first)} distinct rows for {K} centroids")
    return perm[list(first.values())[:K]]


class FitStep(NamedTuple):
    """State after one full iteration (assignment + centroid update)."""

    membership: Membership
    centroids: np.ndarray
    objective: float


def _steps(X, spec: ModelSpec, config: SolverConfig) -> Iterator[tuple[FitStep, bool]]:
    """Each iteration's step and whether it ends the run as converged.

    X is validated once, and its squared row norms are kept for seeding and
    every assignment; so is the state each assignment hands the next. Only
    the previous step is kept, so a run's memory does not grow with its
    iteration count.
    """
    X, xx = _data_matrix(X)
    K = config.n_clusters
    V = _init_centroids(X, xx, config, spec)
    state = prev = None
    for _ in range(config.max_iter):
        labels, coeffs, state = nearest(X, xx, V, spec, state)
        if spec.constraint_mode != "binary":
            labels = np.where(coeffs == 0.0, -1, labels)
        membership = Membership._of(labels, coeffs, K)
        V = update_centroids(X, membership, spec, V)
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
    return [step for step, _ in _steps(X, spec, config)]


def fit(X, spec: ModelSpec, config: SolverConfig) -> FactorizationResult:
    """Cluster X by alternating exact block minimization.

    Args:
        X: nonnegative data matrix, rows are data points.
        spec: discrepancy, constraint mode, and penalty weights.
        config: cluster count, termination, and seeding.

    Returns:
        A :class:`FactorizationResult` with the final membership, centroid
        matrix, non-increasing per-iteration objective trace, and
        convergence flag. Rows with coefficient 0 carry label -1. Hitting
        ``max_iter`` is reported via ``converged=False``, not raised.
    """
    trace = []
    for last, converged in _steps(X, spec, config):
        trace.append(last.objective)
    return FactorizationResult(last.membership, last.centroids, np.array(trace), converged)
