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

Every assignment is one call of ``distance._nearest``, which picks the
kernel for the model and returns the argmin, lowest index on ties, of the
batched kernel ``distance._pair_costs`` bit for bit. A fit validates X once,
against each row's squared norm where the model squares rows and its l1 norm
elsewhere, keeps the squared norms for seeding (``plusplus`` reads its
distances from ``_pair_costs``) and every assignment, and hands each
assignment the state the previous one returned. These private kernels and
``centroid._update_centroids`` take the validated rows and check nothing
again. The centroid update reads each row's cost from ``model._row_costs``;
the objective is the paper's three terms, each one flat reduction, and each
step's ``Membership`` takes the arrays the loop just made without copying or
checking them again. Binary labels go in as the kernel returns them: every
binary coefficient is 1, so no row is unlabelled. The scalar ``assign`` and ``coefficient_and_distance``
remain the paper-level definitions the kernel is tested against; under l1
they run its median sweep, whose oracle is ``brute_force_min``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import centroid
from .centroid import _update_centroids
from .distance import _nearest, _pair_costs
from .model import FactorizationResult, Membership, ModelSpec, _check_integers, _data_matrix, objective
from .scalar_prox import _check_penalties

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
        _check_integers(n_clusters=self.n_clusters, max_iter=self.max_iter, seed=self.seed)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        _check_penalties(tol=self.tol)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.init not in INIT_METHODS:
            raise ValueError(f"init must be one of {INIT_METHODS}")


def init_centroids(X, config: SolverConfig, spec: ModelSpec) -> np.ndarray:
    """Seeded initial centroids: K distinct data rows, of unit norm in normalized mode.

    ``random_rows`` takes the first K pairwise distinct rows of a uniform
    random permutation, read one row at a time. ``plusplus`` draws each next
    row with probability proportional to its distance (under the model's own
    distance measure) to the nearest row chosen so far, never a row equal to
    a chosen one. Rows whose distances to every chosen row overflow float64
    are drawn first, uniformly. A zero centroid costs each row its full norm,
    so after a zero draw the next row is drawn in proportion to that. The
    drawn rows are copied without -0.0, and in normalized mode divided by
    their l2 norms, taken at a power-of-two scale so that every nonzero row
    comes out a unit row across float64's range, and the first coefficients
    are measured against feasible centroids; an all-zero row becomes e_0.
    Deterministic given the seed.
    """
    return _init_centroids(*_data_matrix(X, spec), config, spec)


def _init_centroids(X: np.ndarray, xx: np.ndarray | None, config: SolverConfig, spec: ModelSpec) -> np.ndarray:
    """``init_centroids`` on validated rows, with the xx ``_data_matrix`` returns for spec."""
    M = X.shape[0]
    K = config.n_clusters
    if K > M:
        raise ValueError(f"cannot place {K} centroids on {M} data rows")
    rng = np.random.default_rng(config.seed)

    if config.init == "random_rows":
        # Adding 0.0 turns -0.0 into 0.0, after which rows that
        # ``np.array_equal`` finds equal have equal bytes.
        first: dict[bytes, np.int64] = {}
        for m in rng.permutation(M):
            first.setdefault((X[m] + 0.0).tobytes(), m)
            if len(first) == K:
                return centroid._data_rows(X, list(first.values()), spec)
        raise DuplicateRowsError(f"only {len(first)} distinct rows for {K} centroids")

    def distances_to(m: int) -> np.ndarray:
        dist = _pair_costs(X, X[m:m + 1], spec, xx)[1][:, 0]
        # A membership penalty puts a row at a positive distance from itself,
        # so the rows equal to the chosen one are taken out of the draw here.
        if dist[m] > 0.0:
            dist[(X == X[m]).all(axis=1)] = 0.0
        return dist

    chosen = [int(rng.integers(M))]
    nearest = np.inf
    for _ in range(K - 1):
        nearest = np.minimum(nearest, distances_to(chosen[-1]))
        far = np.isinf(nearest)
        largest = nearest.max()
        if largest <= 0.0:
            raise DuplicateRowsError("every remaining row lies at distance 0 from a chosen centroid")
        # Scaled by their largest entry, the weights sum to at most M.
        weights = far if far.any() else nearest / largest
        chosen.append(int(rng.choice(M, p=weights / weights.sum())))
    return centroid._data_rows(X, chosen, spec)


class FitStep(NamedTuple):
    """State after one full iteration (assignment + centroid update)."""

    membership: Membership
    centroids: np.ndarray
    objective: float


def _steps(X, spec: ModelSpec, config: SolverConfig) -> Iterator[tuple[FitStep, bool]]:
    """Each iteration's step and whether it ends the run as converged.

    X is validated once for spec, and the squared row norms ``_data_matrix``
    returns are kept for seeding and every assignment; so is the state each
    assignment hands the next. Only the previous step is kept, so a run's
    memory does not grow with its iteration count.
    """
    X, xx = _data_matrix(X, spec)
    K = config.n_clusters
    V = _init_centroids(X, xx, config, spec)
    state = prev = None
    for _ in range(config.max_iter):
        labels, coeffs, state = _nearest(X, xx, V, spec, state)
        if spec.constraint_mode != "binary":
            labels = np.where(coeffs == 0.0, -1, labels)
        membership = Membership._of(labels, coeffs, K)
        V = _update_centroids(X, membership, spec, V)
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
