"""Core data types for the clustering models.

Cluster membership is stored sparsely as one optional (cluster, coefficient)
pair per data row, so the pairwise-orthogonality constraint on the membership
matrix (at most one nonzero per row) holds by construction and cannot be
violated at runtime.

``row_costs`` is each row's share of the objective; ``objective``, the
centroid update's guard and reseeding, and the CLI's distance column read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DISCREPANCIES = ("l1", "l2")
CONSTRAINT_MODES = ("c1_free", "normalized", "binary")


def as_data_matrix(values) -> np.ndarray:
    """Validate and return a 2-D nonnegative float array (rows = data points)."""
    X = np.asarray(values, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"data matrix must be 2-D, got shape {X.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"data matrix must be at least 1x1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("data matrix contains NaN or infinite entries")
    if (X < 0).any():
        m, n = np.argwhere(X < 0)[0]
        raise ValueError(f"data matrix must be nonnegative; entry ({m}, {n}) is {X[m, n]}")
    # Every distance and objective term is bounded by squared row norms, so a
    # row whose squared norm overflows would turn the run into inf and NaN.
    with np.errstate(over="ignore"):
        overflow = np.flatnonzero(~np.isfinite(np.einsum("mn,mn->m", X, X)))
    if overflow.size:
        raise ValueError(
            f"squared norm of data row {overflow[0]} (0-based) overflows float64; rescale the data"
        )
    return X


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Membership:
    """Sparse row-wise cluster membership.

    ``labels[m]`` is the cluster index of row m, or -1 when the row carries no
    assignment. ``coefficients[m]`` is the membership coefficient; a row with a
    label but coefficient 0.0 was thresholded to zero by the sparsity penalty
    and keeps its label for reporting only (it does not contribute to centroid
    updates or to the reconstruction).
    """

    labels: np.ndarray
    coefficients: np.ndarray
    n_clusters: int

    def __post_init__(self):
        labels = _frozen_array(self.labels, np.int64)
        coeffs = _frozen_array(self.coefficients, float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coefficients", coeffs)
        if labels.ndim != 1 or coeffs.shape != labels.shape:
            raise ValueError("labels and coefficients must be 1-D of equal length")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if labels.max(initial=-1) >= self.n_clusters or labels.min(initial=0) < -1:
            raise ValueError("cluster labels must lie in [-1, n_clusters)")
        if (coeffs < 0).any():
            raise ValueError("membership coefficients must be nonnegative")
        if (coeffs[labels < 0] != 0).any():
            raise ValueError("rows without a label must have coefficient 0")

    @property
    def n_rows(self) -> int:
        return self.labels.shape[0]


def dense_u(membership: Membership) -> np.ndarray:
    """Expand a sparse membership into the dense M x K coefficient matrix.

    At most one entry per row is nonzero, so the columns of the result are
    pairwise orthogonal by construction.
    """
    U = np.zeros((membership.n_rows, membership.n_clusters))
    assigned = membership.labels >= 0
    U[np.nonzero(assigned)[0], membership.labels[assigned]] = membership.coefficients[assigned]
    return U


@dataclass(frozen=True)
class RegularizationParams:
    """Elastic net weights: l1 (lambda) and squared-l2 (mu) on each factor."""

    lambda_u: float = 0.0
    lambda_v: float = 0.0
    mu_u: float = 0.0
    mu_v: float = 0.0

    def __post_init__(self):
        for name in ("lambda_u", "lambda_v", "mu_u", "mu_v"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class ModelSpec:
    """Which discrepancy, which membership constraint, and the penalty weights.

    Constraint modes:

    * ``c1_free``    -- one free nonnegative coefficient per row.
    * ``normalized`` -- unit-norm centroid rows with free coefficients
      (the weighted spherical variant).
    * ``binary``     -- coefficients fixed at 1 (classical K-means / K-median).

    The binary and normalized modes fix the membership entries, so an elastic
    net on the membership factor is meaningless there and is rejected.
    """

    discrepancy: str = "l2"
    constraint_mode: str = "c1_free"
    reg: RegularizationParams = field(default_factory=RegularizationParams)

    def __post_init__(self):
        if self.discrepancy not in DISCREPANCIES:
            raise ValueError(f"discrepancy must be one of {DISCREPANCIES}")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"constraint_mode must be one of {CONSTRAINT_MODES}")
        if self.constraint_mode in ("binary", "normalized"):
            if self.reg.lambda_u != 0 or self.reg.mu_u != 0:
                raise ValueError(
                    f"{self.constraint_mode} mode fixes the membership entries; "
                    "lambda_u and mu_u must be 0"
                )


@dataclass(frozen=True)
class FactorizationResult:
    """Final state of an alternating-minimization run.

    ``objective_trace`` holds the objective after every full iteration and is
    non-increasing (within 1e-10 per step). ``unassigned_rows`` lists rows
    whose coefficient was thresholded to zero.
    """

    membership: Membership
    centroids: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    unassigned_rows: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "centroids", _frozen_array(self.centroids, float))
        object.__setattr__(self, "objective_trace", _frozen_array(self.objective_trace, float))


def row_costs(X, membership: Membership, V, spec: ModelSpec) -> np.ndarray:
    """Each row's residual plus its membership penalty.

    Row m with label k and coefficient u costs D(x_m, u v_k) + lambda_u u +
    mu_u u^2 (squared norm for l2, absolute sum for l1); a row without an
    assignment, or with coefficient 0, costs its full norm. For a membership
    the solver assigned against V this is the distance the assignment chose.
    Zero-weight penalty terms are skipped, never evaluated as 0 * inf.
    """
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if X.ndim != 2 or V.ndim != 2:
        raise ValueError("X and V must be 2-D")
    if (X.shape[0], V.shape[0], X.shape[1]) != (membership.n_rows, membership.n_clusters, V.shape[1]):
        raise ValueError(
            f"X {X.shape} and V {V.shape} do not fit a membership of "
            f"{membership.n_rows} rows and {membership.n_clusters} clusters"
        )
    coeffs = membership.coefficients
    R = V[np.maximum(membership.labels, 0)]  # label -1 has coefficient 0
    R *= coeffs[:, None]
    np.subtract(X, R, out=R)
    cost = (np.multiply(R, R, out=R) if spec.discrepancy == "l2" else np.abs(R, out=R)).sum(axis=1)
    if spec.reg.lambda_u:
        cost += spec.reg.lambda_u * coeffs
    if spec.reg.mu_u:
        cost += spec.reg.mu_u * coeffs * coeffs
    return cost


def objective(X, membership: Membership, V, spec: ModelSpec) -> float:
    """Evaluate the full model objective: data fit plus elastic net penalties.

    The sum of :func:`row_costs` plus the centroid penalties
    lambda_v ||V||_1 + mu_v ||V||_F^2, whose zero-weight terms are skipped.
    Raises ``ValueError`` if the objective is not finite.
    """
    V = np.asarray(V, dtype=float)
    value = float(row_costs(X, membership, V, spec).sum())
    if spec.reg.lambda_v:
        value += spec.reg.lambda_v * float(np.abs(V).sum())
    if spec.reg.mu_v:
        value += spec.reg.mu_v * float((V * V).sum())
    if not np.isfinite(value):
        raise ValueError(f"objective is {value}: the data or penalty weights overflow float64")
    return value
