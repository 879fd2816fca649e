"""Core data types for the clustering models.

Cluster membership is stored sparsely as one optional (cluster, coefficient)
pair per data row, so the pairwise-orthogonality constraint on the membership
matrix (at most one nonzero per row) holds by construction and cannot be
violated at runtime.

``objective`` is the paper's three terms, the discrepancy ||X - UV|| (squared
l2 or l1) and the elastic nets on U and on V, each one flat reduction, and
checks that X and V fit the membership. By row, each term has one evaluation:
``_residual_costs`` reduces residual rows to their discrepancy plus mu_u t^2,
then lambda_u t, for ``_row_costs`` (the CLI's distance column, the centroid
update's reseed and guard) and for ``distance._costs_at``, the binary and l1
pair kernel; ``_penalty`` gives the elastic nets whole or per row.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .scalar_prox import _check_penalties

DISCREPANCIES = ("l1", "l2")
CONSTRAINT_MODES = ("c1_free", "normalized", "binary")


def as_data_matrix(values) -> np.ndarray:
    """Validate and return a 2-D nonnegative float array (rows = data points) of finite squared row norms."""
    return _data_matrix(values)[0]


def _squares(spec: ModelSpec | None) -> bool:
    """Whether a model squares data rows, as l2 and normalized mode's unit seeds do; None stands for any model."""
    return spec is None or spec.discrepancy == "l2" or spec.constraint_mode == "normalized"


def _data_matrix(values, spec: ModelSpec | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """``as_data_matrix`` for spec, and the squared row norms it checks where the model squares rows, else None."""
    if np.iscomplexobj(values):
        raise ValueError("data matrix must be real, got complex entries")
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
    # Every distance and objective term is bounded by the row norms the model
    # takes, so a row whose norm overflows would turn the run into inf and NaN.
    squares = _squares(spec)
    with np.errstate(over="ignore"):
        norms = np.einsum("mn,mn->m", X, X) if squares else X.sum(axis=1)
    overflow = np.flatnonzero(~np.isfinite(norms))
    if overflow.size:
        norm = "squared norm" if squares else "l1 norm"
        raise ValueError(f"{norm} of data row {overflow[0]} (0-based) overflows float64; rescale the data")
    return X, norms if squares else None


def _check_integers(**values) -> None:
    """Raise ``ValueError`` unless every named value is an integer, not a bool."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Membership:
    """Sparse row-wise cluster membership.

    ``labels[m]`` is the cluster index of row m, or -1 when the row carries no
    assignment. ``coefficients[m]`` is the membership coefficient. The solver
    labels a row -1 exactly where the sparsity penalty thresholds its
    coefficient to 0. A labelled row with coefficient 0.0, built by hand, is
    accepted and contributes nothing to centroid updates or to the
    reconstruction.
    """

    labels: np.ndarray
    coefficients: np.ndarray
    n_clusters: int

    def __post_init__(self):
        _check_integers(n_clusters=self.n_clusters)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        raw = np.asarray(self.labels)
        # Float labels are checked before the cast truncates them; NaN fails ==.
        if raw.dtype.kind == "f" and not ((raw == np.trunc(raw)) & (abs(raw) <= self.n_clusters)).all():
            raise ValueError("cluster labels must be integers in [-1, n_clusters)")
        labels = _frozen_array(raw, np.int64)
        coeffs = _frozen_array(self.coefficients, float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coefficients", coeffs)
        if labels.ndim != 1 or coeffs.shape != labels.shape:
            raise ValueError("labels and coefficients must be 1-D of equal length")
        if labels.max(initial=-1) >= self.n_clusters or labels.min(initial=0) < -1:
            raise ValueError("cluster labels must lie in [-1, n_clusters)")
        # NaN fails both comparisons.
        if not (coeffs.min(initial=0.0) >= 0.0 and coeffs.max(initial=0.0) < np.inf):
            raise ValueError("membership coefficients must be finite and nonnegative")
        if (coeffs[labels < 0] != 0).any():
            raise ValueError("rows without a label must have coefficient 0")

    @classmethod
    def _of(cls, labels: np.ndarray, coefficients: np.ndarray, n_clusters: int) -> Membership:
        """A membership of int64 labels and float64 coefficients that hold its invariants.

        The arrays are taken as they are and marked read-only, without the
        constructor's copies and checks, so the caller must have just made
        them and keep no writable reference.
        """
        labels.setflags(write=False)
        coefficients.setflags(write=False)
        membership = object.__new__(cls)
        object.__setattr__(membership, "labels", labels)
        object.__setattr__(membership, "coefficients", coefficients)
        object.__setattr__(membership, "n_clusters", n_clusters)
        return membership

    @property
    def n_rows(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class RegularizationParams:
    """Elastic net weights: l1 (lambda) and squared-l2 (mu) on each factor."""

    lambda_u: float = 0.0
    lambda_v: float = 0.0
    mu_u: float = 0.0
    mu_v: float = 0.0

    def __post_init__(self):
        _check_penalties(**vars(self))


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
        if not isinstance(self.reg, RegularizationParams):
            raise ValueError(f"reg must be a RegularizationParams, got {self.reg!r}")
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

    ``objective_trace`` holds :func:`objective` after every full iteration and is
    non-increasing (within 1e-10 per step) in every mode and penalty setting,
    empty clusters included. Rows whose coefficient was thresholded to zero
    carry label -1 and make up ``unassigned_rows``; clusters with no row of
    positive coefficient make up ``empty_clusters``.
    """

    membership: Membership
    centroids: np.ndarray
    objective_trace: np.ndarray
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "centroids", _frozen_array(self.centroids, float))
        object.__setattr__(self, "objective_trace", _frozen_array(self.objective_trace, float))

    @property
    def iterations(self) -> int:
        return self.objective_trace.size

    @property
    def unassigned_rows(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.membership.labels < 0).tolist())

    @property
    def empty_clusters(self) -> frozenset[int]:
        m = self.membership
        return frozenset(set(range(m.n_clusters)) - set(m.labels[m.coefficients > 0].tolist()))


def _residuals(X: np.ndarray, membership: Membership, V: np.ndarray) -> np.ndarray:
    """X - u V[label], row by row, in a new array.

    The centroid rows are gathered with one ``take`` and scaled only when
    some coefficient differs from 1, so a binary membership costs no
    multiply; scaling by 1 is exact, so the residuals are the same either
    way. A row without an assignment has coefficient 0 and keeps x_m.
    """
    coeffs = membership.coefficients
    R = V.take(np.maximum(membership.labels, 0), axis=0)
    if (coeffs != 1.0).any():
        R *= coeffs[:, None]
    np.subtract(X, R, out=R)
    return R


def _row_costs(X: np.ndarray, membership: Membership, V: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Each row's ``_residual_costs`` at its label and coefficient, for X and V that fit the membership.

    A row without an assignment, or with coefficient 0, costs its full norm.
    For a membership the solver assigned against V this is the distance the
    assignment chose, bit for bit under l1 and in binary mode. The sum with
    the centroid penalties is :func:`objective` to rounding.
    """
    return _residual_costs(_residuals(X, membership, V), spec, membership.coefficients)


def _residual_costs(R: np.ndarray, spec: ModelSpec, t=None) -> np.ndarray:
    """Each residual row's squared norm (l2) or absolute sum (l1), + mu_u t^2 + lambda_u t, overwriting R.

    The terms are added in that order and skipped where their weight is 0,
    never evaluated as 0 * inf; binary mode passes t = None.
    """
    cost = (np.multiply(R, R, out=R) if spec.discrepancy == "l2" else np.abs(R, out=R)).sum(axis=-1)
    if t is not None and spec.reg.mu_u:
        cost += spec.reg.mu_u * t * t
    if t is not None and spec.reg.lambda_u:
        cost += spec.reg.lambda_u * t
    return cost


def _objective_terms(X, membership: Membership, V, spec: ModelSpec) -> tuple[float, float, float]:
    """The three terms :func:`objective` adds: (fit, penalty_u, penalty_v), inf on overflow."""
    X, V = np.asarray(X, dtype=float), np.asarray(V, dtype=float)
    if X.ndim != 2 or V.ndim != 2:
        raise ValueError("X and V must be 2-D")
    if (X.shape[0], V.shape[0], X.shape[1]) != (membership.n_rows, membership.n_clusters, V.shape[1]):
        raise ValueError(
            f"X {X.shape} and V {V.shape} do not fit a membership of "
            f"{membership.n_rows} rows and {membership.n_clusters} clusters"
        )
    R = _residuals(X, membership, V)
    with np.errstate(over="ignore"):
        fit = float((np.square(R, out=R) if spec.discrepancy == "l2" else np.abs(R, out=R)).sum())
        penalty_u = float(_penalty(spec.reg.lambda_u, membership.coefficients, spec.reg.mu_u))
        return fit, penalty_u, float(_penalty(spec.reg.lambda_v, V, spec.reg.mu_v))


def _penalty(lam: float, A: np.ndarray, mu: float, axis=None):
    """lam ||A||_1 + mu ||A||_F^2 over all of A, or per row with axis=1; a zero-weight term is skipped."""
    value = lam * np.abs(A).sum(axis=axis) if lam else (0.0 if axis is None else np.zeros(len(A)))
    if mu:
        value = value + mu * (A * A).sum(axis=axis)
    return value


def objective(X, membership: Membership, V, spec: ModelSpec) -> float:
    """Evaluate the full model objective: data fit plus elastic net penalties.

    fit + penalty_u + penalty_v, in that order: fit is ||X - UV||_F^2 (l2)
    or ||X - UV||_1 (l1), one flat sum over the residuals, penalty_u =
    lambda_u sum(u) + mu_u sum(u^2) and penalty_v = lambda_v ||V||_1 +
    mu_v ||V||_F^2. A zero-weight term is skipped, never evaluated as
    0 * inf. Raises ``ValueError`` unless X and V are 2-D and fit the
    membership's rows and clusters, or if the objective is not finite.
    """
    fit, penalty_u, penalty_v = _objective_terms(X, membership, V, spec)
    value = fit + penalty_u + penalty_v
    if not np.isfinite(value):
        raise ValueError(f"objective is {value}: the data or penalty weights overflow float64")
    return value
