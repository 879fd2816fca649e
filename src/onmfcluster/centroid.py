"""Centroid updates: exact minimizers of the per-cluster subproblems.

``centroid_l2`` soft-thresholds the weighted component means, ``centroid_l1``
takes weighted regularized medians; they are the paper-level definitions and
the oracles ``update_centroids`` is tested against. ``update_centroids``
updates every cluster in one batched pass: under l2 all thresholded means
come from one product U^T X, under l1 the rows are grouped by label once and
each cluster takes one batched median sweep. With unit weights and no
centroid penalties, as in K-median, the sweep's value is the plain column
median, read off one stable sort of the cluster's rows instead. Empty
clusters are resolved by the configured policy, and in normalized mode every
row is projected onto the unit sphere once. Under l2 that projection is the
exact minimizer; under l1 a guard keeps the previous row where it is not.
Reseeding and the guard read each row's cost from ``model.row_costs``, the
cost the objective sums.
"""

from __future__ import annotations

import numpy as np

from .model import Membership, ModelSpec, dense_u, row_costs
from .scalar_prox import _weighted_reg_medians

EMPTY_CLUSTER_POLICIES = ("reseed_farthest", "keep_previous")


def _cluster(X_k, u_k) -> tuple[np.ndarray, np.ndarray]:
    X_k = np.atleast_2d(np.asarray(X_k, dtype=float))
    u_k = np.asarray(u_k, dtype=float).ravel()
    if X_k.shape[0] != u_k.size or u_k.size < 1:
        raise ValueError("X_k rows and u_k must have equal positive length")
    if not (np.isfinite(X_k).all() and np.isfinite(u_k).all()):
        raise ValueError("X_k and u_k must be finite")
    return X_k, u_k


def centroid_l2(X_k, u_k, lambda_v: float = 0.0, mu_v: float = 0.0) -> np.ndarray:
    """Centroid row for the l2 discrepancy: thresholded weighted mean.

    Componentwise tau_gamma((X_k^T u_k) / (||u_k||^2 + mu_v)) with
    gamma = lambda_v / (2 (||u_k||^2 + mu_v)). With unit weights and no
    penalties this is the arithmetic mean of the cluster rows.
    """
    X_k, u_k = _cluster(X_k, u_k)
    denom = float(u_k @ u_k) + mu_v
    if denom <= 0.0:
        raise ValueError("||u_k||^2 + mu_v must be positive")
    gamma = lambda_v / (2.0 * denom)
    return np.maximum(X_k.T @ u_k / denom - gamma, 0.0)


def centroid_l1(X_k, u_k, lambda_v: float = 0.0, mu_v: float = 0.0) -> np.ndarray:
    """Centroid row for the l1 discrepancy: weighted regularized medians.

    Component n is the weighted regularized median of the targets X_k[:, n]
    with weights u_k; all components are solved in one batched sweep.
    """
    X_k, u_k = _cluster(X_k, u_k)
    if lambda_v < 0 or mu_v < 0:
        raise ValueError("lambda_v and mu_v must be nonnegative")
    return _weighted_reg_medians(X_k.T, u_k, lambda_v, mu_v)


def _median(X_k: np.ndarray) -> np.ndarray:
    """Column medians of X_k, the two middle values' midpoint for even counts.

    A stable sort puts equal values, 0.0 and -0.0 included, in row order as
    the sweep's stable argsort does, so these are the unit-weight,
    unpenalized ``_weighted_reg_medians`` values bit for bit.
    """
    n = X_k.shape[0]
    h = n // 2
    S = np.sort(X_k, axis=0, kind="stable")
    return S[h] if n % 2 else 0.5 * (S[h - 1] + S[h])


def update_centroids(
    X,
    membership: Membership,
    n_clusters: int,
    spec: ModelSpec,
    previous,
    empty_cluster_policy: str = "reseed_farthest",
) -> np.ndarray:
    """Recompute every centroid row from its cluster's rows and coefficients.

    Row k equals ``centroid_l2``/``centroid_l1`` of the rows labelled k with a
    positive coefficient. Empty clusters either retain the previous row
    (``keep_previous``) or take the data points of largest ``row_costs``
    against ``previous`` (``reseed_farthest``; ties and multiple empty
    clusters resolve toward lower indices, one cluster per data point). In
    normalized mode every row is projected onto the unit sphere; a zero row
    becomes e_j for the largest component j of X^T u_k - lambda_v / 2, the
    exact l2 minimizer over nonnegative unit vectors when none is positive.
    Under l2 that projection is the exact minimizer over nonnegative unit
    rows. It is not exact under l1, so there a unit-norm previous row is kept
    whenever the candidate would increase its cluster's cost.
    """
    if empty_cluster_policy not in EMPTY_CLUSTER_POLICIES:
        raise ValueError(f"empty_cluster_policy must be one of {EMPTY_CLUSTER_POLICIES}")
    X = np.asarray(X, dtype=float)
    previous = np.asarray(previous, dtype=float)
    if previous.shape != (n_clusters, X.shape[1]):
        raise ValueError("previous centroid matrix has inconsistent shape")
    if membership.n_clusters != n_clusters:
        raise ValueError(f"membership has {membership.n_clusters} clusters, expected {n_clusters}")

    reg = spec.reg
    labels, coeffs = membership.labels, membership.coefficients
    members = coeffs > 0
    sizes = np.bincount(labels[members], minlength=n_clusters)
    full = sizes > 0
    normalized = spec.constraint_mode == "normalized"
    V = previous.copy()
    if spec.discrepancy == "l2" or normalized:
        U = dense_u(membership)
        A = U.T @ X
        A -= reg.lambda_v / 2.0
    if spec.discrepancy == "l2":
        d = np.einsum("mk,mk->k", U, U)[full] + reg.mu_v
        V[full] = np.maximum(A[full] / d[:, None], 0.0)
    else:
        rows = np.flatnonzero(members)
        rows = rows[np.argsort(labels[rows], kind="stable")]
        groups = np.split(rows, np.cumsum(sizes[full])[:-1])
        plain = reg.lambda_v == reg.mu_v == 0.0 and (coeffs[rows] == 1.0).all()
        for k, group in zip(np.flatnonzero(full), groups):
            if plain:
                V[k] = _median(X[group])
            else:
                V[k] = _weighted_reg_medians(X[group].T, coeffs[group], reg.lambda_v, reg.mu_v)

    empty = np.flatnonzero(~full)
    if empty.size and empty_cluster_policy == "reseed_farthest":
        farthest = np.argsort(-row_costs(X, membership, previous, spec), kind="stable")[: empty.size]
        V[empty[: farthest.size]] = X[farthest]

    if normalized:
        norms = np.sqrt(np.einsum("kn,kn->k", V, V))
        zero = norms == 0.0
        V[~zero] /= norms[~zero, None]
        V[zero, A[zero].argmax(axis=1)] = 1.0
        if spec.discrepancy == "l2":
            return V

        def block_costs(W):
            fit = np.bincount(labels[members], row_costs(X, membership, W, spec)[members], n_clusters)
            return fit + reg.lambda_v * np.abs(W).sum(axis=1) + reg.mu_v * np.einsum("kn,kn->k", W, W)

        # The very first update starts from raw data rows, which are never kept.
        feasible = full & (np.abs(np.einsum("kn,kn->k", previous, previous) - 1.0) <= 1e-9)
        keep = feasible & (block_costs(V) > block_costs(previous))
        V[keep] = previous[keep]
    return V
