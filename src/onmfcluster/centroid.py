"""Centroid updates: exact minimizers of the per-cluster subproblems.

``centroid_l2`` soft-thresholds the weighted component means, ``centroid_l1``
takes weighted regularized medians. ``update_centroids`` applies the
discrepancy-appropriate update to every cluster, resolves empty clusters by
the configured policy, and in normalized mode projects rows back to the unit
sphere.
"""

from __future__ import annotations

import numpy as np

from .distance import own_distances
from .model import Membership, ModelSpec
from .scalar_prox import _weighted_reg_medians

EMPTY_CLUSTER_POLICIES = ("reseed_farthest", "keep_previous")


def centroid_l2(X_k, u_k, lambda_v: float = 0.0, mu_v: float = 0.0) -> np.ndarray:
    """Centroid row for the l2 discrepancy: thresholded weighted mean.

    Componentwise tau_gamma((X_k^T u_k) / (||u_k||^2 + mu_v)) with
    gamma = lambda_v / (2 (||u_k||^2 + mu_v)). With unit weights and no
    penalties this is the arithmetic mean of the cluster rows.
    """
    X_k = np.atleast_2d(np.asarray(X_k, dtype=float))
    u_k = np.asarray(u_k, dtype=float).ravel()
    if X_k.shape[0] != u_k.size or u_k.size < 1:
        raise ValueError("X_k rows and u_k must have equal positive length")
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
    X_k = np.atleast_2d(np.asarray(X_k, dtype=float))
    u_k = np.asarray(u_k, dtype=float).ravel()
    if X_k.shape[0] != u_k.size or u_k.size < 1:
        raise ValueError("X_k rows and u_k must have equal positive length")
    if lambda_v < 0 or mu_v < 0:
        raise ValueError("lambda_v and mu_v must be nonnegative")
    return _weighted_reg_medians(X_k.T, u_k, lambda_v, mu_v)


def _block_cost(X_k: np.ndarray, u_k: np.ndarray, v: np.ndarray, spec: ModelSpec) -> float:
    """Objective contribution of one cluster for a candidate centroid row."""
    R = X_k - u_k[:, None] * v[None, :]
    if spec.discrepancy == "l2":
        fit = float((R * R).sum())
    else:
        fit = float(np.abs(R).sum())
    return fit + spec.reg.lambda_v * float(np.abs(v).sum()) + spec.reg.mu_v * float(v @ v)


def update_centroids(
    X,
    membership: Membership,
    n_clusters: int,
    spec: ModelSpec,
    previous,
    empty_cluster_policy: str = "reseed_farthest",
) -> np.ndarray:
    """Recompute every centroid row from its cluster's rows and coefficients.

    Rows with coefficient 0 do not contribute. Empty clusters either retain
    the previous row (``keep_previous``) or are reseeded with the data point
    farthest from its own current centroid (``reseed_farthest``; ties and
    multiple empty clusters resolve toward lower indices, each data point
    reseeding at most one cluster). In normalized mode every updated row with
    positive norm (reseeded rows included) is rescaled to unit norm; because
    that projection is not an exact minimizer under the l1 discrepancy or
    with active centroid penalties, a feasible previous row is kept whenever
    the candidate would increase the cluster's objective contribution.
    """
    if empty_cluster_policy not in EMPTY_CLUSTER_POLICIES:
        raise ValueError(f"empty_cluster_policy must be one of {EMPTY_CLUSTER_POLICIES}")
    X = np.asarray(X, dtype=float)
    previous = np.asarray(previous, dtype=float)
    if previous.shape != (n_clusters, X.shape[1]):
        raise ValueError("previous centroid matrix has inconsistent shape")

    labels = membership.labels
    coeffs = membership.coefficients
    V = previous.copy()
    empty = []
    for k in range(n_clusters):
        mask = (labels == k) & (coeffs > 0)
        if not mask.any():
            empty.append(k)
            continue
        X_k = X[mask]
        u_k = coeffs[mask]
        if spec.discrepancy == "l2":
            row = centroid_l2(X_k, u_k, spec.reg.lambda_v, spec.reg.mu_v)
        else:
            row = centroid_l1(X_k, u_k, spec.reg.lambda_v, spec.reg.mu_v)
        if spec.constraint_mode == "normalized":
            norm = float(np.sqrt(row @ row))
            if norm > 0.0:
                row = row / norm
            # Keep the previous row if the candidate would be worse, but only
            # when the previous row is itself feasible (unit norm): the very
            # first update starts from raw data rows, which must be replaced.
            prev = previous[k]
            if abs(float(prev @ prev) - 1.0) <= 1e-9 and _block_cost(
                X_k, u_k, row, spec
            ) > _block_cost(X_k, u_k, prev, spec):
                row = prev
        V[k] = row

    if empty and empty_cluster_policy == "reseed_farthest":
        dist = own_distances(X, previous, labels, spec)
        for k in empty:
            m = int(np.argmax(dist))
            row = X[m]
            if spec.constraint_mode == "normalized":
                norm = float(np.sqrt(row @ row))
                if norm > 0.0:
                    row = row / norm
            V[k] = row
            dist[m] = -np.inf
    return V
