"""Textbook baselines used as independent oracles in tests.

``lloyd_kmeans`` is the classical Lloyd iteration (squared-Euclidean
assignment, mean centroids); ``kmedian`` its l1 counterpart (Manhattan
assignment, coordinate medians with the midpoint convention). Both share the
solver's conventions exactly: lowest-index tie-breaks, an empty cluster
takes the farthest row (the solver's rule when no centroid penalty applies),
objective recorded after each full iteration, stop on unchanged assignments. ``random_rows_seeds`` is the row-by-row loop the solver's
``random_rows`` seeding must reproduce. ``plain_terms`` are the model
objective's three terms written in plain numpy, and ``plain_objective``
their sum. ``plain_l2_update`` is the l2 centroid update of the clusters
with members, as a masked dense U (``plain_u``), one product and a division.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class BaselineStep(NamedTuple):
    assignments: np.ndarray
    centroids: np.ndarray
    cost: float


def _iterate(
    X: np.ndarray,
    n_clusters: int,
    init: np.ndarray,
    max_iter: int,
    point_costs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    center: Callable[[np.ndarray], np.ndarray],
) -> list[BaselineStep]:
    C = np.asarray(init, dtype=float).copy()
    if C.shape != (n_clusters, X.shape[1]):
        raise ValueError("init must be a K x N centroid matrix")
    steps: list[BaselineStep] = []
    labels = None
    for _ in range(max_iter):
        dist = point_costs(X, C)
        new_labels = dist.argmin(axis=1)
        own = dist[np.arange(X.shape[0]), new_labels]
        new_C = C.copy()
        empty = []
        for k in range(n_clusters):
            members = X[new_labels == k]
            if members.shape[0] == 0:
                empty.append(k)
            else:
                new_C[k] = center(members)
        for k in empty:
            m = int(np.argmax(own))
            new_C[k] = X[m]
            own = own.copy()
            own[m] = -np.inf
        C = new_C
        cost = float(point_costs(X, C)[np.arange(X.shape[0]), new_labels].sum())
        steps.append(BaselineStep(new_labels, C.copy(), cost))
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return steps


def _sq_euclidean(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - C[None, :, :]
    return (diff * diff).sum(axis=2)


def _manhattan(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    return np.abs(X[:, None, :] - C[None, :, :]).sum(axis=2)


def lloyd_kmeans_history(X, n_clusters: int, init, max_iter: int = 300) -> list[BaselineStep]:
    """Per-iteration trajectory of the Lloyd iteration."""
    X = np.asarray(X, dtype=float)
    return _iterate(X, n_clusters, init, max_iter, _sq_euclidean, lambda M: M.mean(axis=0))


def lloyd_kmeans(X, n_clusters: int, init, max_iter: int = 300):
    """Classical K-means: returns (assignments, centroids, cost trace)."""
    steps = lloyd_kmeans_history(X, n_clusters, init, max_iter)
    last = steps[-1]
    return last.assignments, last.centroids, np.array([s.cost for s in steps])


def kmedian_history(X, n_clusters: int, init, max_iter: int = 300) -> list[BaselineStep]:
    """Per-iteration trajectory of the K-median iteration."""
    X = np.asarray(X, dtype=float)
    return _iterate(X, n_clusters, init, max_iter, _manhattan, lambda M: np.median(M, axis=0))


def kmedian(X, n_clusters: int, init, max_iter: int = 300):
    """K-median with coordinate medians: returns (assignments, centroids, cost trace)."""
    steps = kmedian_history(X, n_clusters, init, max_iter)
    last = steps[-1]
    return last.assignments, last.centroids, np.array([s.cost for s in steps])


def random_rows_seeds(X, n_clusters: int, seed: int) -> list[int]:
    """Rows of one seeded permutation, skipping those equal to a row already taken.

    Rows compare with ``np.array_equal``, so 0.0 equals -0.0. Stops at
    ``n_clusters`` rows; fewer come back when X has fewer distinct rows.
    """
    X = np.asarray(X, dtype=float)
    chosen: list[int] = []
    for idx in np.random.default_rng(seed).permutation(X.shape[0]):
        if any(np.array_equal(X[idx], X[c]) for c in chosen):
            continue
        chosen.append(int(idx))
        if len(chosen) == n_clusters:
            break
    return chosen


def plain_terms(X, labels, coefficients, V, spec) -> tuple[float, float, float]:
    """fit, lambda_u sum(u) + mu_u sum(u^2) and lambda_v ||V||_1 + mu_v ||V||_F^2.

    fit is the squared l2 norm or the l1 norm of X - U V, one flat sum over
    the residual matrix; a row with label -1 has coefficient 0 and keeps x_m.
    """
    u = np.asarray(coefficients, dtype=float)
    R = X - u[:, None] * V[np.maximum(labels, 0)]
    fit = np.square(R).sum() if spec.discrepancy == "l2" else np.abs(R).sum()
    reg = spec.reg
    penalty_u = reg.lambda_u * u.sum() + reg.mu_u * (u * u).sum()
    penalty_v = reg.lambda_v * np.abs(V).sum() + reg.mu_v * (V * V).sum()
    return float(fit), float(penalty_u), float(penalty_v)


def plain_objective(X, labels, coefficients, V, spec) -> float:
    """The sum of the three ``plain_terms``, added in their order."""
    fit, penalty_u, penalty_v = plain_terms(X, labels, coefficients, V, spec)
    return fit + penalty_u + penalty_v


def plain_u(labels, coefficients, n_clusters: int) -> np.ndarray:
    """The dense M x K membership matrix, filled through a mask of the labelled rows."""
    labels = np.asarray(labels)
    U = np.zeros((labels.size, n_clusters))
    assigned = labels >= 0
    U[np.nonzero(assigned)[0], labels[assigned]] = np.asarray(coefficients, dtype=float)[assigned]
    return U


def plain_l2_update(X, labels, coefficients, n_clusters: int, spec, previous) -> np.ndarray:
    """The l2 centroid update of every cluster with a member of positive coefficient; other rows keep previous.

    U is filled through a mask of the labelled rows. Such a cluster k takes
    max((U^T X - lambda_v / 2)[k] / (sum_m U[m, k]^2 + mu_v), 0), and in
    normalized mode every row is then divided by its norm, a zero row of a
    cluster with members becoming e_j for the largest entry of its row of
    U^T X - lambda_v / 2.
    """
    labels = np.asarray(labels)
    u = np.asarray(coefficients, dtype=float)
    U = plain_u(labels, u, n_clusters)
    A = U.T @ X - spec.reg.lambda_v / 2.0
    full = np.bincount(labels[u > 0], minlength=n_clusters) > 0
    V = np.array(previous, dtype=float)
    V[full] = np.maximum(A[full] / (np.einsum("mk,mk->k", U, U)[full] + spec.reg.mu_v)[:, None], 0.0)
    if spec.constraint_mode == "normalized":
        norms = np.sqrt(np.einsum("kn,kn->k", V, V))
        for k in range(n_clusters):
            if norms[k] > 0.0:
                V[k] /= norms[k]
            elif full[k]:
                V[k, A[k].argmax()] = 1.0
    return V
