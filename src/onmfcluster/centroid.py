"""Centroid updates: exact minimizers of the per-cluster subproblems.

``centroid_l2`` soft-thresholds the weighted component means, ``centroid_l1``
takes weighted regularized medians; they are the paper-level definitions, under
``scalar_prox``'s contract, and the oracles ``_update_centroids`` is tested
against. ``_update_centroids``, a fit's V-block, updates every cluster in one
batched pass on the fit's validated rows and checks nothing. Under l2 all
thresholded means come from one scatter of the coefficients into U, one
product U^T X and one division by ||u_k||^2 + mu_v; in binary mode, where every
coefficient is 1, ||u_k||^2 is the member count. Where ||u_k||^2 + mu_v is 0
in float64 the row is zero, as ``centroid_l2`` gives it. Under l1 the rows are
grouped by label once and the clusters, in order of size, are stacked into
batches padded to a common width, each within the sweep's chunk budget of
elements, and each batch takes one median sweep. With unit weights and no centroid penalties,
as in K-median, the sweep's value is the plain column median, read off one sort
per batch instead. In normalized mode every row is projected onto the unit
sphere once. Under l2 that projection is the exact minimizer; under l1 a guard
keeps the previous row where it is not. Seeds and reseeds are unit rows too,
and no entry is -0.0. An empty cluster's row enters the objective only through
its centroid penalty, so it takes its farthest data row only where that penalty
does not grow: the update never raises the objective. Reseeding and the guard
read each row's cost from ``model._row_costs`` and each centroid row's penalty
from ``model._penalty``, the objective's own terms by row.
"""

from __future__ import annotations

import numpy as np

from . import scalar_prox
from .model import Membership, ModelSpec, _penalty, _row_costs
from .scalar_prox import _check_problem, _finite, _midpoints, _quadratic_min, _weighted_reg_medians


def centroid_l2(X_k, u_k, lambda_v: float = 0.0, mu_v: float = 0.0) -> np.ndarray:
    """Centroid row for the l2 discrepancy: thresholded weighted mean.

    Componentwise tau_{lambda_v / 2}(X_k^T u_k) / (||u_k||^2 + mu_v). With
    unit weights and no penalties this is the arithmetic mean of the cluster
    rows.
    """
    targets, u_k = _check_problem(np.atleast_2d(X_k).T, u_k, lambda_v=lambda_v, mu_v=mu_v)
    with np.errstate(over="ignore"):
        return _quadratic_min(_finite("X_k^T u_k", targets @ u_k, "X_k or u_k"), float(u_k @ u_k) + mu_v, lambda_v)


def centroid_l1(X_k, u_k, lambda_v: float = 0.0, mu_v: float = 0.0) -> np.ndarray:
    """Centroid row for the l1 discrepancy: weighted regularized medians.

    Component n is the weighted regularized median of the targets X_k[:, n]
    with weights u_k; all components are solved in one batched sweep.
    """
    targets, u_k = _check_problem(np.atleast_2d(X_k).T, u_k, lambda_v=lambda_v, mu_v=mu_v)
    return _weighted_reg_medians(targets, u_k, lambda_v, mu_v)


@np.errstate(over="ignore")
def _medians(P: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Column medians of each cluster stacked in P.

    P[b] holds cluster b's sizes[b] rows followed by rows of +inf; an even
    count takes the midpoint of its two middle values, and a zero median is
    +0.0. So these are the unit-weight, unpenalized ``_weighted_reg_medians``
    values bit for bit.
    """
    S = np.sort(P, axis=1)
    b = np.arange(P.shape[0])
    lo, hi = (sizes - 1) // 2, sizes // 2
    out = S[b, hi]
    even = sizes % 2 == 0
    out[even] = _midpoints(S[b[even], lo[even]], out[even])
    return out + 0.0


def _batches(sizes: np.ndarray, clusters: np.ndarray, width: int):
    """Cut ``clusters`` into batches of at most ``width`` padded rows each.

    Clusters are taken in order of size, so a batch pads each cluster to its
    last, largest one; a cluster wider than ``width`` is a batch of its own.
    """
    clusters = clusters[np.argsort(sizes[clusters], kind="stable")]
    while clusters.size:
        padded = np.arange(1, clusters.size + 1) * sizes[clusters]
        n = max(1, int((padded <= width).sum()))
        yield clusters[:n]
        clusters = clusters[n:]


def _unit_rows(W: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Project W's rows onto the unit sphere in place; an all-zero row gets 1 at its largest A[k, j].

    Each row is first scaled exactly, by the power of two that puts its largest entry in [0.5, 1), so
    that no nonzero row's square leaves float64's range. Then every row is divided in one step, an
    all-zero row by 1, which keeps its bytes, so A may be W.
    """
    np.ldexp(W, -np.frexp(W.max(axis=1))[1][:, None], out=W)
    norms = np.sqrt(np.einsum("kn,kn->k", W, W))
    zero = norms == 0.0
    W /= np.where(zero, 1.0, norms)[:, None]
    if zero.any():
        W[zero, A[zero].argmax(axis=1)] = 1.0
    return W


def _data_rows(X: np.ndarray, rows, spec: ModelSpec) -> np.ndarray:
    """Seeds or reseeds: X[rows] without -0.0, in normalized mode unit rows, e_0 for an all-zero row."""
    W = X[rows] + 0.0
    return _unit_rows(W, W) if spec.constraint_mode == "normalized" else W


def _update_centroids(X: np.ndarray, membership: Membership, spec: ModelSpec, previous: np.ndarray):
    """Recompute every centroid row from its cluster's rows and coefficients.

    Row k equals ``centroid_l2``/``centroid_l1`` of the rows labelled k with a
    positive coefficient. Empty clusters pair with the data rows of largest
    ``_row_costs`` against ``previous`` (ties toward lower indices, one row per
    cluster) and take them where the row's centroid penalty is finite and no
    larger than the previous row's, which they keep otherwise; without
    centroid penalties every pairing is taken. In normalized mode every row
    is projected onto the unit sphere before penalties are compared, across
    float64's range; an all-zero row becomes e_j for the largest component j
    of X^T u_k - lambda_v / 2, a reseeded one e_0. Under l2 that is the exact
    minimizer over nonnegative unit rows. Under l1 it is not, so there a
    unit-norm previous row is kept whenever the candidate would increase its
    cluster's cost. No entry is -0.0, given a ``previous`` without -0.0. X
    and ``previous`` are float arrays that fit the membership. Under l2 a row
    whose ||u_k||^2 + mu_v is 0 in float64 is zero, as ``centroid_l2`` gives
    it, also where U^T X is not, and in normalized mode it then becomes e_j
    like any zero row. ``ValueError`` is raised only where a weighted mean
    (l2), or outside normalized mode its squared norm, or a weighted
    regularized median (l1) overflows.

    Under l2 the rows are one product U^T X divided by each cluster's
    ||u_k||^2 + mu_v, in place outside normalized mode. In binary mode,
    where every coefficient is exactly 1, ||u_k||^2 is the member count,
    which is exact; any other membership sums the squares of U. Under l1,
    U^T X is formed only in normalized mode, where it ranks a zero row's
    components.
    """
    n_clusters = membership.n_clusters
    reg = spec.reg
    labels, coeffs = membership.labels, membership.coefficients
    # A solver's binary membership labels every row with coefficient 1; only
    # the l2 update reads the counts this gives.
    unit = spec.discrepancy == "l2" and spec.constraint_mode == "binary" and bool((coeffs == 1.0).all())
    members = coeffs > 0
    sizes = np.bincount(labels if unit else labels[members], minlength=n_clusters)
    full = sizes > 0
    empty = np.flatnonzero(~full)
    normalized = spec.constraint_mode == "normalized"
    if spec.discrepancy == "l2" or normalized:
        # Label -1 sends an unlabelled row's coefficient, 0, to column K - 1.
        U = np.zeros((labels.size, n_clusters))
        U[np.arange(labels.size), labels] = coeffs
        # Under l1, A only ranks a zero row's components, where +inf still ranks.
        with np.errstate(over="ignore"):
            A = U.T @ X
        if reg.lambda_v:
            A -= reg.lambda_v / 2.0
    if spec.discrepancy == "l2":
        # A unit coefficient squares to 1, so ||u_k||^2 is the member count, exactly.
        denom = (sizes if unit else np.einsum("mk,mk->k", U, U)) + reg.mu_v
        with np.errstate(all="ignore"):
            # In place, except where a normalized zero row still ranks its components by A.
            W = np.divide(A, denom[:, None], out=None if normalized else A)
            # A zero denominator gives centroid_l2's zero row, also where the
            # squared coefficients underflow and U^T X does not.
            W[denom == 0.0] = 0.0
            np.maximum(W, 0.0, out=W)
            # An empty cluster keeps its previous row until the reseeding below.
            W[empty] = previous[empty]
            # Outside normalized mode the next assignment divides by each row's squared norm.
            finite = np.isfinite(W if normalized else np.einsum("kn,kn->k", W, W)).all()
        if not finite:
            raise ValueError(
                "the l2 centroid update (U^T X over the squared coefficient sums) overflows float64; rescale the data"
            )
        V = W
    else:
        V = previous.copy()
        rows = np.flatnonzero(members)
        rows = rows[np.argsort(labels[rows], kind="stable")]
        starts = np.cumsum(sizes) - sizes
        plain = reg.lambda_v == reg.mu_v == 0.0 and (coeffs[rows] == 1.0).all()
        width = scalar_prox._CHUNK_ELEMENTS // max(X.shape[1], 1)
        for ks in _batches(sizes, np.flatnonzero(full), width):
            # Row i of cluster b sits at P[b, i]; the slots past its size
            # are padding: +inf, which sorts behind every row, or weight 0,
            # which the sweep makes an inactive breakpoint.
            n = sizes[ks]
            slot = np.arange(n[-1])
            group = rows[np.minimum(starts[ks][:, None] + slot, rows.size - 1)]
            pad = slot >= n[:, None]
            P = X[group]
            if plain:
                P[pad] = np.inf
                V[ks] = _medians(P, n)
            else:
                u = coeffs[group]
                u[pad] = 0.0
                V[ks] = _weighted_reg_medians(P.transpose(0, 2, 1), u[:, None, :], reg.lambda_v, reg.mu_v)
        if not np.isfinite(V).all():
            raise ValueError("the l1 centroid update (the weighted medians) overflows float64; rescale the data")

    if normalized:
        _unit_rows(V, A)
    if empty.size:
        # A cost or penalty that overflows is +inf: the farthest, and never taken.
        with np.errstate(over="ignore"):
            farthest = np.argsort(-_row_costs(X, membership, previous, spec), kind="stable")[: empty.size]
            empty = empty[: farthest.size]
            W = _data_rows(X, farthest, spec)
            new, old = (_penalty(reg.lambda_v, R, reg.mu_v, axis=1) for R in (W, V[empty]))
        take = np.isfinite(new) & (new <= old)
        V[empty[take]] = W[take]
    if normalized and spec.discrepancy == "l1":

        def block_costs(W):
            with np.errstate(over="ignore"):
                fit = np.bincount(labels[members], _row_costs(X, membership, W, spec)[members], n_clusters)
                return fit + _penalty(reg.lambda_v, W, reg.mu_v, axis=1)

        # Normalized seeds are unit rows, so the guard holds from the first
        # update on; a previous row off the unit sphere is never kept.
        feasible = full & (np.abs(np.einsum("kn,kn->k", previous, previous) - 1.0) <= 1e-9)
        keep = feasible & (block_costs(V) > block_costs(previous))
        V[keep] = previous[keep]
    return V
