"""Membership coefficients and the distance measures they induce.

For a data point x and a centroid v, the coefficient is the exact minimizer
of the scalar subproblem ``D(x, t v) + mu_u t^2 + lambda_u |t|`` over t >= 0
and the distance is the attained minimum (squared units for the l2
discrepancy, plain units for l1).

``pair_costs`` is the one batched cost kernel: it returns the coefficient and
distance of every (row, centroid) pair as two M x K matrices, and assignment
and ``plusplus`` seeding read from it. Binary l2 assignment (Lloyd's step)
alone takes a certified matmul argmin, ``_l2_binary_labels``, which equals
the argmin of ``pair_costs`` bit for bit and falls back to it on every row
whose rounding leaves the choice open; ``pair_costs`` stays the exact kernel.
The scalar functions remain the paper-level definitions and the oracles the
kernel is tested against, except under l1, where they run its median sweep
and ``scalar_prox.brute_force_min`` is the oracle; the closed-form and
angle-form variants of the l2 distance cross-validate the direct one.

These distances are generally not metrics: with a sparsity penalty,
dist(x, x) can be strictly positive.
"""

from __future__ import annotations

import numpy as np

from .model import ModelSpec
from .scalar_prox import _weighted_reg_medians, soft_threshold, weighted_reg_median


class DegenerateCentroidError(ValueError):
    """The centroid row admits no well-defined coefficient for this penalty."""


class NoValidCentroidError(RuntimeError):
    """Every centroid row was degenerate during an assignment."""


def _pair(x, v) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if x.size != v.size:
        raise ValueError("x and v must have equal length")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ValueError("x and v must be finite")
    return x, v


def coefficient_l2(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Soft-thresholded projection coefficient of x onto v (l2 discrepancy)."""
    x, v = _pair(x, v)
    denom = float(v @ v) + mu_u
    if denom <= 0.0:
        raise DegenerateCentroidError("centroid has zero norm and mu_u = 0")
    gamma = lambda_u / (2.0 * denom)
    return soft_threshold(gamma, float(x @ v) / denom)


def distance_l2(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Squared regularized projection distance of x onto the ray of v."""
    x, v = _pair(x, v)
    t = coefficient_l2(x, v, lambda_u, mu_u)
    r = x - t * v
    return float(r @ r) + mu_u * t * t + lambda_u * t


def distance_l2_closed_form(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Same distance, evaluated without forming the residual.

    Equals ||x||^2 when the threshold suppresses the coefficient
    (lambda_u / 2 > <x, v>), otherwise
    ||x||^2 - (lambda_u - 2 <x, v>)^2 / (4 (||v||^2 + mu_u)).
    """
    x, v = _pair(x, v)
    denom = float(v @ v) + mu_u
    if denom <= 0.0:
        raise DegenerateCentroidError("centroid has zero norm and mu_u = 0")
    xx = float(x @ x)
    xv = float(x @ v)
    if lambda_u / 2.0 > xv:
        return xx
    return xx - (lambda_u - 2.0 * xv) ** 2 / (4.0 * denom)


def distance_l2_angle_form(x, v, lambda_u: float = 0.0) -> float:
    """Angle form of the l2 distance for mu_u = 0 and lambda_u/2 <= <x, v>:

        ||x||^2 sin^2(angle(x, v)) + (lambda_u / ||v||^2)(<x, v> - lambda_u / 4)
    """
    x, v = _pair(x, v)
    xx = float(x @ x)
    vv = float(v @ v)
    if xx == 0.0 or vv == 0.0:
        raise ValueError("angle form requires nonzero x and v")
    xv = float(x @ v)
    cos2 = min(xv * xv / (xx * vv), 1.0)
    return xx * (1.0 - cos2) + (lambda_u / vv) * (xv - lambda_u / 4.0)


def coefficient_l1(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Regularized weighted median coefficient of x onto v (l1 discrepancy)."""
    x, v = _pair(x, v)
    return weighted_reg_median(x, v, lambda_u, mu_u)


def distance_l1(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Regularized l1 projection distance of x onto the ray of v."""
    x, v = _pair(x, v)
    t = coefficient_l1(x, v, lambda_u, mu_u)
    return float(np.abs(x - t * v).sum()) + mu_u * t * t + lambda_u * t


def coefficient_and_distance(x, v, spec: ModelSpec) -> tuple[float, float]:
    """Mode-appropriate (coefficient, distance) of a point against one centroid.

    Raises :class:`DegenerateCentroidError` where the coefficient is genuinely
    undefined (zero centroid with mu_u = 0 under an active l2 sparsity
    penalty). The unpenalized zero-centroid case is resolved by its limit:
    coefficient 0 with the full-norm distance.
    """
    x, v = _pair(x, v)
    mode = spec.constraint_mode

    if mode == "binary":
        r = x - v
        if spec.discrepancy == "l2":
            return 1.0, float(r @ r)
        return 1.0, float(np.abs(r).sum())

    lam, mu = (spec.reg.lambda_u, spec.reg.mu_u) if mode == "c1_free" else (0.0, 0.0)
    if spec.discrepancy == "l2":
        if float(v @ v) + mu <= 0.0:
            if lam > 0.0:
                raise DegenerateCentroidError("zero centroid under an l1 penalty")
            return 0.0, float(x @ x)
        return coefficient_l2(x, v, lam, mu), distance_l2(x, v, lam, mu)

    t = float(_weighted_reg_medians(x, v, lam, mu))
    return t, float(np.abs(x - t * v).sum()) + mu * t * t + lam * t


# Row chunks keep every M x K x N temporary of the binary and l1 kernels near
# this many elements, so the kernel's peak memory stays close to its two
# M x K results.
_CHUNK_ELEMENTS = 4096


def _l2_costs(X: np.ndarray, V: np.ndarray, lam: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    # With a = <x, v> - lam/2 and t = max(a / denom, 0), the distance
    # ||x - t v||^2 + mu t^2 + lam t rearranges to ||x||^2 - t a. Unlike the
    # expanded ||x||^2 - (lam - 2 <x, v>)^2 / (4 denom), this form never
    # squares <x, v> (which overflows once ||x||^2 passes about 1e154), and
    # the clamp at 0 absorbs the rounding of exact fits. The M x K arithmetic
    # runs in place, A's buffer becoming D, to keep the peak memory low.
    denom = np.einsum("kn,kn->k", V, V) + mu
    degenerate = denom <= 0.0
    A = X @ V.T
    A -= lam / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        T = np.divide(A, denom)
    np.maximum(T, 0.0, out=T)
    T[:, degenerate] = 0.0
    xx = np.einsum("mn,mn->m", X, X)[:, None]
    D = np.multiply(T, A, out=A)
    np.subtract(xx, D, out=D)
    np.maximum(D, 0.0, out=D)
    D[:, degenerate] = np.inf if lam > 0.0 else xx
    return T, D


def pair_costs(X, V, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient and distance of every (row, centroid) pair as M x K matrices.

    Entry (m, k) equals ``coefficient_and_distance(X[m], V[k], spec)`` up to
    rounding. A degenerate centroid row (see :func:`coefficient_and_distance`)
    gets coefficient 0 and distance +inf in its whole column. Binary mode sums
    the broadcast differences exactly as the Lloyd / K-median references do,
    so its distances, and the labels chosen from them, match theirs bit for
    bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if X.ndim != 2 or X.shape[1] != V.shape[1]:
        raise ValueError(f"X has shape {X.shape}, centroids have shape {V.shape}")
    mode = spec.constraint_mode
    lam, mu = (spec.reg.lambda_u, spec.reg.mu_u) if mode == "c1_free" else (0.0, 0.0)
    if spec.discrepancy == "l2" and mode != "binary":
        return _l2_costs(X, V, lam, mu)

    M, K = X.shape[0], V.shape[0]
    T = np.ones((M, K)) if mode == "binary" else np.empty((M, K))
    D = np.empty((M, K))
    W = V[None, :, :]
    step = max(1, _CHUNK_ELEMENTS // (K * X.shape[1]))
    for lo in range(0, M, step):
        x = X[lo:lo + step, None, :]
        if mode == "binary":
            R = x - W
            D[lo:lo + step] = (R * R if spec.discrepancy == "l2" else np.abs(R)).sum(axis=2)
            continue
        t = _weighted_reg_medians(x, W, lam, mu)
        T[lo:lo + step] = t
        D[lo:lo + step] = np.abs(x - t[:, :, None] * W).sum(axis=2) + mu * t * t + lam * t
    return T, D


_BINARY_L2 = ModelSpec("l2", "binary")
# The unit roundoff of float64, and its smallest subnormal: twice the largest
# absolute error of a product that underflows.
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1074


def _l2_binary_labels(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Argmin over k of ``pair_costs(X, V, l2/binary)[1]``, read off one matmul.

    The matrix ||x||^2 - 2 <x, v> + ||v||^2 costs one product X V^T where the
    exact kernel forms every broadcast difference. A row's argmin of it is
    accepted only when the gap to the row's second-best entry exceeds twice a
    bound on how far any of its entries can lie from the exact kernel's.
    Every other row, including exact ties, is recomputed by ``pair_costs``,
    whose argmin takes the lowest index. So the labels equal the exact
    kernel's bit for bit.

    The bound, after Higham (2002), section 3.1, with u = 2^-53 and
    gamma_n = n u / (1 - n u) <= 1.01 n u: for nonnegative x and v,
    <x, v> <= S / 2 and sum (x - v)^2 <= S, where S = ||x||^2 + ||v||^2.
    ||x||^2, ||v||^2 and <x, v> are each within gamma_N of their values, in
    any summation order, so the three terms carry an error of at most
    2 gamma_N S; the two additions that combine them add u S each. The exact
    kernel's own squares and sum put it within gamma_{N+2} S of the exact
    distance. The sum, 1.01 (3N + 4) u S and higher-order terms, is below
    (4N + 8) u S for every N. Products that underflow add at most 2^-1075
    each, 4N of them, which the bound's (4N + 8) 2^-1074 covers. Each row
    uses its largest ||v||^2.

    An entry can only fall below -bound by overflow, as every exact distance
    is nonnegative, and a bound or gap that is not finite fails the
    comparison; both rows go to the exact kernel.
    """
    N = X.shape[1]
    rows = np.arange(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        xx = np.einsum("mn,mn->m", X, X)
        vv = np.einsum("kn,kn->k", V, V)
        D = X @ V.T
        D *= -2.0
        D += xx[:, None]
        D += vv
        labels = D.argmin(axis=1)
        best = D[rows, labels]
        D[rows, labels] = np.inf
        gap = D.min(axis=1) - best
        bound = (4 * N + 8) * (_UNIT_ROUNDOFF * (xx + vv.max()) + _TINY)
        recheck = np.flatnonzero(~((gap > 2.0 * bound) & (best > -bound)))
    if recheck.size:
        D = pair_costs(X[recheck], V, _BINARY_L2)[1]
        exact = D.argmin(axis=1)
        if np.isinf(D[np.arange(recheck.size), exact]).any():
            raise NoValidCentroidError("all centroid rows are degenerate for this model")
        labels[recheck] = exact
    return labels


def assign(x, V, spec: ModelSpec) -> tuple[int, float, float]:
    """Best cluster for a data point: (index, coefficient, distance).

    A one-row view of :func:`pair_costs`: returns the argmin over the
    centroid rows; ties break toward the lowest index. Degenerate rows are
    skipped; if every row is degenerate, :class:`NoValidCentroidError` is
    raised. Non-finite input raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if not (np.isfinite(x).all() and np.isfinite(V).all()):
        raise ValueError("x and V must be finite")
    T, D = pair_costs(x, V, spec)
    k = int(D[0].argmin())
    if np.isinf(D[0, k]):
        raise NoValidCentroidError("all centroid rows are degenerate for this model")
    return k, float(T[0, k]), float(D[0, k])
