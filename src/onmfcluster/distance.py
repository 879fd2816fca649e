"""Membership coefficients and the distance measures they induce.

For a data point x and a centroid v, the coefficient is the exact minimizer
of the scalar subproblem ``D(x, t v) + mu_u t^2 + lambda_u |t|`` over t >= 0
and the distance is the attained minimum (squared units for the l2
discrepancy, plain units for l1). Every cost reads lambda_u and mu_u from
``spec.reg``, which ``ModelSpec`` keeps at 0 outside ``c1_free``.

Inputs, degenerate objectives and overflow follow ``scalar_prox``'s
contract. One rule holds for the kernel and the scalar functions alike: a
centroid that admits no coefficient (||v||^2 + mu_u = 0 under l2, v = 0
under l1) has coefficient +0.0 and costs the row's full norm, ||x||^2 or
||x||_1, under every penalty. So a pair costs +inf only where float64
overflows; every argmin skips such a pair, and a row whose every pair cost
overflows raises ``NoValidCentroidError``.

``_pair_costs`` is the one batched cost kernel, and ``_nearest``, a fit's
assignment, returns its argmin bit for bit: under l2 free and normalized
off the kernel itself, in binary l2 off ``_l2_binary_labels`` and under l1
off ``_l1_labels``. ``_costs_at`` costs every binary and l1 pair. These
kernels are private: they take a fit's validated rows and check nothing,
and ``assign`` is their checked one-row view. A fit computes ||x||^2 once
for seeding and both l2 kernels.

The scalar functions remain the paper-level definitions and the oracles the
kernel is tested against, except under l1, where they run its median sweep
and ``scalar_prox.brute_force_min`` is the oracle; the closed-form and
angle-form variants of the l2 distance cross-validate the direct one.

These distances are generally not metrics: with a sparsity penalty,
dist(x, x) can be strictly positive.
"""

from __future__ import annotations

import numpy as np

from . import model, scalar_prox
from .model import ModelSpec
from .scalar_prox import _FLAT_SLOPE_TOL, _check_problem, _finite, _quadratic_min, _weighted_reg_medians


class NoValidCentroidError(ValueError):
    """A row's every pair cost overflows float64, the one way a cost is +inf; the data should be rescaled."""


_OVERFLOW = "a row's pair costs to every centroid overflow float64; rescale the data"


def _products(x: np.ndarray, v: np.ndarray) -> list[float]:
    """<x, v>, ||x||^2 and ||v||^2, each through ``_finite``."""
    with np.errstate(over="ignore"):
        return [float(_finite(name, a @ b)) for name, a, b in (("<x, v>", x, v), ("||x||^2", x, x), ("||v||^2", v, v))]


def coefficient_l2(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Soft-thresholded projection coefficient of x onto v (l2 discrepancy)."""
    x, v = _check_problem(x, v, lambda_u=lambda_u, mu_u=mu_u)
    with np.errstate(over="ignore"):
        return float(_quadratic_min(_finite("<x, v>", x @ v), float(v @ v) + mu_u, lambda_u))


def distance_l2(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Squared regularized projection distance of x onto the ray of v."""
    x, v = _check_problem(x, v, lambda_u=lambda_u, mu_u=mu_u)
    with np.errstate(over="ignore"):
        denom = float(v @ v) + mu_u
        t = float(_quadratic_min(_finite("<x, v>", x @ v), denom, lambda_u))
        if t == np.inf:
            return np.inf
        r = x - t * v
        return float(_finite("||x - t v||^2", r @ r)) + mu_u * t * t + lambda_u * t


def distance_l2_closed_form(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Same distance, evaluated without forming the residual.

    Equals ||x||^2 when the threshold suppresses the coefficient
    (lambda_u / 2 >= <x, v>), otherwise
    ||x||^2 - (lambda_u - 2 <x, v>)^2 / (4 (||v||^2 + mu_u)).
    """
    x, v = _check_problem(x, v, lambda_u=lambda_u, mu_u=mu_u)
    xv, xx, vv = _products(x, v)
    denom = vv + mu_u
    t = _quadratic_min(xv, denom, lambda_u)
    if t == np.inf:
        return np.inf
    if t == 0.0:
        return xx
    s = lambda_u - 2.0 * xv
    return xx - _finite("(lambda_u - 2 <x, v>)^2", s * s) / (4.0 * denom)


def distance_l2_angle_form(x, v, lambda_u: float = 0.0) -> float:
    """Angle form of the l2 distance for mu_u = 0 and lambda_u/2 <= <x, v>:

        ||x||^2 sin^2(angle(x, v)) + (lambda_u / ||v||^2)(<x, v> - lambda_u / 4)
    """
    x, v = _check_problem(x, v, lambda_u=lambda_u)
    xv, xx, vv = _products(x, v)
    if xx == 0.0 or vv == 0.0 or lambda_u / 2.0 > xv:
        raise ValueError("angle form requires nonzero x and v and lambda_u / 2 <= <x, v>")
    # As two ratios, cos^2 never forms <x, v>^2 or ||x||^2 ||v||^2.
    cos2 = min((xv / xx) * (xv / vv), 1.0)
    return xx * (1.0 - cos2) + (lambda_u / vv) * (xv - lambda_u / 4.0)


def coefficient_l1(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Regularized weighted median coefficient of x onto v (l1 discrepancy)."""
    x, v = _check_problem(x, v, lambda_u=lambda_u, mu_u=mu_u)
    return float(_weighted_reg_medians(x, v, lambda_u, mu_u))


def distance_l1(x, v, lambda_u: float = 0.0, mu_u: float = 0.0) -> float:
    """Regularized l1 projection distance of x onto the ray of v."""
    x, v = _check_problem(x, v, lambda_u=lambda_u, mu_u=mu_u)
    t = float(_weighted_reg_medians(x, v, lambda_u, mu_u))
    if t == np.inf:
        return t
    with np.errstate(over="ignore"):
        return float(_finite("||x - t v||_1", np.abs(x - t * v).sum())) + mu_u * t * t + lambda_u * t


def coefficient_and_distance(x, v, spec: ModelSpec) -> tuple[float, float]:
    """Mode-appropriate (coefficient, distance) of a point against one centroid."""
    lam, mu = spec.reg.lambda_u, spec.reg.mu_u
    if spec.constraint_mode != "binary":
        if spec.discrepancy == "l2":
            return coefficient_l2(x, v, lam, mu), distance_l2(x, v, lam, mu)
        return coefficient_l1(x, v, lam, mu), distance_l1(x, v, lam, mu)
    x, v = _check_problem(x, v)
    with np.errstate(over="ignore"):
        return 1.0, float(_finite("the binary distance", model._residual_costs(x - v, spec)))


def _l2_costs(
    X: np.ndarray, V: np.ndarray, lam: float, mu: float, xx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # With a = <x, v> - lam/2 and t = max(a / denom, 0), the distance
    # ||x - t v||^2 + mu t^2 + lam t rearranges to ||x||^2 - t a, with
    # ||x||^2 from xx. Unlike the expanded ||x||^2 - (lam - 2 <x, v>)^2 /
    # (4 denom), this form never squares <x, v> (which overflows once ||x||^2
    # passes about 1e154), and the clamp at 0 absorbs the rounding of exact
    # fits. The matrices are K x M, from one product with the X.T view, so
    # that the argmin's reductions run along the long axis; the arithmetic
    # runs in place, A's buffer becoming D, to keep the peak memory low.
    denom = (np.einsum("kn,kn->k", V, V) + mu)[:, None]
    # A coefficient is at most ||x|| / sqrt(denom), so with ||x||^2 finite only
    # a row whose denom is below 2^-1022, the smallest normal float64, can
    # overflow one. Such rows, zero ones included, are rare and are
    # rewritten only when they exist.
    small = np.flatnonzero(denom < 2.0**-1022)
    A = V @ X.T
    if lam:
        A -= lam / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        T = np.divide(A, denom)
    np.maximum(T, 0.0, out=T)
    if small.size:
        T[small[denom[small, 0] <= 0.0]] = 0.0
    D = np.multiply(T, A, out=A)
    np.subtract(xx, D, out=D)
    np.maximum(D, 0.0, out=D)
    if small.size:
        D[small] = np.where(np.isinf(T[small]), np.inf, D[small])
    return T, D


def _pair_costs(X: np.ndarray, V: np.ndarray, spec: ModelSpec, xx=None) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient and distance of every (row, centroid) pair as M x K matrices.

    X and V are checked 2-D float arrays with equal column counts. Entry
    (m, k) equals ``coefficient_and_distance(X[m], V[k], spec)`` up to
    rounding, zero centroids included. Every cell computes K x M
    matrices and returns their transposed views, so that a reduction over the
    centroids runs along the long M axis. The l2 free and normalized modes
    take one product with ``X.T`` and read each row's ||x||^2 from xx when it
    is given. Binary mode and l1 run ``_costs_at`` on all K M pairs; binary
    mode sums each pair's differences as the Lloyd / K-median references do,
    so its distances, and their argmin, are theirs bit for bit.
    """
    if spec.discrepancy == "l2" and spec.constraint_mode != "binary":
        xx = np.einsum("mn,mn->m", X, X) if xx is None else xx
        T, D = _l2_costs(X, V, spec.reg.lambda_u, spec.reg.mu_u, xx)
        return T.T, D.T
    D = np.empty((V.shape[0], X.shape[0]))
    T = _costs_at(X, V, range(D.size), spec, D.reshape(-1))
    return T.reshape(D.shape).T, D.T


@np.errstate(over="ignore")
def _costs_at(X: np.ndarray, V: np.ndarray, pairs, spec: ModelSpec, out: np.ndarray) -> np.ndarray:
    """Binary or l1 costs of the pairs (m, k) with flat index k M + m: distances into out, coefficients returned.

    The one exact kernel of these cells: ``_pair_costs`` runs it on every pair
    and ``_l1_labels`` on the pairs its bounds leave open. pairs is an index
    array or a ``range``, and pair i's distance goes to ``out[pairs[i]]``.
    Rows and centroids are gathered in chunks of ``scalar_prox._CHUNK_ELEMENTS``,
    each chunk's index is built on its own, and the distances are written in
    place, so the call holds only the coefficients beyond one chunk. Each
    chunk ends in ``model._residual_costs``, binary mode's at t = None. A
    cost or l1 coefficient that overflows costs +inf without a warning; the
    coefficient enters no product, where 0 * inf would make a NaN.
    """
    M, N = X.shape
    T = np.ones(len(pairs))
    step = max(1, scalar_prox._CHUNK_ELEMENTS // N)
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo:lo + step]
        # np.asarray would read a range element by element.
        chunk = np.arange(chunk.start, chunk.stop) if isinstance(chunk, range) else chunk
        cols, rows = np.divmod(chunk, M)
        x, w = X.take(rows, axis=0), V.take(cols, axis=0)
        if spec.constraint_mode == "binary":
            out[chunk] = model._residual_costs(np.subtract(x, w, out=x), spec)
        else:
            t = _weighted_reg_medians(x, w, spec.reg.lambda_u, spec.reg.mu_u)
            over = np.isinf(t)
            s = np.where(over, 0.0, t)
            T[lo:lo + step] = t
            out[chunk] = np.where(over, np.inf, model._residual_costs(np.subtract(x, s[:, None] * w, out=x), spec, s))
    return T


# The unit roundoff of float64, and its smallest subnormal: twice the largest
# absolute error of a product that underflows.
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1074


def _l2_binary_labels(X: np.ndarray, V: np.ndarray, xx: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Argmin over k of ``_pair_costs(X, V, spec)[1]`` under binary l2, read off one product.

    xx holds each row's ||x||^2. The exact kernel forms every pair's
    difference; here the K x M matrix E = ||v||^2 - 2 V X^T costs one
    product, and row m's distance to v_k is ||x_m||^2 + E[k, m], so ||x||^2
    enters only the bound. With best the smallest entry of column m, the row
    is accepted when exactly one k has E[k, m] <= best + 2 bound, and takes
    that k. Every other row, including exact ties, is recomputed by
    ``_pair_costs``, whose argmin takes the lowest index. So the labels equal
    the exact kernel's bit for bit. The layout keeps each reduction along the
    M-long axis, and the index of a row's one close entry is a product with
    (0, ..., K - 1).

    The bound, after Higham (2002), section 3.1, with u = 2^-53 and
    gamma_n = n u / (1 - n u) <= 1.01 n u: for nonnegative x and v,
    ||v||^2 <= S, 2 <x, v> <= S and sum (x - v)^2 <= S, where
    S = ||x||^2 + ||v||^2, so every exact entry lies in [-S, S].
    ||v||^2 and 2 <x, v> are each within gamma_N S of their values in any
    summation order (scaling V by -2 is exact), and adding them costs u S.
    The exact kernel's differences, squares and sum put it within
    gamma_{N+2} S of the exact distance. The sum, E_N, is 1.01 (3N + 3) u S
    plus higher-order terms, below the 1.01 (3N + 4) u S this derivation
    needs, and bound = (4N + 8) u S exceeds that by (0.97 N + 3.96) u S.
    Products that underflow add at most 2^-1075 each, 3N of them, which the
    bound's (4N + 8) 2^-1074 covers. Each row uses its largest ||v||^2.

    Rounding the threshold best + 2 bound moves it by at most
    u |best + 2 bound| <= 1.01 u S, as |best| <= S + E_N. That fits in the
    slack: 2 (0.97 N + 3.96) u S > 1.01 u S. So every entry above the
    rounded threshold lies above best + 2 E_N, and the exact kernel puts
    every other centroid strictly farther from the row than the accepted one.

    Only overflow can take best + ||x||^2 below -bound, as every exact
    distance is nonnegative, and a threshold that is not finite (from an
    overflowed best or bound, or a NaN entry) accepts nothing. Such rows go
    to the exact kernel.
    """
    N, K = X.shape[1], V.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        vv = np.einsum("kn,kn->k", V, V)
        E = (-2.0 * V) @ X.T
        E += vv[:, None]
        best = E.min(axis=0)
        bound = (4 * N + 8) * (_UNIT_ROUNDOFF * (xx + vv.max()) + _TINY)
        threshold = best + 2.0 * bound
        close = np.less_equal(E, threshold, out=E)
        count = close.sum(axis=0)
        index = np.arange(K, dtype=float) @ close
        accepted = (count == 1.0) & np.isfinite(threshold) & (best + xx > -bound)
    labels = index.astype(np.intp)
    recheck = np.flatnonzero(~accepted)
    if recheck.size:
        labels[recheck] = _argmin(*_pair_costs(X[recheck], V, spec))[0]
    return labels


class _L1Bounds:
    """What one l1 assignment of a fit hands the next (see :func:`_l1_labels`).

    ``lower[k, m]`` is at most the kernel's computed distance from row m to
    row k of ``centroids``, ``labels`` is the last assignment's argmin and
    ``norms`` holds each row's ||x||_1. ``lower`` is K x M so that the
    per-row terms of its updates run along the long axis. A fit starts with
    bounds that rule out no pair. In binary mode the solver's ``Membership``
    takes ``labels`` as it is and marks it read-only, so each assignment
    replaces it and never writes it in place.
    """

    def __init__(self, X: np.ndarray, V: np.ndarray):
        M = X.shape[0]
        self.norms = X.sum(axis=1)
        self.lower = np.full((V.shape[0], M), -np.inf)
        self.labels = np.zeros(M, dtype=np.intp)
        self.centroids = V


def _l1_labels(X: np.ndarray, V: np.ndarray, spec: ModelSpec, bounds: _L1Bounds):
    """Argmin over k of ``_pair_costs(X, V, spec)[1]`` under l1, and its coefficient.

    Ties go to the lowest index, as in the full kernel. ``bounds`` is
    advanced from its centroids to V in four steps:

    1. ``lower`` is decayed (below) into bounds on the distances to V;
    2. each row's own pair (x_m, v_{a_m}), a_m its last label, is costed;
    3. every other pair whose bound does not exceed the row's own cost is
       costed, and so is a pair whose bound is NaN (an infinite distance
       decayed);
    4. ``_costs_at`` writes the costed distances into ``lower``, and each
       row takes the argmin of its column of ``lower``.

    A pair left out has a computed distance above its row's own cost, so it
    is neither the argmin nor tied with it; the entries that can win are
    computed distances, and ``_costs_at`` computes them as the full
    kernel's arithmetic. So labels and coefficients are the full kernel's,
    bit for bit. Bounds of -inf cost every pair, as in a fit's first call.

    **The decay.** Let D(x, v) be the exact minimum over t >= 0 of
    ||x - t v||_1 + lam t + mu t^2 (binary: t = 1, no penalty), and let a
    centroid row move from v to v' by delta = ||v' - v||_1, with s = ||x||_1,
    w = ||v||_1 and w' = ||v'||_1. At the minimizer t' for v',
    ||x - t' v'||_1 >= ||x - t' v||_1 - t' delta, so
    D(x, v') >= D(x, v) - t' delta; and t' w' <= s + ||x - t' v'||_1
    <= s + D(x, v'). Eliminating t' gives, with b = delta / w',

        D(x, v') >= (D(x, v) - s b) / (1 + b),

    and in binary mode (t' = 1) D(x, v') >= D(x, v) - delta. The right
    sides grow with D(x, v), so a lower bound may stand in for it. A
    centroid row with w' = 0 has b = inf, and its bounds become -inf: its
    pairs are always costed. A centroid row whose drift is exactly 0 keeps
    its bounds: the kernel's arithmetic is deterministic, so they still
    bound its computed distances.

    **The margin.** With u = 2^-53 (Higham 2002, section 3.1), the kernel
    computes f(t~) = ||x - t~ v||_1 + lam t~ + mu t~^2 at its coefficient
    t~ from nonnegative terms, and t~ w <= s + f(t~); so its distance D~ lies
    within 1.01 (N + 4) u (s + f(t~)) of f(t~), plus (N + 4) 2^-1075 for
    products that underflow. f(t~) >= D(x, v), as for every t >= 0, and the
    sweep's own error bounds f(t~) - D(x, v) from above:
    - each breakpoint x_n / v_n is rounded by u of itself (or 2^-1075), which
      moves the objective anywhere by at most u s + w 2^-1075;
    - the sweep's slopes, cumulative sums of v, are within
      1.01 (3 N + 4) u (w + lam) of exact, and a slope it treats as flat,
      within ``_FLAT_SLOPE_TOL`` (w + lam) of 0 (mu = 0), gives the midpoint
      of its interval; at t~ some subgradient of the objective is then
      within tau = (_FLAT_SLOPE_TOL + 1.01 (3 N + 4) u)(w + lam)
      + 4.1 u mu t~ of 0;
    - so f(t~) - D(x, v) <= tau |t~ - t*| + 2 u s, t* minimizing the
      objective with the rounded breakpoints, and both lie in
      [0, (s + f(t~)) / w] (to within u s / w) with lam t and mu t^2 below
      f(t~), so (w + lam) |t~ - t*| <= 2 (s + f(t~)). That is at most
      (2 _FLAT_SLOPE_TOL + (6.1 N + 14.2) u)(s + f(t~)), plus the
      mu 2^-1074 (s + f(t~)) / w that breakpoints which underflow add to
      mu t^2; mu < 2^1024 keeps that below _FLAT_SLOPE_TOL (s + f(t~)) / w.
    In all, D~ - D(x, v) <= c (s + D~) + (N + 4)(1 + w) 2^-1074 with
    c = (8 N + 24) u + _FLAT_SLOPE_TOL (2 + 1 / w) (binary: no sweep). For c < 1/2
    the right side grows with D~, so ``lower`` first drops by c (s + |lower|)
    plus that floor, to bound D(x, v); a centroid row with c >= 1/2 gets
    -inf.
    Then it decays, with delta rounded up by a factor 1 + (8 N + 24) u.
    Last it drops by (8 N + 24) u (s + |lower|) + (N + 4) 2^-1074, which
    covers the new kernel's rounding, D~(x, v') >= D(x, v') - 1.01 (N + 4) u
    (s + D(x, v')) - (N + 4) 2^-1075, and the decay's own rounding: where
    the decayed value is positive, s b < lower, and the rounding of s, b, the
    product, the difference and the quotient is below (5.1 N + 5) u
    (s + decayed value). A value that is not positive bounds D~ >= 0 anyway.
    """
    L = bounds.lower
    M = L.shape[1]
    _l1_decay(L, bounds.norms, bounds.centroids, V, spec)
    own = bounds.labels * M + np.arange(M)
    flat = L.reshape(-1)
    own_t = _costs_at(X, V, own, spec, flat)
    closed = L > flat[own]
    closed.flat[own] = True
    pairs = np.flatnonzero(~closed)
    del closed
    T = _costs_at(X, V, pairs, spec, flat)
    best, labels = _column_min(L)
    if np.isinf(best).any():
        raise NoValidCentroidError(_OVERFLOW)
    coeffs = own_t
    moved = np.flatnonzero(labels != bounds.labels)
    coeffs[moved] = T[np.searchsorted(pairs, labels[moved] * M + moved)]
    bounds.labels, bounds.centroids = labels, V
    return labels, coeffs


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _l1_decay(L: np.ndarray, s: np.ndarray, V0: np.ndarray, V: np.ndarray, spec: ModelSpec) -> None:
    """Turn L, bounds on the distances to V0, into bounds on those to V, in place.

    s holds each row's ||x||_1; ``_l1_labels`` derives the steps.
    """
    N = V.shape[1]
    slack = (8 * N + 24) * _UNIT_ROUNDOFF
    drift = np.abs(V - V0).sum(axis=1)
    moved = np.flatnonzero(drift > 0.0)
    if not moved.size:
        return
    drift = drift[moved] * (1.0 + slack)
    B = L[moved]
    if spec.constraint_mode == "binary":
        _widen(B, s, slack, 0.0)
        B -= drift[:, None]
    else:
        w0, w = V0[moved].sum(axis=1), V[moved].sum(axis=1)
        c = slack + _FLAT_SLOPE_TOL * (2.0 + 1.0 / w0)
        _widen(B, s, c[:, None], (N + 4) * (1.0 + w0[:, None]) * _TINY)
        b = (drift / w)[:, None]
        B -= b * s
        B /= 1.0 + b
        B[(c >= 0.5) | (w == 0.0)] = -np.inf
    _widen(B, s, slack, (N + 4) * _TINY)
    L[moved] = B


def _widen(B: np.ndarray, s: np.ndarray, c, floor) -> None:
    """Lower B by c (s + |B|) + floor, in place."""
    E = np.abs(B)
    E += s
    E *= c
    E += floor
    B -= E


def _column_min(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's least value in the K x M matrix D and the lowest index that has it.

    Equals ``D.min(axis=0), D.argmin(axis=0)``, but every reduction runs
    along the long M axis, where numpy's loops are fast: one ``min``, then one
    ``max`` over the equality mask times the reversed indices K - 1 - k,
    whose largest entry is the lowest index that attains the minimum. D holds
    no NaN: ``_l2_costs`` and ``_costs_at`` return finite costs or +inf (the
    l2 update names a centroid whose squared norm overflows), and
    ``_l1_labels`` costs every NaN bound before its argmin.
    """
    K = D.shape[0]
    best = D.min(axis=0)
    reverse = np.arange(K - 1, -1, -1, dtype=np.min_scalar_type(K))[:, None]
    labels = (K - 1) - np.max((D == best) * reverse, axis=0).astype(np.intp)
    return best, labels


def _argmin(T: np.ndarray, D: np.ndarray):
    """Each row's least distance in D (lowest index on ties), with its coefficient in T and the distance.

    T and D are the M x K views ``_pair_costs`` returns; the labels come from
    ``_column_min`` on the K x M matrices beneath them, and the coefficients
    from one flat ``take``. Raises :class:`NoValidCentroidError` where a row's
    every distance overflows.
    """
    d, labels = _column_min(D.T)
    if np.isinf(d).any():
        raise NoValidCentroidError(_OVERFLOW)
    M = labels.size
    return labels, T.T.take(labels * M + np.arange(M)), d


def _nearest(X: np.ndarray, xx: np.ndarray | None, V: np.ndarray, spec: ModelSpec, state=None):
    """The U-block: each row's best centroid, its coefficient, and the state for the next call.

    X holds validated rows and xx their squared norms, or None under l1
    outside normalized mode, whose kernels read none. The labels and
    coefficients are those of ``_argmin(*_pair_costs(X, V, spec, xx))`` bit
    for bit; l1 reads them off the bounded sweep and binary l2 off the
    certified product. ``state`` is None on a fit's first call and after
    that what the previous call returned: the l1 bounds, which this call
    creates (from bounds that rule out no pair) and advances. The cost
    matrices are freed on return, before the centroid update and the
    objective allocate theirs.
    """
    if spec.discrepancy == "l1":
        state = _L1Bounds(X, V) if state is None else state
        return (*_l1_labels(X, V, spec, state), state)
    if spec.constraint_mode == "binary":
        return _l2_binary_labels(X, V, xx, spec), np.ones(X.shape[0]), None
    labels, coeffs, _ = _argmin(*_pair_costs(X, V, spec, xx))
    return labels, coeffs, None


def assign(x, V, spec: ModelSpec) -> tuple[int, float, float]:
    """Best cluster for a data point: (index, coefficient, distance).

    A one-row view of ``_pair_costs``: returns the argmin over the
    centroid rows; ties break toward the lowest index. A row whose cost
    overflows is skipped; if every row's does, :class:`NoValidCentroidError`
    is raised. V is one centroid row or a nonempty 2-D matrix. Input is checked
    as ``scalar_prox`` states, and, as ``fit`` checks its rows, an x or a
    centroid whose squared norm (l1 norm under l1 c1_free and binary)
    overflows raises ``ValueError``.
    """
    x, V = _check_problem(np.reshape(x, (1, -1)), np.atleast_2d(V))
    if V.ndim != 2 or V.shape[0] < 1:
        raise ValueError(f"centroids must be one row or a nonempty 2-D matrix, got shape {V.shape}")
    norm = "^2" if model._squares(spec) else "_1"
    with np.errstate(over="ignore"):
        xx, _ = (
            _finite(f"||{name}||{norm}", np.einsum("mn,mn->m", A, A) if norm == "^2" else A.sum(axis=1))
            for name, A in (("x", x), ("v", V))
        )
    k, t, d = _argmin(*_pair_costs(x, V, spec, xx))
    return int(k[0]), float(t[0]), float(d[0])
