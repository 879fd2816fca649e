"""Exact solvers for the two scalar subproblem families.

Every centroid component and every membership coefficient in the alternating
scheme minimizes a one-dimensional convex function over t >= 0 of one of two
shapes:

* quadratic:    sum_n (v_n - w_n t)^2 + lambda |t| + mu t^2
* weighted_l1:  sum_n |v_n - w_n t|   + lambda |t| + mu t^2

The quadratic family is solved in closed form by soft thresholding; the
weighted-l1 family by one exact breakpoint sweep (the weighted, regularized
median), batched over slices, which every l1 path runs: the pair kernel on
chunks of gathered pairs, the centroid update on batches of clusters, each
within the same budget of elements. ``brute_force_min`` is an independent
grid + golden-section oracle used to cross-check both closed forms, and the
only independent check of the sweep.

One contract holds for every public pointwise function: the solvers here,
the coefficients, distances and ``assign`` of ``distance`` (targets x,
weights v) and the centroids of ``centroid`` (targets X_k[:, n], weights
u_k). ``_check_problem`` checks each call's input once: penalties, targets
and weights real, finite and nonnegative, the latter two broadcast along a
last axis of length >= 1. Where no weight and no penalty make the objective
grow in t, the minimizer is 0, silently. No minimizer is -0.0, also where a
target is. ``_quadratic_min`` is the one quadratic solve. A minimizer past
float64's range is +inf. Where ||w||^2 overflows, the quadratic's is 0, as
in the pair kernel; any other product of the inputs that overflows raises
``ValueError`` naming it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

PROBLEM_KINDS = ("quadratic", "weighted_l1")

# A slope within _FLAT_SLOPE_TOL (total weight + lambda) of 0, a band on the
# slice's own scale, is treated as a flat minimizer interval (mu = 0 only).
_FLAT_SLOPE_TOL = 1e-12

# Pair chunks keep every temporary of the binary and l1 kernel near this
# many elements, and the l1 centroid update batches clusters within the same
# budget. It is set by the peak-memory tests of both: at 8192, l1 _pair_costs
# peaks near 1.12 MiB on 4000 x 8 rows and 8 centroids (tracemalloc), against
# a bound of 1.24 MiB that 16384 (1.74 MiB) exceeds. Larger chunks mean fewer
# numpy calls.
_CHUNK_ELEMENTS = 8192


def _check_penalties(**weights: float) -> None:
    """Raise ``ValueError`` unless every named penalty weight is a finite nonnegative real, not a bool."""
    for name, value in weights.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value) or value < 0:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def soft_threshold(gamma: float, x: float) -> float:
    """Shrink x toward zero by gamma and clip at zero.

    The negative branch of the usual soft-thresholding function is omitted:
    the subproblems are constrained to t >= 0.
    """
    _check_penalties(gamma=gamma)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return x - gamma + 0.0 if x >= gamma else 0.0


def _check_problem(v, w, **penalties: float) -> tuple[np.ndarray, np.ndarray]:
    """Targets v and weights w as float arrays, checked as the module docstring states."""
    _check_penalties(**penalties)
    if np.iscomplexobj(v) or np.iscomplexobj(w):
        raise ValueError("targets and weights must be real")
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (v.ndim and w.ndim and v.shape[-1] == w.shape[-1] >= 1):
        raise ValueError("targets and weights must have last axes of equal length >= 1")
    np.broadcast_shapes(v.shape, w.shape)
    for a in (v, w):
        if not np.isfinite(a).all():
            raise ValueError("targets and weights must be finite")
        if (a < 0.0).any():
            raise ValueError("targets and weights must be nonnegative")
    return v, w


def _finite(product: str, value, operands: str = "x or v"):
    """value, or a ValueError where the named product of the operands overflowed into it."""
    if not np.isfinite(value).all():
        raise ValueError(f"{product} overflows float64; rescale {operands}")
    return value


def _quadratic_min(a, d: float, lam: float):
    """tau_{lam/2}(a) / d, the quadratic minimizer for a = <v, w> and d = ||w||^2 + mu; 0 where d <= 0.

    Thresholded before the division, as the pair kernel and the batched
    update are, so that a subnormal d cannot overflow the threshold.
    """
    if d <= 0.0:
        return np.zeros_like(a)
    with np.errstate(over="ignore"):
        return np.maximum(a - lam / 2.0, 0.0) / d


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """0.5 (lo + hi) for lo <= hi, but 0.5 lo + 0.5 hi where only the sum overflowed, the one case mid > hi."""
    mid = 0.5 * (lo + hi)
    return np.where(mid > hi, 0.5 * lo + 0.5 * hi, mid)


@np.errstate(over="ignore")
def _weighted_reg_medians(v, w, lam: float, mu: float) -> np.ndarray:
    """Breakpoint sweep of :func:`weighted_reg_median`, batched over the last axis.

    v and w broadcast against each other; the result has their broadcast
    shape without the last axis. Inactive weights, +0 or -0, become +inf
    breakpoints, which sort behind every active one and add nothing to the
    slopes of the active pieces. A breakpoint past float64's range is +inf
    too, without a warning, and a minimizer there is returned as +inf. Each
    slice takes one count over its sorted breakpoints, which names the piece
    that holds its minimizer, and then one value: that piece's midpoint, by
    ``_midpoints`` as in the K-median sort and finite between finite ends,
    or left end (mu = 0), or its root clipped to the piece (mu > 0).
    """
    v, w = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
    shape = v.shape
    N = shape[-1]
    S = math.prod(shape[:-1])
    active = w > 0
    if active.all():
        bp = v / w
        n_active = N
    else:
        bp = v / np.where(active, w, 1.0)
        np.copyto(bp, np.inf, where=~active)
        n_active = active.sum(axis=-1).reshape(S)
    # One stable argsort of the S slices, turned into flat indices so that
    # every gather is one np.take. The gathers lay the sorted slices out as
    # columns, so the cumulative sums and counts below run across all slices
    # at once.
    order = np.argsort(bp.reshape(S, N), axis=-1, kind="stable")
    order += np.arange(0, S * N, N)[:, None]
    order = order.T
    # B[:, s] = [0, sorted breakpoints..., +inf]: interval j is [B[j], B[j + 1]].
    B = np.empty((N + 2, S))
    B[0] = 0.0
    B[-1] = np.inf
    np.take(bp.ravel(), order, out=B[1:-1], mode="clip")
    # slopes[j] = lam + 2 c_j - total, c_j the weight of the first j sorted
    # breakpoints, built in place over their cumulative sums. c_j >= +0, so
    # adding lam = 0 would change no value.
    slopes = np.empty((N + 1, S))
    slopes[0] = 0.0
    np.take(w.reshape(S * N), order, out=slopes[1:], mode="clip")
    np.cumsum(slopes[1:], axis=0, out=slopes[1:])
    total = slopes[-1].copy()
    slopes *= 2.0
    if lam != 0.0:
        slopes += lam
    slopes -= total
    # Flat indices of entry (j[s], s) of an (n, S) array are j * S + columns.
    columns = np.arange(S)

    if mu == 0.0:
        # Slopes are nondecreasing, so j indexes the first interval whose
        # slope is not below the band. The band scales with the slice's
        # slopes, so the result scales with the data. The final slope
        # lam + total is nonnegative, so j is in range, also where a slice
        # without weight makes the band 0.
        tol = _FLAT_SLOPE_TOL * (total + lam)
        j = (slopes < -tol).sum(axis=0)
        at = j * S + columns
        flat = (np.abs(slopes.take(at)) <= tol) & (j < n_active)
        lo_j = B.take(at)
        t = np.where(flat, _midpoints(lo_j, B.take(at + S)), lo_j)
    else:
        # The right derivative 2 mu t + slope at the sorted breakpoints is
        # nondecreasing, so the count of those below 0 indexes the interval
        # that holds the minimizer: its root clipped to the interval.
        g_right = 2.0 * mu * B[1:-1]
        g_right += slopes[1:]
        at = (g_right < 0.0).sum(axis=0) * S + columns
        t = np.minimum(np.maximum(slopes.take(at) / (-2.0 * mu), B.take(at)), B.take(at + S))
    # A breakpoint -0.0 / w or a root +0.0 / (-2 mu) is -0.0; + 0.0 makes it +0.0.
    return (t + 0.0).reshape(shape[:-1])


def weighted_reg_median(v, w, lam: float = 0.0, mu: float = 0.0) -> float:
    """Weighted, elastic-net-regularized median of the targets v.

    Returns the minimizer over t >= 0 of

        sum_n |v_n - w_n t| + mu t^2 + lam |t|

    computed exactly by a breakpoint sweep: between consecutive breakpoints
    t_n = v_n / w_n the objective is affine (mu = 0) or quadratic (mu > 0)
    with known slope. When the minimizer set is an interval (possible only
    for mu = 0), the midpoint is returned. With lam = mu = 0 and unit
    weights this is the classical median (midpoint convention for even
    lengths).
    """
    v, w = _check_problem(v, w, lam=lam, mu=mu)
    return float(_weighted_reg_medians(v, w, lam, mu))


@dataclass(frozen=True)
class ScalarProxProblem:
    """One scalar subproblem instance, minimized over t >= 0.

    Membership coefficients are constrained to t > 0; for these convex
    objectives the minimum over t >= 0 equals the infimum over t > 0.
    """

    kind: str
    targets: np.ndarray
    weights: np.ndarray
    l1_weight: float = 0.0
    l2_weight: float = 0.0

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"kind must be one of {PROBLEM_KINDS}")
        targets, weights = _check_problem(
            np.ravel(self.targets), np.ravel(self.weights), l1_weight=self.l1_weight, l2_weight=self.l2_weight
        )
        targets.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "weights", weights)

    def value(self, t):
        """Objective value at t (scalar or 1-D array)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        resid = self.targets[:, None] - self.weights[:, None] * t_arr[None, :]
        if self.kind == "quadratic":
            fit = (resid * resid).sum(axis=0)
        else:
            fit = np.abs(resid).sum(axis=0)
        out = fit + self.l1_weight * np.abs(t_arr) + self.l2_weight * t_arr * t_arr
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def solve_closed_form(problem: ScalarProxProblem) -> float:
    """Exact minimizer of the subproblem over t >= 0 via the closed forms."""
    v, w = problem.targets, problem.weights
    with np.errstate(over="ignore"):
        if problem.kind == "quadratic":
            a = _finite("<targets, weights>", v @ w, "targets or weights")
            return float(_quadratic_min(a, float(w @ w) + problem.l2_weight, problem.l1_weight))
        return float(_weighted_reg_medians(v, w, problem.l1_weight, problem.l2_weight))


_INVPHI = (5.0**0.5 - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 250):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(f(c))
    fd = float(f(d))
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
    t = 0.5 * (a + b)
    return t, float(f(t))


def brute_force_min(problem: ScalarProxProblem, resolution: float) -> tuple[float, float]:
    """Approximate (argmin, min value) of the subproblem by search.

    Grid search with the given spacing over [0, t_max], where t_max covers
    every breakpoint / unregularized optimum, followed by golden-section
    refinement on the grid interval bracketing the best point. Deliberately
    independent of the closed-form solvers so it can serve as an oracle.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    weights = problem.weights
    positive = weights[weights > 0]
    if positive.size:
        t_max = float(problem.targets.max()) / max(float(positive.min()), 1e-12) + 1.0
    else:
        t_max = float(max(problem.targets.max(), 1.0)) + 1.0
    n = int(np.ceil(t_max / resolution)) + 1
    grid = np.linspace(0.0, t_max, n)
    values = problem.value(grid)
    i = int(np.argmin(values))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, n - 1)])
    # The objective is convex, so the bracket around the grid argmin contains
    # a global minimizer.
    return _golden_section(problem.value, lo, hi)
