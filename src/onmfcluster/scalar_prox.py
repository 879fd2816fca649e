"""Exact solvers for the two scalar subproblem families.

Every centroid component and every membership coefficient in the alternating
scheme minimizes a one-dimensional convex function over t >= 0 of one of two
shapes:

* quadratic:    sum_n (v_n - w_n t)^2 + lambda |t| + mu t^2
* weighted_l1:  sum_n |v_n - w_n t|   + lambda |t| + mu t^2

The quadratic family is solved in closed form by soft thresholding; the
weighted-l1 family by an exact breakpoint sweep (the weighted, regularized
median). ``brute_force_min`` is an independent grid + golden-section oracle
used to cross-check both closed forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

PROBLEM_KINDS = ("quadratic", "weighted_l1")

# Slopes of adjacent affine pieces closer than this are treated as a flat
# minimizer interval (possible only for mu = 0).
_FLAT_SLOPE_TOL = 1e-12


class DegenerateObjectiveWarning(UserWarning):
    """The scalar objective is constant; the returned minimizer is a convention."""


def soft_threshold(gamma: float, x: float) -> float:
    """Shrink x toward zero by gamma and clip at zero.

    The negative branch of the usual soft-thresholding function is omitted:
    the subproblems are constrained to t >= 0.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return x - gamma if x >= gamma else 0.0


def _check_pair(v, w) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(v, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if v.size != w.size or v.size < 1:
        raise ValueError("targets and weights must have equal length >= 1")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    return v, w


def _weighted_reg_median(v: np.ndarray, w: np.ndarray, lam: float, mu: float) -> tuple[float, bool]:
    """Exact minimizer over t >= 0; returns (value, degenerate_flag)."""
    active = w > 0
    if not active.any():
        # All |v_n| terms are constant: the objective is lam*t + mu*t^2 on
        # t >= 0, minimized at 0; it is completely flat iff lam = mu = 0.
        return 0.0, (lam == 0.0 and mu == 0.0)

    bp = v[active] / w[active]
    wa = w[active]
    order = np.argsort(bp, kind="stable")
    bp = bp[order]
    wa = wa[order]

    # Linear slope of the objective on the open interval after passing the
    # first j breakpoints: lam + sum(passed) - sum(remaining).
    csum = np.cumsum(wa)
    total = csum[-1]
    slopes = lam + 2.0 * np.concatenate(([0.0], csum)) - total

    if mu == 0.0:
        # Piecewise affine: find the first interval with slope >= 0. The
        # final slope lam + total is positive, so j is in range; it can fall
        # inside the tolerance band only for vanishing total weight.
        j = int(np.searchsorted(slopes, -_FLAT_SLOPE_TOL, side="right"))
        if abs(slopes[j]) <= _FLAT_SLOPE_TOL and j < bp.size:
            # Flat interval [bp[j-1], bp[j]]: return its midpoint.
            lo = 0.0 if j == 0 else bp[j - 1]
            return 0.5 * (lo + bp[j]), False
        return (0.0 if j == 0 else float(bp[j - 1])), False

    # mu > 0: strictly convex, unique minimizer.
    if slopes[0] >= 0.0:
        return 0.0, False
    roots = -slopes / (2.0 * mu)
    lo = np.concatenate(([0.0], bp))
    hi = np.concatenate((bp, [np.inf]))
    inside = (roots >= lo) & (roots <= hi)
    if inside.any():
        return float(roots[int(np.argmax(inside))]), False
    # Otherwise the minimizer sits at a breakpoint: the first one whose
    # right derivative is nonnegative.
    g_right = 2.0 * mu * bp + slopes[1:]
    return float(bp[int(np.argmax(g_right >= 0.0))]), False


def _at(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    return np.take_along_axis(a, j[..., None], axis=-1)[..., 0]


def _weighted_reg_medians(v, w, lam: float, mu: float) -> np.ndarray:
    """``_weighted_reg_median`` batched over the last axis of v and w.

    v and w broadcast against each other; the result has their broadcast
    shape without the last axis. Inactive weights become +inf breakpoints of
    zero weight, which sort behind every active one and leave the slopes of
    the active pieces unchanged, so each slice takes the scalar sweep's
    arithmetic step for step.
    """
    v, w = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
    active = w > 0
    bp = np.divide(v, w, out=np.full(v.shape, np.inf), where=active)
    order = np.argsort(bp, axis=-1, kind="stable")
    bp = np.take_along_axis(bp, order, axis=-1)
    csum = np.cumsum(np.take_along_axis(np.where(active, w, 0.0), order, axis=-1), axis=-1)
    zero = np.zeros(bp.shape[:-1] + (1,))
    slopes = lam + 2.0 * np.concatenate((zero, csum), axis=-1) - csum[..., -1:]
    lo = np.concatenate((zero, bp), axis=-1)
    hi = np.concatenate((bp, zero + np.inf), axis=-1)

    if mu == 0.0:
        # Slopes are nondecreasing, so counting those below the band is the
        # scalar searchsorted.
        j = (slopes <= -_FLAT_SLOPE_TOL).sum(axis=-1)
        flat = (np.abs(_at(slopes, j)) <= _FLAT_SLOPE_TOL) & (j < active.sum(axis=-1))
        lo_j = _at(lo, j)
        return np.where(flat, 0.5 * (lo_j + _at(hi, j)), lo_j)

    roots = -slopes / (2.0 * mu)
    inside = (roots >= lo) & (roots <= hi)
    g_right = 2.0 * mu * bp + slopes[..., 1:]
    t = np.where(
        inside.any(axis=-1),
        _at(roots, inside.argmax(axis=-1)),
        _at(bp, (g_right >= 0.0).argmax(axis=-1)),
    )
    return np.where(slopes[..., 0] >= 0.0, 0.0, t)


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

    A completely flat objective (all weights zero with lam = mu = 0) returns
    0.0 and emits :class:`DegenerateObjectiveWarning`.
    """
    if lam < 0 or mu < 0:
        raise ValueError("lam and mu must be nonnegative")
    v, w = _check_pair(v, w)
    value, degenerate = _weighted_reg_median(v, w, lam, mu)
    if degenerate:
        warnings.warn(
            "objective is constant in t; returning 0 by convention",
            DegenerateObjectiveWarning,
            stacklevel=2,
        )
    return value


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
        targets, weights = _check_pair(self.targets, self.weights)
        targets.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "weights", weights)
        if self.l1_weight < 0 or self.l2_weight < 0:
            raise ValueError("l1_weight and l2_weight must be nonnegative")

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
    if problem.kind == "quadratic":
        w2 = float(problem.weights @ problem.weights) + problem.l2_weight
        if w2 == 0.0:
            # No quadratic curvature: the objective is constant + lam*t.
            return 0.0
        gamma = problem.l1_weight / (2.0 * w2)
        return soft_threshold(gamma, float(problem.targets @ problem.weights) / w2)
    value, _ = _weighted_reg_median(
        problem.targets, problem.weights, problem.l1_weight, problem.l2_weight
    )
    return value


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
