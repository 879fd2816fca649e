"""Regularized orthogonal nonnegative matrix factorization as generalized K-means.

The factorization X ~= U V with pairwise-orthogonal nonnegative columns of U
is a hard clustering: each data row carries at most one positive coefficient.
Alternating exact minimization of the elastic-net-regularized objective
yields closed-form membership coefficients (soft thresholding, weighted
regularized medians), the distance measures they induce, and centroid
updates, with verifiable reductions to classical K-means, K-median, and the
spherical variant.

The public contract: the paper-level functions (coefficients, distances,
``assign``, centroid rows, ``objective`` and the scalar problems) check their
input, and ``fit``, ``fit_history``, ``init_centroids`` and
``as_data_matrix`` validate the data once. The batched kernels a fit runs,
``distance._pair_costs``, ``distance._nearest``, ``centroid._update_centroids``
and ``model._row_costs``, are private: they take the fit's validated rows and
check nothing again.
"""

from .centroid import centroid_l1, centroid_l2
from .distance import (
    NoValidCentroidError,
    assign,
    coefficient_and_distance,
    coefficient_l1,
    coefficient_l2,
    distance_l1,
    distance_l2,
    distance_l2_angle_form,
    distance_l2_closed_form,
)
from .model import (
    FactorizationResult,
    Membership,
    ModelSpec,
    RegularizationParams,
    as_data_matrix,
    objective,
)
from .scalar_prox import (
    ScalarProxProblem,
    brute_force_min,
    soft_threshold,
    solve_closed_form,
    weighted_reg_median,
)
from .solver import DuplicateRowsError, FitStep, SolverConfig, fit, fit_history, init_centroids

__version__ = "0.1.0"

__all__ = [
    "DuplicateRowsError",
    "FactorizationResult",
    "FitStep",
    "Membership",
    "ModelSpec",
    "NoValidCentroidError",
    "RegularizationParams",
    "ScalarProxProblem",
    "SolverConfig",
    "as_data_matrix",
    "assign",
    "brute_force_min",
    "centroid_l1",
    "centroid_l2",
    "coefficient_and_distance",
    "coefficient_l1",
    "coefficient_l2",
    "distance_l1",
    "distance_l2",
    "distance_l2_angle_form",
    "distance_l2_closed_form",
    "fit",
    "fit_history",
    "init_centroids",
    "objective",
    "soft_threshold",
    "solve_closed_form",
    "weighted_reg_median",
]
