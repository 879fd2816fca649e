"""Four sha256 lines per (discrepancy, mode) cell: a fixed stream of fits, its states, pair-kernel calls and hand-built updates.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/identity_digest.py

The fit line runs 432 ``fit_history`` calls, 72 per cell: both inits,
unpenalized and penalized, on uniform data rounded to a grid (ties and exact
zeros) and on blobs, nine seeds each, from 100 x 3 rows with 2 clusters to
2100 x 19 with 10, at most 20 iterations. Each cell's digest covers every
step's labels, coefficients, centroids and objective, as bytes.

The state line covers the same steps without their objectives: every step's
labels, coefficients and centroids, as bytes, and each run's step count. A
change that moves only the objective's last bits keeps it, unless a moved
objective changes where the ``tol`` test stops a run; the step counts then
differ, and the first state the two sides disagree on names the run.

The pair line covers ``_pair_costs``' coefficient and distance matrices and
``_nearest``'s labels and coefficients on the same data, against centroid
rows that no fit need pick: data rows plus a zero row, a duplicated row, a
row of 5e-324 entries whose l1 coefficients overflow and a row mixing such
entries with data, then those rows with every entry scaled by a factor in
[0.5, 2), which ``_nearest`` takes with the state of its first call.
``c1_free`` runs without membership penalties, with lambda_u alone (a zero
centroid then admits no l2 coefficient and costs ||x||^2) and with lambda_u
and mu_u. A change in a pair that no row picks shows here only.

The hand line covers ``_update_centroids``, then ``_row_costs`` and
``objective`` at the centroids it returns, on memberships that no
``fit_history`` builds, without and with the cell's penalties: every row
labelled with coefficients that include 0.0 and -0.0; the same with
unlabelled rows (coefficient 0.0 or -0.0) and an empty last cluster; every
row labelled with coefficient 1; and that with the empty cluster. The first
two are binary memberships with coefficients outside {0, 1} in the binary
cell. The first five data rows are zero and make up cluster 0 alone, so in
normalized mode its centroid is a zero row that becomes a unit vector. The
kernels' bytes on these memberships then sit beside the fit loop's.

Two checkouts whose fits and pair costs are byte-identical print the same
lines, so a change that claims to keep those bytes runs this on both sides
and compares the output. The l2 free pair lines depend on the BLAS thread
count, so both sides run under the same thread variables; a leading ``#``
line prints the ones this run saw (``unset`` where the BLAS picks its own
count). pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import os

import numpy as np

from onmfcluster import Membership, ModelSpec, RegularizationParams, SolverConfig, fit_history, objective
from onmfcluster.centroid import _update_centroids
from onmfcluster.distance import _nearest, _pair_costs
from onmfcluster.model import _row_costs

CELLS = list(itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"]))
SEEDS = range(9)
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shape(seed: int) -> tuple[int, int, int]:
    """Rows, columns and clusters of a seed's data: 100 x 3 with K = 2 up to 2100 x 19 with K = 10."""
    return 100 + 250 * seed, 3 + 2 * seed, 2 + seed


def data(kind: str, seed: int) -> np.ndarray:
    M, N, K = shape(seed)
    rng = np.random.default_rng([seed, kind == "blobs"])
    if kind == "uniform":
        return np.round(rng.uniform(0.0, 1.0, (M, N)), 1)
    centres = rng.uniform(0.0, 10.0, (K, N))
    return np.abs(centres[rng.integers(0, K, M)] + rng.normal(0.0, 1.0, (M, N)))


def spec(discrepancy: str, mode: str, penalized: bool) -> ModelSpec:
    if not penalized:
        return ModelSpec(discrepancy, mode)
    # lambda_u large enough to threshold some rows to label -1.
    membership = dict(lambda_u=2.0, mu_u=0.5) if mode == "c1_free" else {}
    return ModelSpec(discrepancy, mode, RegularizationParams(lambda_v=0.1, mu_v=0.05, **membership))


def cell_digest(discrepancy: str, mode: str) -> tuple[str, str, int, int]:
    """The cell's sha256, its state sha256, its run count and its step count."""
    h, states = hashlib.sha256(), hashlib.sha256()
    runs = steps = 0
    for init, penalized, kind, seed in itertools.product(
        ["random_rows", "plusplus"], [False, True], ["uniform", "blobs"], SEEDS
    ):
        config = SolverConfig(n_clusters=shape(seed)[2], seed=seed, init=init, max_iter=20)
        history = fit_history(data(kind, seed), spec(discrepancy, mode, penalized), config)
        for step in history:
            state = (step.membership.labels, step.membership.coefficients, step.centroids)
            for array in state:
                h.update(array.tobytes())
                states.update(array.tobytes())
            h.update(np.float64(step.objective).tobytes())
        states.update(np.int64(len(history)).tobytes())
        steps += len(history)
        runs += 1
    return h.hexdigest(), states.hexdigest(), runs, steps


def centroid_rows(X: np.ndarray, K: int, seed: int) -> np.ndarray:
    """K data rows, then a zero row, a copy of the first, a row of 5e-324 and one mixing 5e-324 with data."""
    rng = np.random.default_rng([seed, 2])
    V = X[rng.choice(X.shape[0], K, replace=False)]
    mixed = np.where(rng.random(X.shape[1]) < 0.5, 5e-324, V[0])
    return np.vstack([V, np.zeros(X.shape[1]), V[0], np.full(X.shape[1], 5e-324), mixed])


def pair_specs(discrepancy: str, mode: str) -> list[ModelSpec]:
    if mode != "c1_free":
        return [ModelSpec(discrepancy, mode)]
    return [
        ModelSpec(discrepancy, mode, RegularizationParams(**membership))
        for membership in ({}, dict(lambda_u=2.0), dict(lambda_u=2.0, mu_u=0.5))
    ]


def pair_digest(discrepancy: str, mode: str) -> tuple[str, int]:
    """The cell's pair-kernel sha256 and its call count."""
    h = hashlib.sha256()
    calls = 0
    for spec_, kind, seed in itertools.product(pair_specs(discrepancy, mode), ["uniform", "blobs"], SEEDS):
        X = data(kind, seed)
        xx = np.einsum("mn,mn->m", X, X)
        V = centroid_rows(X, shape(seed)[2], seed)
        state = None
        for W in (V, V * np.random.default_rng([seed, 3]).uniform(0.5, 2.0, V.shape)):
            for matrix in _pair_costs(X, W, spec_):
                h.update(matrix.tobytes())
            labels, coeffs, state = _nearest(X, xx, W, spec_, state)
            h.update(labels.tobytes())
            h.update(coeffs.tobytes())
            calls += 1
    return h.hexdigest(), calls


def hand_memberships(M: int, K: int, seed: int) -> list[Membership]:
    """The four memberships of the hand line; rows 0 to 4 alone make up cluster 0."""
    rng = np.random.default_rng([seed, 4])
    labels = rng.integers(1, K, M)
    labels[:5] = 0
    labels[5:5 + K] = np.arange(K)
    labels[5] = min(1, K - 1)
    coeffs = rng.uniform(0.5, 2.0, M)
    coeffs[rng.random(M) < 0.2] = 1.0
    coeffs[rng.random(M) < 0.1] = 0.0
    coeffs[rng.random(M) < 0.1] = -0.0
    coeffs[:5 + K] = 1.0
    out = (rng.random(M) < 0.1) | (labels == K - 1)
    out[:5] = False
    zeros = np.where(rng.random(M) < 0.5, 0.0, -0.0)
    ones = np.ones(M)
    return [
        Membership(labels, coeffs, K),
        Membership(np.where(out, -1, labels), np.where(out, zeros, coeffs), K),
        Membership(labels, ones, K),
        Membership(np.where(out, -1, labels), np.where(out, zeros, ones), K),
    ]


def hand_digest(discrepancy: str, mode: str) -> tuple[str, int]:
    """The cell's sha256 of hand-built updates, their row costs and objectives, and its update count."""
    h = hashlib.sha256()
    calls = 0
    for penalized, kind, seed in itertools.product([False, True], ["uniform", "blobs"], SEEDS):
        X = data(kind, seed)
        X[:5] = 0.0
        M, K = X.shape[0], shape(seed)[2]
        spec_ = spec(discrepancy, mode, penalized)
        rng = np.random.default_rng([seed, 5])
        previous = X[rng.choice(M, K, replace=False)]
        if mode == "normalized":
            # Every other previous row on the sphere, as after a first update.
            norms = np.linalg.norm(previous[::2], axis=1, keepdims=True)
            previous[::2] = np.divide(previous[::2], norms, out=previous[::2], where=norms > 0)
        for membership in hand_memberships(M, K, seed):
            V = _update_centroids(X, membership, spec_, previous)
            h.update(V.tobytes())
            h.update(_row_costs(X, membership, V, spec_).tobytes())
            h.update(np.float64(objective(X, membership, V, spec_)).tobytes())
            calls += 1
    return h.hexdigest(), calls


def main() -> None:
    print("# " + " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_THREAD_VARIABLES))
    for discrepancy, mode in CELLS:
        digest, states, runs, steps = cell_digest(discrepancy, mode)
        print(f"{discrepancy:2} {mode:10} runs={runs} steps={steps} {digest}")
        print(f"{discrepancy:2} {mode:10} states runs={runs} steps={steps} {states}")
        digest, calls = pair_digest(discrepancy, mode)
        print(f"{discrepancy:2} {mode:10} pair calls={calls} {digest}")
        digest, calls = hand_digest(discrepancy, mode)
        print(f"{discrepancy:2} {mode:10} hand calls={calls} {digest}")


if __name__ == "__main__":
    main()
