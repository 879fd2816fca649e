"""One sha256 per (discrepancy, mode) cell over a fixed stream of fits.

    PYTHONPATH=src python tests/identity_digest.py

Runs 432 ``fit_history`` calls, 72 per cell: both inits, unpenalized and
penalized, on uniform data rounded to a grid (ties and exact zeros) and on
blobs, nine seeds each, from 100 x 3 rows with 2 clusters to 2100 x 19 with
10, at most 20 iterations. Each cell's digest covers every step's labels,
coefficients, centroids and objective, as bytes. Two checkouts whose fits
are byte-identical print the same lines, so a change that claims to keep
every fit's bytes runs this on both sides and compares the output. pytest
does not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from onmfcluster import ModelSpec, RegularizationParams, SolverConfig, fit_history

CELLS = list(itertools.product(["l1", "l2"], ["c1_free", "normalized", "binary"]))
SEEDS = range(9)


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


def cell_digest(discrepancy: str, mode: str) -> tuple[str, int, int]:
    """The cell's sha256, its run count and its step count."""
    h = hashlib.sha256()
    runs = steps = 0
    for init, penalized, kind, seed in itertools.product(
        ["random_rows", "plusplus"], [False, True], ["uniform", "blobs"], SEEDS
    ):
        config = SolverConfig(n_clusters=shape(seed)[2], seed=seed, init=init, max_iter=20)
        for step in fit_history(data(kind, seed), spec(discrepancy, mode, penalized), config):
            h.update(step.membership.labels.tobytes())
            h.update(step.membership.coefficients.tobytes())
            h.update(step.centroids.tobytes())
            h.update(np.float64(step.objective).tobytes())
            steps += 1
        runs += 1
    return h.hexdigest(), runs, steps


def main() -> None:
    for discrepancy, mode in CELLS:
        digest, runs, steps = cell_digest(discrepancy, mode)
        print(f"{discrepancy:2} {mode:10} runs={runs} steps={steps} {digest}")


if __name__ == "__main__":
    main()
