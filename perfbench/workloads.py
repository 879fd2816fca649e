"""Workload definitions and their seeded input generators.

Every input is a nonnegative blob matrix: K centres uniform in [0, 10]^N,
Gaussian noise with sigma 3 around a uniformly drawn centre per row, then the
absolute value. The seed draws the rows and the solver's start. The program
under test only ever sees the generated array (library workloads, saved as
``.npy``) or the generated CSV (CLI workload). This module needs numpy only;
it never imports the program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Cell:
    """One (discrepancy, constraint mode) cell with its penalty weights."""

    discrepancy: str
    mode: str
    reg: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    k: int
    cells: tuple[Cell, ...]
    max_iter: int
    init: str = "random_rows"
    cli: bool = False
    solver_seeds: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "l2-blobs",
            2000,
            16,
            10,
            (
                Cell("l2", "binary"),
                Cell("l2", "c1_free", {"lambda_u": 20.0, "mu_u": 0.5}),
                Cell("l2", "normalized", {"lambda_v": 0.5}),
            ),
            max_iter=6,
        ),
        Workload(
            "l1-blobs",
            600,
            8,
            8,
            (
                Cell("l1", "binary"),
                Cell("l1", "c1_free", {"lambda_u": 5.0, "mu_u": 0.5}),
                Cell("l1", "normalized"),
            ),
            max_iter=6,
        ),
        Workload(
            "cli-tall",
            10000,
            32,
            4,
            (Cell("l2", "binary"),),
            max_iter=2,
            init="plusplus",
            cli=True,
            # One two-iteration fit from a plusplus draw lands in a local
            # optimum whose objective varies by about 10% between draws, so
            # each run rotates over twelve draws; their geometric mean spread
            # 3% across benchmark seeds, six draws 4-5%.
            solver_seeds=12,
        ),
    )
}

_INIT_FLAGS = {"random_rows": "random", "plusplus": "plusplus"}
CENTRE_STREAM = 0


def blobs(seed: int, rows: int, cols: int, k: int) -> np.ndarray:
    # The centres come from a fixed stream and the seed draws the rows around
    # them. With seeded centres the final objective of the same solver moved
    # by 5-9% between seeds with the geometry alone, which no bound on
    # objective_rel could absorb.
    centres = np.random.default_rng(CENTRE_STREAM).uniform(0.0, 10.0, size=(k, cols))
    rng = np.random.default_rng(seed)
    member = rng.integers(k, size=rows)
    return np.abs(centres[member] + rng.normal(0.0, 3.0, size=(rows, cols)))


def generate(workload: Workload, seed: int) -> np.ndarray:
    return blobs(seed, workload.rows, workload.cols, workload.k)


def fits(workload: Workload, seed: int) -> list[tuple[Cell, int]]:
    """The (cell, solver seed) of each fit one run times, derived from the benchmark seed.

    A library workload fits each of its cells once with the run's seed; the
    CLI workload fits its one cell once per solver seed.
    """
    if not workload.cli:
        return [(cell, seed) for cell in workload.cells]
    (cell,) = workload.cells
    return [(cell, seed * workload.solver_seeds + j) for j in range(workload.solver_seeds)]


def write_csv(path, X: np.ndarray) -> None:
    """Write X with six decimals, the precision the CLI workload parses."""
    np.savetxt(path, X, fmt="%.6f", delimiter=",")


def cli_args(workload: Workload, solver_seed: int, input_path, out_dir) -> list[str]:
    """Command-line flags that make the CLI run the workload's single cell."""
    (cell,) = workload.cells
    args = [
        "--input", str(input_path), "--out", str(out_dir),
        "--k", str(workload.k),
        "--discrepancy", cell.discrepancy,
        "--mode", cell.mode.replace("_", "-"),
        "--init", _INIT_FLAGS[workload.init],
        "--max-iter", str(workload.max_iter),
        "--tol", "0",
        "--seed", str(solver_seed),
    ]
    for name, value in cell.reg.items():
        args += ["--" + name.replace("_", "-"), repr(value)]
    return args


def repeat_for(seconds: float, step) -> None:
    """Call step() until the next call would end after the window; at least once."""
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return

