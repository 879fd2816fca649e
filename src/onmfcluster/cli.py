"""Command-line front end: CSV in, clustering run, CSV/JSON out.

Exit codes: 0 on success, 2 for input errors (unreadable or malformed CSV,
invalid parameters), 3 for solver degeneracy (duplicate rows at seeding, no
valid centroid).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distance import DegenerateCentroidError, NoValidCentroidError
from .model import ModelSpec, RegularizationParams, row_costs
from .solver import DuplicateRowsError, SolverConfig, fit

FORMAT_VERSION = 1


class CsvFormatError(ValueError):
    """The input file is not a rectangular numeric CSV."""


class NegativeEntryError(CsvFormatError):
    """A data entry is negative (1-based file coordinates)."""

    def __init__(self, row: int, col: int, value: float):
        super().__init__(f"negative entry {value} at (row {row}, col {col})")
        self.row = row
        self.col = col
        self.value = value


def load_csv(path) -> np.ndarray:
    """Read a rectangular nonnegative numeric CSV into an M x N matrix.

    A single header row is auto-detected: if any cell of the first row fails
    to parse as a number, the row is treated as a header. Error coordinates
    are 1-based file positions (a header counts as row 1). The file is read
    as UTF-8; a leading byte-order mark is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")

    def parse(cell: str) -> float | None:
        try:
            return float(cell)
        except ValueError:
            return None

    first = [parse(c) for c in rows[0]]
    start = 1 if any(v is None for v in first) else 0
    if len(rows) == start:
        raise CsvFormatError(f"{path}: no data rows below the header")

    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:]):
        file_row = start + i + 1
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: row {file_row} has {len(row)} fields, expected {width}"
            )
        for j, cell in enumerate(row):
            value = parse(cell)
            if value is None or not math.isfinite(value):
                raise CsvFormatError(
                    f"{path}: non-finite or non-numeric value {cell!r} "
                    f"at (row {file_row}, col {j + 1})"
                )
            if value < 0:
                raise NegativeEntryError(file_row, j + 1, value)
            data[i, j] = value
    return data


@dataclass(frozen=True)
class RunManifest:
    """Everything one invocation needs: paths, model, and solver settings."""

    input_path: str
    output_dir: str
    spec: ModelSpec
    config: SolverConfig

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "input": self.input_path,
            "out": self.output_dir,
            "k": self.config.n_clusters,
            "discrepancy": self.spec.discrepancy,
            "mode": self.spec.constraint_mode,
            "lambda_u": self.spec.reg.lambda_u,
            "lambda_v": self.spec.reg.lambda_v,
            "mu_u": self.spec.reg.mu_u,
            "mu_v": self.spec.reg.mu_v,
            "seed": self.config.seed,
            "max_iter": self.config.max_iter,
            "tol": self.config.tol,
            "init": self.config.init,
            "empty_cluster_policy": self.config.empty_cluster_policy,
            "zero_row_policy": self.config.zero_row_policy,
        }


def _fmt(x: float) -> str:
    # 17 significant digits round-trip every float64 exactly.
    return format(float(x), ".17g")


def run(manifest: RunManifest) -> int:
    """Execute one clustering run and write the result files.

    Writes assignments.csv, centroids.csv, trace.csv, and run.json into the
    output directory. Each row's reported distance is its share of the final
    objective, ``model.row_costs`` at the reported cluster, coefficient and
    centroids: the column sums, with the centroid penalties, to the last
    trace value.
    """
    try:
        X = load_csv(manifest.input_path)
    except (OSError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        result = fit(X, manifest.spec, manifest.config)
    except (DuplicateRowsError, NoValidCentroidError, DegenerateCentroidError) as exc:
        print(f"error: solver degeneracy: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    out = Path(manifest.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels, coeffs = result.membership.labels, result.membership.coefficients
    V = result.centroids
    dist = row_costs(X, result.membership, V, manifest.spec)

    with open(out / "assignments.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_index", "cluster", "coefficient", "distance", "unassigned"])
        for m in range(X.shape[0]):
            unassigned = int(m in result.unassigned_rows)
            writer.writerow([m, int(labels[m]), _fmt(coeffs[m]), _fmt(dist[m]), unassigned])

    with open(out / "centroids.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for k in range(V.shape[0]):
            writer.writerow([_fmt(v) for v in V[k]])

    with open(out / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective"])
        for i, value in enumerate(result.objective_trace, start=1):
            writer.writerow([i, _fmt(value)])

    report = manifest.to_dict()
    report.update(
        {
            "converged": result.converged,
            "iterations": result.iterations,
            "wall_time_seconds": elapsed,
        }
    )
    with open(out / "run.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


_MODE_FLAGS = {"c1-free": "c1_free", "normalized": "normalized", "binary": "binary"}
_INIT_FLAGS = {"random": "random_rows", "plusplus": "plusplus"}
_EMPTY_FLAGS = {"reseed": "reseed_farthest", "keep": "keep_previous"}
_ZERO_FLAGS = {"keep": "keep_last_cluster", "exclude": "exclude"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onmfcluster",
        description="Cluster nonnegative CSV data by regularized orthogonal "
        "matrix factorization (generalized K-means).",
    )
    parser.add_argument("--input", required=True, help="input CSV (rows are data points)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--k", type=int, required=True, help="number of clusters")
    parser.add_argument("--discrepancy", choices=["l1", "l2"], default="l2")
    parser.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="c1-free")
    parser.add_argument("--lambda-u", type=float, default=0.0, help="l1 penalty on memberships")
    parser.add_argument("--lambda-v", type=float, default=0.0, help="l1 penalty on centroids")
    parser.add_argument("--mu-u", type=float, default=0.0, help="squared-l2 penalty on memberships")
    parser.add_argument("--mu-v", type=float, default=0.0, help="squared-l2 penalty on centroids")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iter", type=int, default=300)
    parser.add_argument("--tol", type=float, default=1e-9, help="relative objective decrease")
    parser.add_argument("--init", choices=sorted(_INIT_FLAGS), default="random")
    parser.add_argument("--empty-cluster", choices=["reseed", "keep"], default="reseed")
    parser.add_argument("--zero-row", choices=["keep", "exclude"], default="keep")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = ModelSpec(
            discrepancy=args.discrepancy,
            constraint_mode=_MODE_FLAGS[args.mode],
            reg=RegularizationParams(
                lambda_u=args.lambda_u,
                lambda_v=args.lambda_v,
                mu_u=args.mu_u,
                mu_v=args.mu_v,
            ),
        )
        config = SolverConfig(
            n_clusters=args.k,
            max_iter=args.max_iter,
            tol=args.tol,
            seed=args.seed,
            init=_INIT_FLAGS[args.init],
            empty_cluster_policy=_EMPTY_FLAGS[args.empty_cluster],
            zero_row_policy=_ZERO_FLAGS[args.zero_row],
        )
        manifest = RunManifest(
            input_path=args.input, output_dir=args.out, spec=spec, config=config
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
