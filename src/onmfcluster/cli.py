"""Command-line front end: CSV in, clustering run, CSV/JSON out.

Exit codes: 0 on success, 2 for input errors (unreadable or malformed CSV,
invalid parameters, an output path that cannot be written), 3 for solver
degeneracy (duplicate rows at seeding, no valid centroid).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distance import DegenerateCentroidError, NoValidCentroidError
from .model import FactorizationResult, ModelSpec, RegularizationParams, row_costs
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

    Values are read as Python's ``float()`` reads them. A single header row
    is auto-detected: if any cell of the first row fails to parse as a
    number, the row is treated as a header. Error coordinates are 1-based
    file positions (a header counts as row 1). The file is read as UTF-8; a
    leading byte-order mark is skipped.

    The file is parsed in one streaming ``np.loadtxt`` pass, which agrees
    with ``float()`` on every file it accepts. A file it rejects, or whose
    values are not all finite and nonnegative, is read again by a
    cell-by-cell scan. The scan builds one Python string per cell, which
    takes several times as long and about nine times the array's memory, so
    it runs only to name the faulty cell, or to accept what ``float()``
    takes but numpy does not (``1_0``, non-ASCII digits). So does a file that
    could hold a field longer than the csv module's field size limit, so that
    both paths reject such a field as a :class:`CsvFormatError`.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            data = _parse(fh)
        return _scan(path) if data is None else data
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: {exc}") from None


def _to_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _parse(fh) -> np.ndarray | None:
    """The matrix of an open CSV file, or None where the scan must judge it.

    The header test is the scan's. The file lines of the first data record,
    which that test has already read, go to ``np.loadtxt`` ahead of the rest
    of the file.
    """
    lines = []  # the file lines of the record read last
    records = csv.reader(lines.append(line) or line for line in fh)

    def next_row():
        while True:
            lines.clear()
            row = next(records, None)
            if row != []:
                return row

    try:
        row = next_row()
        if row is not None and any(_to_float(c) is None for c in row):
            row = next_row()
        # Empty and header-only files go to the scan, which names them;
        # loadtxt would only warn that it found no data.
        if row is None:
            return None
        data = np.loadtxt(
            _short_fields(itertools.chain(lines, fh)), dtype=np.float64, delimiter=",",
            comments=None, quotechar='"', ndmin=2,
        )
    except (ValueError, csv.Error):
        return None
    if not np.isfinite(data).all() or (data < 0).any():
        return None
    return data


def _short_fields(lines):
    """Pass the lines on; raise ``csv.Error`` where a field could be longer than
    ``csv.field_size_limit()``, which numpy does not apply. A field with a comma
    is not a number, so only a long run of lines an open quote joins, or a long
    line with no comma in an aligned block of half the limit, needs the scan.
    """
    limit = csv.field_size_limit()
    half = limit // 2
    run, quoted = 0, False
    for line in lines:
        run = run + len(line) if quoted else len(line)
        if run > limit and (quoted or any(
                line.find(",", i, i + half) < 0 for i in range(0, len(line) - half + 1, half))):
            raise csv.Error(f"a field may be longer than the field size limit ({limit})")
        quoted ^= '"' in line and line.count('"') % 2 == 1
        yield line


def _scan(path) -> np.ndarray:
    """Read the file cell by cell, naming the first faulty cell."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    start = 1 if any(_to_float(c) is None for c in rows[0]) else 0
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
            value = _to_float(cell)
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


def _write_csv(path: Path, header: str | None, fmt: str, rows) -> None:
    """Write ``fmt % row`` per row below an optional header, CRLF-terminated."""
    lines = [] if header is None else [header]
    lines += [fmt % tuple(row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\r\n" for line in lines))


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

    try:
        _write_results(Path(manifest.output_dir), X, result, manifest, elapsed)
    except OSError as exc:
        print(f"error: cannot write the results: {exc}", file=sys.stderr)
        return 2
    return 0


_RESULT_FILES = ("assignments.csv", "centroids.csv", "trace.csv", "run.json")


def _write_results(
    out: Path, X: np.ndarray, result: FactorizationResult, manifest: RunManifest, elapsed: float
) -> None:
    """Write the result files into ``out`` all together or not at all.

    They are written into a temporary directory inside ``out``, which shares
    its file system and permissions, and then moved into place. On an
    ``OSError`` the files moved so far and the temporary directory are
    removed before it propagates, so a failed run leaves no result file.
    """
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
    placed = []
    try:
        _write_files(staging, X, result, manifest, elapsed)
        for name in _RESULT_FILES:
            os.replace(staging / name, out / name)
            placed.append(out / name)
    except OSError:
        for path in placed:
            path.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_files(
    out: Path, X: np.ndarray, result: FactorizationResult, manifest: RunManifest, elapsed: float
) -> None:
    labels, coeffs = result.membership.labels, result.membership.coefficients
    V = result.centroids
    dist = row_costs(X, result.membership, V, manifest.spec)
    unassigned = np.zeros(X.shape[0], dtype=np.int64)
    unassigned[list(result.unassigned_rows)] = 1

    # 17 significant digits round-trip every float64 exactly.
    _write_csv(
        out / "assignments.csv",
        "row_index,cluster,coefficient,distance,unassigned",
        "%d,%d,%.17g,%.17g,%d",
        zip(range(X.shape[0]), labels.tolist(), coeffs.tolist(), dist.tolist(), unassigned.tolist()),
    )
    _write_csv(out / "centroids.csv", None, ",".join(["%.17g"] * V.shape[1]), V.tolist())
    _write_csv(
        out / "trace.csv", "iteration,objective", "%d,%.17g",
        enumerate(result.objective_trace.tolist(), start=1),
    )

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
