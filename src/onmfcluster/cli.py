"""Command-line front end: CSV in, clustering run, CSV/JSON out.

Exit codes: 0 on success, 2 for input errors (unreadable or malformed CSV,
invalid parameters, data whose squared norms or pair costs overflow float64,
an output path that cannot be written), 3 for duplicate rows at seeding.

A command-line run (``python -m onmfcluster``, ``python -m onmfcluster.cli``
or the ``onmfcluster`` script) goes through :func:`entry`. Once ``main`` has
returned, every result file is written, closed and moved into place and the
staging directory is gone, so nothing the run owes its caller is left; the
interpreter's teardown would only free numpy's modules and objects, tens of
milliseconds that the caller waits for, as long as a small fit. So
``entry`` flushes stdout and stderr and ends the process with
``os._exit``. It exits normally instead where ``main`` raises (argparse's
``--help`` and usage errors included) or a tracer, profiler or monitoring
tool watches the process (coverage, cProfile, pdb), since those write their
results at exit. ``main`` itself returns the exit code, so in-process
callers are unaffected.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .model import FactorizationResult, ModelSpec, RegularizationParams, _row_costs
from .solver import DuplicateRowsError, SolverConfig, fit

FORMAT_VERSION = 3


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
    takes but numpy does not (``1_0``, non-ASCII digits). numpy does not
    apply the csv module's field size limit, so a file in which a block check
    finds room for a field over it goes to the scan as well, and both paths
    reject such a field as a :class:`CsvFormatError`.
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

    The block check: a field longer than the csv module's limit holds a whole
    aligned block of half the limit. Unquoted, it leaves no comma and no line
    break in that block; quoted, it opens at or before the block, and a comma
    in it makes it non-numeric, which ``np.loadtxt`` rejects. So a full block
    with no comma, after a quote or without a line break, sends the file to
    the scan; so does a long one-column file with a quote. The header test is
    the scan's, on the first record, and ``np.loadtxt`` skips its lines.
    """
    half = csv.field_size_limit() // 2 or 1
    quoted = False
    try:
        while block := fh.read(half):
            quoted = quoted or '"' in block
            broken = "\n" in block or "\r" in block
            if len(block) == half and "," not in block and (quoted or not broken):
                return None
        fh.seek(0)
        records = csv.reader(fh)
        rows = filter(None, records)
        row, skip = next(rows, None), 0
        if row is not None and any(_to_float(c) is None for c in row):
            skip = records.line_num
            row = next(rows, None)
        # Empty and header-only files go to the scan, which names them;
        # loadtxt would only warn that it found no data.
        if row is None:
            return None
        fh.seek(0)
        data = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None, quotechar='"',
                          ndmin=2, skiprows=skip)
    except (ValueError, csv.Error):
        return None
    return data if np.isfinite(data).all() and (data >= 0).all() else None


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


def _write_csv(path: Path, header: str | None, formats: list[str], *columns: np.ndarray) -> None:
    """Write a row per entry of the columns below an optional header, CRLF-terminated, in one ``%``.

    Column j is formatted with ``formats[j]``. A column whose entries all
    share one bit pattern, such as binary mode's coefficient 1, is formatted
    once into the row format; bits, not ``==``, decide, so a column mixing
    -0.0 and 0.0 is still formatted row by row.
    """
    rows = len(columns[0])
    specs, varying = [], []
    for spec, column in zip(formats, columns):
        bits = column.view(f"u{column.itemsize}")
        if (bits == bits[0]).all():
            specs.append(spec % column[0].item())
        else:
            specs.append(spec)
            varying.append(column.tolist())
    flat = [None] * (len(varying) * rows)
    for j, column in enumerate(varying):
        flat[j::len(varying)] = column
    body = ((",".join(specs) + "\r\n") * rows) % tuple(flat)
    with open(path, "w", newline="") as fh:
        fh.write(body if header is None else header + "\r\n" + body)


def run(input_path, output_dir, spec: ModelSpec, config: SolverConfig) -> int:
    """Cluster the CSV at input_path and write the result files into output_dir.

    Writes assignments.csv, centroids.csv, trace.csv, and run.json;
    run.json records the paths, the model and the solver settings, and lists
    under ``empty_clusters`` every cluster the fit left without a member. A
    row whose coefficient was thresholded to 0 has cluster -1 and
    unassigned 1. Each row's reported distance is its share of the final
    objective, ``model._row_costs`` at the reported cluster, coefficient and
    centroids: the column sums, with the centroid penalties, to the last
    trace value up to rounding, as the objective sums its fit term over all
    entries at once rather than row by row.
    """
    try:
        X = load_csv(input_path)
    except (OSError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        result = fit(X, spec, config)
    except DuplicateRowsError as exc:
        print(f"error: solver degeneracy: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "wall_time_seconds": time.perf_counter() - started,
        "format_version": FORMAT_VERSION,
        "input": os.fspath(input_path),
        "out": os.fspath(output_dir),
        "k": config.n_clusters,
        "discrepancy": spec.discrepancy,
        "mode": spec.constraint_mode,
        "lambda_u": spec.reg.lambda_u,
        "lambda_v": spec.reg.lambda_v,
        "mu_u": spec.reg.mu_u,
        "mu_v": spec.reg.mu_v,
        "seed": config.seed,
        "max_iter": config.max_iter,
        "tol": config.tol,
        "init": config.init,
        "converged": result.converged,
        "empty_clusters": sorted(result.empty_clusters),
        "iterations": result.iterations,
    }
    try:
        _write_results(Path(output_dir), X, result, spec, report)
    except OSError as exc:
        print(f"error: cannot write the results: {exc}", file=sys.stderr)
        return 2
    return 0


_RESULT_FILES = ("assignments.csv", "centroids.csv", "trace.csv", "run.json")


def _write_results(out: Path, X: np.ndarray, result: FactorizationResult, spec: ModelSpec, report: dict) -> None:
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
        _write_files(staging, X, result, spec, report)
        for name in _RESULT_FILES:
            os.replace(staging / name, out / name)
            placed.append(out / name)
    except OSError:
        for path in placed:
            path.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_files(out: Path, X: np.ndarray, result: FactorizationResult, spec: ModelSpec, report: dict) -> None:
    labels, coeffs = result.membership.labels, result.membership.coefficients
    V = result.centroids
    dist = _row_costs(X, result.membership, V, spec)

    # 17 significant digits round-trip every float64 exactly.
    _write_csv(
        out / "assignments.csv",
        "row_index,cluster,coefficient,distance,unassigned",
        ["%d", "%d", "%.17g", "%.17g", "%d"],
        np.arange(X.shape[0]), labels, coeffs, dist, labels < 0,
    )
    _write_csv(out / "centroids.csv", None, ["%.17g"] * V.shape[1], *V.T)
    trace = result.objective_trace
    _write_csv(out / "trace.csv", "iteration,objective", ["%d", "%.17g"], np.arange(1, trace.size + 1), trace)
    with open(out / "run.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


_MODE_FLAGS = {"c1-free": "c1_free", "normalized": "normalized", "binary": "binary"}
_INIT_FLAGS = {"random": "random_rows", "plusplus": "plusplus"}


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
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args.input, args.out, spec, config)


def entry() -> int:
    """Run ``main`` on the command line and end the process once it returns.

    With no trace, profile or monitoring function set, stdout and stderr are
    flushed and the process ends at once with ``main``'s exit code, skipping
    the interpreter's teardown; otherwise the code is returned for the normal
    exit. An exception from ``main`` propagates, so that exit is normal too.
    pdb traces only while a breakpoint is set: after ``continue`` with none,
    the run ends here rather than back at pdb's prompt.
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, where cProfile and coverage may use it
    watched = sys.gettrace() is not None or sys.getprofile() is not None or (
        monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))
    )
    if not watched:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None where the descriptor was closed at start-up
                stream.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(entry())
