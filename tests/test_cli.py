"""Unit tests for CSV ingestion and the command-line runner."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster.cli import (
    CsvFormatError,
    NegativeEntryError,
    _write_csv,
    load_csv,
    main,
    run,
)
from onmfcluster.model import Membership, ModelSpec, RegularizationParams, _row_costs
from onmfcluster.solver import SolverConfig, fit

TOY = "0,0\n0,1\n10,10\n10,11\n"


class TestLoadCsv:
    def test_plain_matrix(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n3,4\n")
        assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_detected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n1,2\n")
        assert_array_equal(load_csv(path), [[1.0, 2.0]])

    def test_negative_entry_coordinates(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,-2\n")
        with pytest.raises(NegativeEntryError) as err:
            load_csv(path)
        assert (err.value.row, err.value.col) == (1, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,nan\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_inf_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("inf,1\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        # Read with the mark, "\ufeff1" failed to parse and row 1 became a header.
        path = tmp_path / "a.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(CsvFormatError, match="UTF-8"):
            load_csv(path)

    def test_field_over_the_csv_size_limit_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0" * 200000 + "1,3\n")
        with pytest.raises(CsvFormatError, match="field larger than field limit"):
            load_csv(path)


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY)
    return path


def _toy_args(toy_csv, out_dir, *extra):
    return [
        "--input", str(toy_csv), "--out", str(out_dir),
        "--k", "2", "--discrepancy", "l2", "--mode", "binary", "--seed", "7",
        *extra,
    ]


class TestRun:
    def test_toy_run_outputs(self, toy_csv, tmp_path):
        out = tmp_path / "out"
        assert main(_toy_args(toy_csv, out)) == 0
        for name in ("assignments.csv", "centroids.csv", "trace.csv", "run.json"):
            assert (out / name).exists()

        report = json.loads((out / "run.json").read_text())
        assert report["converged"] is True
        assert report["format_version"] == 3
        # Every effective parameter is echoed, including defaults, and nothing else.
        assert set(report) == {
            "format_version", "input", "out", "k", "discrepancy", "mode", "lambda_u", "lambda_v",
            "mu_u", "mu_v", "seed", "max_iter", "tol", "init", "converged", "empty_clusters",
            "iterations", "wall_time_seconds",
        }
        assert report["max_iter"] == 300 and report["tol"] == 1e-9
        assert report["empty_clusters"] == []

        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert (np.diff(trace[:, 1]) <= 1e-10).all()

        lines = (out / "assignments.csv").read_text().splitlines()
        assert lines[0] == "row_index,cluster,coefficient,distance,unassigned"
        clusters = [int(line.split(",")[1]) for line in lines[1:]]
        assert clusters == [0, 0, 1, 1]

    def test_rerun_is_byte_identical(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(_toy_args(toy_csv, out1)) == 0
        assert main(_toy_args(toy_csv, out2)) == 0
        for name in ("assignments.csv", "centroids.csv", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_centroids_round_trip(self, toy_csv, tmp_path):
        out = tmp_path / "out"
        spec, config = ModelSpec("l2", "c1_free"), SolverConfig(n_clusters=2, seed=3)
        assert run(str(toy_csv), str(out), spec, config) == 0
        from onmfcluster import fit

        expected = fit(load_csv(toy_csv), spec, config).centroids
        reloaded = load_csv(out / "centroids.csv")
        assert_allclose(reloaded, expected, atol=1e-12, rtol=0)
        assert_array_equal(reloaded, expected)  # 17 digits round-trip exactly

    def test_run_takes_path_arguments(self, toy_csv, tmp_path):
        # run.json records the paths as the strings they name; the result
        # files equal those of a run given strings.
        spec, config = ModelSpec("l1", "normalized"), SolverConfig(n_clusters=2, seed=3)
        by_path, by_str = tmp_path / "p", tmp_path / "s"
        assert run(toy_csv, by_path, spec, config) == 0
        assert run(str(toy_csv), str(by_str), spec, config) == 0
        report = json.loads((by_path / "run.json").read_text())
        assert (report["input"], report["out"]) == (str(toy_csv), str(by_path))
        for name in ("assignments.csv", "centroids.csv", "trace.csv"):
            assert (by_path / name).read_bytes() == (by_str / name).read_bytes()

    def test_k_exceeding_rows_exits_2(self, toy_csv, tmp_path, capsys):
        code = main(["--input", str(toy_csv), "--out", str(tmp_path / "out"), "--k", "9"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path), "--k", "1"]) == 2

    def test_negative_data_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n-3,4\n")
        assert main(["--input", str(path), "--out", str(tmp_path / "o"), "--k", "1"]) == 2

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert main(["--input", str(path), "--out", str(tmp_path / "o"), "--k", "1"]) == 0
        assert len((tmp_path / "o" / "assignments.csv").read_text().splitlines()) == 3

    def test_non_utf8_bytes_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        assert main(["--input", str(path), "--out", str(tmp_path / "o"), "--k", "1"]) == 2
        assert "UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_field_over_the_csv_size_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("0" * 200000 + "1,3\n")
        assert main(["--input", str(path), "--out", str(tmp_path / "o"), "--k", "1"]) == 2
        assert "field limit" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_naming_a_file_exits_2(self, toy_csv, tmp_path, capsys, under):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile / "sub" if under else afile
        assert main(["--input", str(toy_csv), "--out", str(out), "--k", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert afile.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "toy.csv"]

    def test_unwritable_result_file_exits_2(self, toy_csv, tmp_path, capsys):
        (tmp_path / "o" / "trace.csv").mkdir(parents=True)
        assert main(["--input", str(toy_csv), "--out", str(tmp_path / "o"), "--k", "2"]) == 2
        assert "trace.csv" in capsys.readouterr().err

    def test_failed_write_leaves_no_result_file(self, toy_csv, tmp_path):
        out = tmp_path / "o"
        (out / "trace.csv").mkdir(parents=True)
        assert main(["--input", str(toy_csv), "--out", str(out), "--k", "2"]) == 2
        assert [p.name for p in out.iterdir()] == ["trace.csv"]
        assert not any((out / "trace.csv").iterdir())

    def test_run_leaves_only_the_result_files(self, toy_csv, tmp_path):
        out = tmp_path / "o"
        assert main(["--input", str(toy_csv), "--out", str(out), "--k", "2"]) == 0
        names = ["assignments.csv", "centroids.csv", "run.json", "trace.csv"]
        assert sorted(p.name for p in out.iterdir()) == names

    def test_result_files_are_byte_stable(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0,0\n0,1\n10,10\n10,11.5\n0.25,0\n")
        out = tmp_path / "out"
        argv = ["--input", str(path), "--out", str(out), "--k", "2", "--seed", "7",
                "--lambda-u", "1", "--lambda-v", "0.5", "--mu-v", "0.25", "--max-iter", "4"]
        assert main(argv) == 0
        assert (out / "assignments.csv").read_bytes() == (
            b"row_index,cluster,coefficient,distance,unassigned\r\n"
            b"0,-1,0,0,1\r\n"
            b"1,0,0.065105119280542426,0.53491491510642764,0\r\n"
            b"2,0,1.335452391363479,2.5865951656845771,0\r\n"
            b"3,0,1.4398532104924182,2.7575099793378741,0\r\n"
            b"4,0,0.011603132127315315,0.048353165279854095,0\r\n"
        )
        # Cluster 1 is seeded with row 0, which lambda_u thresholds, so it
        # stays empty; a data row would add centroid penalty, so it keeps its
        # zero row.
        assert (out / "centroids.csv").read_bytes() == (
            b"6.6908455572556624,7.2313449443105116\r\n"
            b"0,0\r\n"
        )
        assert (out / "trace.csv").read_bytes() == (
            b"iteration,objective\r\n"
            b"1,57.151731561783954\r\n"
            b"2,47.857827934300587\r\n"
            b"3,41.626431540831227\r\n"
            b"4,37.153409469855077\r\n"
        )
        assert json.loads((out / "run.json").read_text())["empty_clusters"] == [1]

    @pytest.mark.parametrize(
        "X, k",
        [
            (np.vstack([np.zeros((6, 2)), np.random.default_rng(1).uniform(1, 5, (6, 2))]), 2),
            (np.vstack([np.zeros((3, 2)), [[1.0, 2.0]]]), 1),
        ],
        ids=["fits-through", "lone-zero-centroid"],
    )
    def test_a_zero_draw_under_a_sparsity_penalty(self, tmp_path, capsys, X, k):
        # plusplus seed 1 draws a zero row first, which costs every row its
        # ||x||^2. With a second centroid or alone, the fit runs through it.
        path = tmp_path / "zeros.csv"
        np.savetxt(path, X, fmt="%.17g", delimiter=",")
        argv = ["--input", str(path), "--out", str(tmp_path / "o"), "--k", str(k),
                "--lambda-u", "1", "--init", "plusplus", "--seed", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        names = ["assignments.csv", "centroids.csv", "run.json", "trace.csv"]
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == names

    def test_duplicate_rows_exit_3(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,1\n1,1\n1,1\n")
        assert main(["--input", str(path), "--out", str(tmp_path / "o"), "--k", "2"]) == 3

    def test_invalid_mode_penalty_combination_exits_2(self, toy_csv, tmp_path):
        code = main(_toy_args(toy_csv, tmp_path / "o", "--lambda-u", "1.0"))
        assert code == 2

    def test_zero_row_flag_is_rejected(self, toy_csv, tmp_path, capsys):
        # A thresholded row has one representation, cluster -1, so the flag
        # that chose between two is gone.
        with pytest.raises(SystemExit) as exc:
            main(_toy_args(toy_csv, tmp_path / "o", "--zero-row", "keep"))
        assert exc.value.code == 2
        assert "--zero-row" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_cluster_flag_is_rejected(self, toy_csv, tmp_path, capsys):
        # One rule resolves every empty cluster, so the flag that chose
        # between two policies is gone.
        with pytest.raises(SystemExit) as exc:
            main(_toy_args(toy_csv, tmp_path / "o", "--empty-cluster", "keep"))
        assert exc.value.code == 2
        assert "--empty-cluster" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _distance_cases():
    penalized = ["--lambda-v", "0.3", "--mu-v", "0.2"]
    for discrepancy in ("l1", "l2"):
        for mode in ("c1-free", "normalized", "binary"):
            yield discrepancy, mode, ["--max-iter", "1", *penalized]
            yield discrepancy, mode, penalized
        membership_penalty = ["--lambda-u", "4", "--mu-u", "0.5", *penalized]
        for extra in (["--max-iter", "1"], [], ["--init", "plusplus"]):
            yield discrepancy, "c1-free", [*membership_penalty, *extra]


@pytest.mark.parametrize("discrepancy, mode, extra", list(_distance_cases()))
def test_distance_column_is_each_rows_share_of_the_objective(tmp_path, discrepancy, mode, extra):
    rng = np.random.default_rng(5)
    # Two tiny rows, which lambda_u = 4 thresholds to coefficient 0 under
    # both discrepancies.
    X = np.vstack([rng.uniform(0, 10, (40, 3)), [[0.01, 0.0, 0.0], [0.0, 0.02, 0.0]]])
    path = tmp_path / "x.csv"
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    out = tmp_path / "out"
    argv = ["--input", str(path), "--out", str(out), "--k", "3", "--seed", "2",
            "--discrepancy", discrepancy, "--mode", mode, *extra]
    assert main(argv) == 0

    table = np.loadtxt(out / "assignments.csv", delimiter=",", skiprows=1, ndmin=2)
    V = load_csv(out / "centroids.csv")
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    report = json.loads((out / "run.json").read_text())
    spec = ModelSpec(
        discrepancy, report["mode"],
        RegularizationParams(report["lambda_u"], report["lambda_v"], report["mu_u"], report["mu_v"]),
    )
    membership = Membership(table[:, 1].astype(np.int64), table[:, 2], V.shape[0])
    dist = table[:, 3]

    assert_array_equal(dist, _row_costs(X, membership, V, spec))
    penalty_v = spec.reg.lambda_v * np.abs(V).sum() + spec.reg.mu_v * (V * V).sum()
    assert_allclose(dist.sum() + penalty_v, trace[-1], rtol=1e-12, atol=0)
    zero = membership.coefficients == 0.0
    full = (X * X).sum(axis=1) if discrepancy == "l2" else X.sum(axis=1)
    assert_allclose(dist[zero], full[zero], rtol=1e-15, atol=0)
    assert_array_equal(table[:, 4], zero)
    assert_array_equal(table[:, 1] == -1, table[:, 4] == 1)
    if "--lambda-u" in extra:
        assert zero[-2:].all()


@pytest.mark.parametrize(
    "mode, extra",
    [("binary", []), ("c1-free", ["--lambda-u", "1e6"])],
    ids=["binary", "every-row-thresholded"],
)
def test_assignments_equal_the_per_row_formatting(tmp_path, mode, extra):
    # Binary mode's coefficient 1 and unassigned 0, and a thresholded run's
    # cluster -1, coefficient 0 and unassigned 1, are each one value over the
    # whole run, which the writer formats once.
    X = np.random.default_rng(3).uniform(0, 10, (30, 3))
    path = tmp_path / "x.csv"
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    out = tmp_path / "out"
    argv = ["--input", str(path), "--out", str(out), "--k", "3", "--mode", mode, "--seed", "2", *extra]
    assert main(argv) == 0
    spec = ModelSpec("l2", mode.replace("-", "_"), RegularizationParams(lambda_u=1e6 if extra else 0.0))
    result = fit(X, spec, SolverConfig(n_clusters=3, seed=2))
    labels, coeffs = result.membership.labels, result.membership.coefficients
    if extra:
        assert (labels == -1).all() and (coeffs == 0.0).all()
    dist = _row_costs(X, result.membership, result.centroids, spec)
    rows = "".join(
        "%d,%d,%.17g,%.17g,%d\r\n" % (m, labels[m], coeffs[m], dist[m], labels[m] < 0) for m in range(len(X))
    )
    expected = "row_index,cluster,coefficient,distance,unassigned\r\n" + rows
    assert (out / "assignments.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize(
    "column",
    [[0.0, -0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [1.5, 1.5]],
    ids=["zero-first", "minus-zero-first", "minus-zeros", "equal"],
)
def test_only_a_column_of_one_bit_pattern_is_formatted_once(tmp_path, column):
    # -0.0 == 0.0, but they print as "-0" and "0", so equal values are not
    # enough to format a column once.
    column = np.array(column)
    _write_csv(tmp_path / "t.csv", "i,x", ["%d", "%.17g"], np.arange(column.size), column)
    expected = "i,x\r\n" + "".join("%d,%.17g\r\n" % (i, x) for i, x in enumerate(column))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize(
    "shape, low, zero, share, args",
    [
        # Zero minimizers, computed by the sweep.
        ((60, 4), 1, 0.0, 0.3, ["--k", "3", "--seed", "9", "--mode", "c1-free", "--mu-u", "0.5", "--mu-v", "0.5"]),
        # Seeds, reseeds and kept rows, copied from data with -0.0 entries.
        ((12, 2), 0, -0.0, 0.4, ["--k", "5", "--seed", "0", "--lambda-v", "0.5"]),
    ],
    ids=["computed", "copied"],
)
def test_an_l1_run_on_sparse_grid_data_writes_no_negative_zero(tmp_path, shape, low, zero, share, args):
    rng = np.random.default_rng(0)
    X = rng.integers(low, 5, shape) * 0.5
    X[rng.random(shape) < share] = zero
    path = tmp_path / "x.csv"
    np.savetxt(path, X, fmt="%.17g", delimiter=",")
    out = tmp_path / "out"
    assert main(["--input", str(path), "--out", str(out), "--discrepancy", "l1", *args]) == 0
    for name in ("assignments.csv", "centroids.csv"):
        fields = (out / name).read_text().replace("\n", ",").split(",")
        assert "-0" not in fields, name


ROOT = Path(__file__).resolve().parents[1]


def _child(*args, cwd):
    """Run ``python *args`` in a child process that finds the package in src/.

    Its stdout is block-buffered, as on any pipe, so output the child does not
    flush before it ends is lost.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


@pytest.mark.parametrize("module", ["onmfcluster", "onmfcluster.cli"])
def test_help_exits_0(module, tmp_path):
    proc = _child("-W", "error", "-m", module, "--help", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: onmfcluster")


@pytest.mark.parametrize("module", ["onmfcluster", "onmfcluster.cli"])
def test_entry_point_writes_the_in_process_result_files(module, toy_csv, tmp_path):
    # Both runs write into the same directory, so run.json differs only in
    # its wall time. The child ends without interpreter teardown, after which
    # only the four result files are there: no staging directory is left.
    out = tmp_path / "out"
    for mode in (["--lambda-v", "0.5"], ["--mode", "c1-free", "--lambda-u", "1"], ["--mode", "normalized"]):
        argv = _toy_args(toy_csv, out, *mode)
        assert main(argv) == 0
        expected = {name: (out / name).read_bytes() for name in ("assignments.csv", "centroids.csv", "trace.csv")}
        report = json.loads((out / "run.json").read_text())
        proc = _child("-W", "error", "-m", module, *argv, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert sorted(p.name for p in out.iterdir()) == sorted([*expected, "run.json"])
        assert {name: (out / name).read_bytes() for name in expected} == expected
        child_report = json.loads((out / "run.json").read_text())
        del child_report["wall_time_seconds"], report["wall_time_seconds"]
        assert child_report == report


@pytest.mark.parametrize("module", ["onmfcluster", "onmfcluster.cli"])
def test_a_failed_command_line_run_exits_with_its_code_and_message(module, tmp_path):
    # stderr is a pipe here, as under the benchmark, so the message must be
    # flushed before the process ends.
    (tmp_path / "equal.csv").write_text("1,2\n1,2\n")
    for name, code, message in [("missing.csv", 2, "error: "), ("equal.csv", 3, "error: solver degeneracy: ")]:
        proc = _child("-m", module, "--input", name, "--out", "o", "--k", "2", cwd=tmp_path)
        assert proc.returncode == code
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_a_command_line_run_skips_teardown_after_flushing(toy_csv, tmp_path):
    # An exit handler stands for the interpreter's teardown: it does not run,
    # while output written before the run, with no line break, still arrives.
    code = "import atexit, runpy; atexit.register(print, 'teardown'); print('before', end=''); "
    code += "runpy.run_module('onmfcluster', run_name='__main__')"
    proc = _child("-c", code, *_toy_args(toy_csv, tmp_path / "out"), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before", "")
    assert (tmp_path / "out" / "run.json").exists()


def test_a_command_line_run_without_stdout_exits_0(toy_csv, tmp_path):
    # sys.stdout is None where descriptor 1 was closed at start-up.
    code = "import runpy, sys; sys.stdout = None; runpy.run_module('onmfcluster', run_name='__main__')"
    proc = _child("-c", code, *_toy_args(toy_csv, tmp_path / "out"), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out" / "run.json").exists()


def test_a_profiled_command_line_run_exits_normally(toy_csv, tmp_path):
    # A profiler writes its results at exit, so the run must not skip it.
    proc = _child("-m", "cProfile", "-m", "onmfcluster", *_toy_args(toy_csv, tmp_path / "out"), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout


def test_the_console_script_is_the_function_python_m_runs():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["onmfcluster"].partition(":")
    target = getattr(importlib.import_module(module), name)
    package_main = importlib.import_module("onmfcluster.__main__")
    calls = [node.func.id for node in ast.walk(ast.parse(inspect.getsource(package_main)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert [getattr(package_main, call) for call in calls] == [target]
