"""Unit tests for CSV ingestion and the command-line runner."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from onmfcluster.cli import (
    CsvFormatError,
    NegativeEntryError,
    RunManifest,
    load_csv,
    main,
    run,
)
from onmfcluster.model import Membership, ModelSpec, RegularizationParams, row_costs
from onmfcluster.solver import SolverConfig

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
        assert report["format_version"] == 1
        # Every effective parameter is echoed, including defaults.
        for key in (
            "input", "out", "k", "discrepancy", "mode", "lambda_u", "lambda_v",
            "mu_u", "mu_v", "seed", "max_iter", "tol", "init",
            "empty_cluster_policy", "zero_row_policy", "iterations",
            "wall_time_seconds",
        ):
            assert key in report
        assert report["max_iter"] == 300 and report["tol"] == 1e-9

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
        manifest = RunManifest(
            input_path=str(toy_csv),
            output_dir=str(out),
            spec=ModelSpec("l2", "c1_free"),
            config=SolverConfig(n_clusters=2, seed=3),
        )
        assert run(manifest) == 0
        from onmfcluster import fit

        expected = fit(load_csv(toy_csv), manifest.spec, manifest.config).centroids
        reloaded = load_csv(out / "centroids.csv")
        assert_allclose(reloaded, expected, atol=1e-12, rtol=0)
        assert_array_equal(reloaded, expected)  # 17 digits round-trip exactly

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

    def test_duplicate_rows_exit_3(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,1\n1,1\n1,1\n")
        assert main(["--input", str(path), "--out", str(tmp_path / "o"), "--k", "2"]) == 3

    def test_invalid_mode_penalty_combination_exits_2(self, toy_csv, tmp_path):
        code = main(_toy_args(toy_csv, tmp_path / "o", "--lambda-u", "1.0"))
        assert code == 2


def _distance_cases():
    penalized = ["--lambda-v", "0.3", "--mu-v", "0.2"]
    for discrepancy in ("l1", "l2"):
        for mode in ("c1-free", "normalized", "binary"):
            yield discrepancy, mode, ["--max-iter", "1", *penalized]
            yield discrepancy, mode, penalized
        membership_penalty = ["--lambda-u", "4", "--mu-u", "0.5", *penalized]
        for extra in (["--max-iter", "1"], [], ["--zero-row", "exclude"]):
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

    assert_array_equal(dist, row_costs(X, membership, V, spec))
    penalty_v = spec.reg.lambda_v * np.abs(V).sum() + spec.reg.mu_v * (V * V).sum()
    assert_allclose(dist.sum() + penalty_v, trace[-1], rtol=1e-12, atol=0)
    zero = membership.coefficients == 0.0
    full = (X * X).sum(axis=1) if discrepancy == "l2" else X.sum(axis=1)
    assert_allclose(dist[zero], full[zero], rtol=1e-15, atol=0)
    assert_array_equal(table[:, 4], zero)
    if "--lambda-u" in extra:
        assert zero[-2:].all()
