"""Self-tests of the benchmark: generator, span arithmetic, correctness gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import spans  # noqa: E402
from refloop import RefClock  # noqa: E402
from workloads import WORKLOADS, Cell, fits, generate, write_csv  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(name):
    wl = WORKLOADS[name]
    a, b, c = generate(wl, 7), generate(wl, 7), generate(wl, 8)
    assert a.shape == (wl.rows, wl.cols) and (a >= 0).all()
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_csv_bytes_are_identical_per_seed(tmp_path):
    X = generate(WORKLOADS["cli-tall"], 3)[:200]
    write_csv(tmp_path / "a.csv", X)
    write_csv(tmp_path / "b.csv", X.copy())
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fits_of_a_run():
    l2 = WORKLOADS["l2-blobs"]
    assert fits(l2, 5) == [(cell, 5) for cell in l2.cells]
    cli = WORKLOADS["cli-tall"]
    seeds = [s for _, s in fits(cli, 5)]
    assert len(set(seeds)) == cli.solver_seeds
    assert not set(seeds) & {s for _, s in fits(cli, 6)}


def test_ref_clock_divides_by_the_mean_reference_around_the_operation(monkeypatch):
    references = iter([0.1, 0.3, 0.5])
    monkeypatch.setattr(RefClock, "_reference", staticmethod(lambda: next(references)))
    clock = RefClock()
    result, wall, ratio = clock.time(lambda: "done")
    assert result == "done" and ratio == wall / 0.2
    _, wall, ratio = clock.time(lambda: None)
    assert ratio == wall / 0.4


def test_self_times_on_a_synthetic_nest():
    # fit [0, 10] > assign [1, 4] > (nothing); fit > update [5, 9] > reseed [6, 8]
    parents = [-1, 0, 0, 2]
    durations = [10.0, 3.0, 4.0, 2.0]
    assert spans.self_times(parents, durations) == [3.0, 3.0, 2.0, 2.0]


def test_layer_metrics_on_a_synthetic_nest():
    names = [
        "cli.run", "cli.load_csv", "solver.fit", "solver.init_centroids", "distance.coefficient_and_distance",
        "distance.assign", "centroid.update_centroids", "distance.coefficient_and_distance",
        "model.objective", "distance.coefficient_and_distance",
    ]
    parents = [-1, 0, 0, 2, 3, 2, 2, 6, 2, 0]
    starts = [0.0, 0.5, 2.0, 2.5, 2.6, 4.0, 6.0, 6.5, 8.0, 9.0]
    ends = [10.0, 1.5, 8.5, 3.5, 2.8, 5.0, 7.5, 7.0, 8.25, 9.5]
    m = spans.layer_metrics(names, parents, starts, ends)
    assert m["root.s"] == 10.0
    assert m["fit.s"] == 6.5
    assert m["cli.load_csv.s"] == 1.0
    assert m["cli.write.s"] == pytest.approx(10.0 - 1.0 - 6.5)
    assert m["solver.init_centroids.s"] == 1.0
    assert m["solver.init_centroids.distance_calls"] == 1
    assert (m["distance.assign.s"], m["distance.assign.calls"]) == (1.0, 1)
    assert (m["centroid.update.s"], m["centroid.update.calls"]) == (1.5, 1)
    assert m["centroid.reseed.s"] == 0.5
    assert (m["model.objective.s"], m["model.objective.calls"]) == (0.25, 1)
    # The writing-phase distance call is outside fit.
    assert m["fit.distance_s"] == pytest.approx(0.2 + 1.0 + 0.5)
    assert m["distance.self_s"] == pytest.approx(0.2 + 1.0 + 0.5 + 0.5)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(m["root.s"])
    assert m["solver.self_s"] == pytest.approx(6.5 - 1.0 - 1.0 - 1.5 - 0.25 + 1.0 - 0.2)


def test_tracer_keys_spans_by_layer_and_restores_the_package():
    import onmfcluster as onmf
    from onmfcluster import centroid, solver

    original = solver.assign
    X = generate(WORKLOADS["l2-blobs"], 1)[:60]
    spec = onmf.ModelSpec("l2", "binary")
    config = onmf.SolverConfig(n_clusters=3, max_iter=2, tol=0.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver.assign is not original
        onmf.fit(X, spec, config)
    finally:
        tracer.uninstall()
    assert solver.assign is original
    assert not hasattr(centroid.coefficient_and_distance, "__wrapped__")
    m = spans.layer_metrics(tracer.names, tracer.parents, tracer.starts, tracer.ends)
    assert tracer.names[0] == "solver.fit" and tracer.parents.count(-1) == 1
    assert m["distance.assign.calls"] == 60 * 2
    assert m["centroid.update.calls"] == 2 and m["model.objective.calls"] == 2
    assert m["root.s"] == pytest.approx(sum(m[f"{layer}.self_s"] for layer in spans.LAYERS))


def _lloyd_result(seed=0, k=3):
    X = generate(WORKLOADS["l2-blobs"], seed)[:300]
    init = X[:k].copy()
    steps = gate.oracle_history(X, init, 5, "l2")
    labels = [s[0] for s in steps]
    trace = np.array([s[2] for s in steps])
    return X, init, labels, steps[-1][1], trace


def test_gate_accepts_the_oracle_result():
    X, init, labels, V, trace = _lloyd_result()
    ones = np.ones(X.shape[0])
    assert gate.check_result(X, Cell("l2", "binary"), 3, labels[-1], ones, V, trace) == []
    assert gate.check_against_oracle(X, "l2", init, 5, labels, V, trace) == []


def test_gate_flags_shuffled_labels():
    X, init, labels, V, trace = _lloyd_result()
    shuffled = np.random.default_rng(0).permutation(labels[-1])
    ones = np.ones(X.shape[0])
    assert gate.check_result(X, Cell("l2", "binary"), 3, shuffled, ones, V, trace)
    assert gate.check_against_oracle(X, "l2", init, 5, labels[:-1] + [shuffled], V, trace)
    expected = {"labels": labels[-1], "coefficients": ones, "centroids": V, "trace": trace}
    assert gate.check_same(expected, shuffled, ones, V, trace)


@pytest.mark.parametrize(
    "corrupt",
    ["nan_objective", "rising_trace", "negative_coefficient", "label_out_of_range", "unnormalized"],
)
def test_gate_flags_corrupted_results(corrupt):
    X, _, labels, V, trace = _lloyd_result()
    cell = Cell("l2", "binary")
    coeffs = np.ones(X.shape[0])
    labels, V, trace = labels[-1].copy(), V.copy(), trace.copy()
    if corrupt == "nan_objective":
        trace[-1] = np.nan
    elif corrupt == "rising_trace":
        trace[-1] = trace[-2] * (1 + 1e-6)
    elif corrupt == "negative_coefficient":
        coeffs[0] = -1e-12
    elif corrupt == "label_out_of_range":
        labels[0] = 3
    else:
        cell = Cell("l2", "normalized")
        coeffs = np.einsum("ij,ij->i", X, V[labels]) / np.einsum("ij,ij->i", V[labels], V[labels])
    assert gate.check_result(X, cell, 3, labels, coeffs, V, trace)


def test_history_counters():
    labels = [np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), np.array([0, 1, 1, 1])]
    coeffs = [np.ones(4), np.ones(4), np.array([1.0, 0.0, 1.0, 1.0])]
    c = gate.history_counters(labels, coeffs, 3)
    assert c == {"empty_clusters": 3, "reassigned_rows": 1, "reassign_chances": 8, "zero_coeff_rows": 1}
