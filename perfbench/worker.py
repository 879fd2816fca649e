"""Child process that does the work of one benchmark run.

Usage (started by run.py, never by hand):

    worker.py check     WORKLOAD SEED INPUT EXPECTED.npz
    worker.py library   WORKLOAD SECONDS TRACE EXPECTED.npz
    worker.py cli-trace WORKLOAD SECONDS INPUT.csv EXPECTED.npz OUT_DIR

``check`` runs each fit of the run once as ``fit_history``, puts it through
the gate (and, on binary cells, the oracle) and saves what every timed run
must reproduce, with counters read from the per-iteration memberships. It is
a process of its own, so the oracle's temporaries do not set the peak RSS of
the timed child.
``library`` runs timed passes of the library ``fit`` calls until SECONDS are
used, checking every result; with TRACE=1 it alternates untraced and traced
passes. ``cli-trace`` runs the CLI's ``main`` in-process over the checked
solver seeds in turn, alternating untraced and traced calls.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import statistics
import sys

import numpy as np

import gate
import spans
from refloop import RefClock
from workloads import WORKLOADS, cli_args, fits, repeat_for

import onmfcluster as onmf
from onmfcluster import cli


class Ops:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def result(self, **extra) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems, **extra}


def _model(wl, cell, solver_seed):
    spec = onmf.ModelSpec(cell.discrepancy, cell.mode, onmf.RegularizationParams(**cell.reg))
    config = onmf.SolverConfig(n_clusters=wl.k, max_iter=wl.max_iter, tol=0.0, seed=solver_seed, init=wl.init)
    return spec, config


def load_input(wl, input_path: str) -> np.ndarray:
    return np.loadtxt(input_path, delimiter=",", ndmin=2) if wl.cli else np.load(input_path)


def checked_history(X, wl, cell, solver_seed, ops: Ops):
    """Run fit_history once and put it through the gate.

    Returns the final state that later runs must reproduce and the counters
    read from the per-iteration memberships, or None when the run failed.
    """
    spec, config = _model(wl, cell, solver_seed)
    try:
        steps = onmf.fit_history(X, spec, config)
        labels = [s.membership.labels for s in steps]
        coeffs = [s.membership.coefficients for s in steps]
        trace = np.array([s.objective for s in steps])
        V = np.asarray(steps[-1].centroids)
        problems = gate.check_result(X, cell, wl.k, labels[-1], coeffs[-1], V, trace)
        if cell.mode == "binary" and not problems:
            init = onmf.init_centroids(X, config, spec)
            problems = gate.check_against_oracle(X, cell.discrepancy, init, wl.max_iter, labels, V, trace)
    except Exception as exc:  # any raise is a failed operation, not a crash
        problems = [f"raised {exc!r}"]
    if not ops.record(f"{cell.discrepancy}/{cell.mode} fit_history --seed {solver_seed}", problems):
        return None
    expected = {"labels": labels[-1], "coefficients": coeffs[-1], "centroids": V, "trace": trace}
    return expected, gate.history_counters(labels, coeffs, wl.k)


def check(name: str, seed: int, input_path: str, expected_path: str) -> dict:
    """Gate every fit of the run once; save what each timed run must reproduce."""
    wl = WORKLOADS[name]
    X = load_input(wl, input_path)
    ops = Ops()
    saved = {"X": X}
    counters, ratios = [], []
    zero = gate.zero_objective(X, wl.cells[0].discrepancy)
    for j, (cell, solver_seed) in enumerate(fits(wl, seed)):
        checked = checked_history(X, wl, cell, solver_seed, ops)
        if checked is None:
            return ops.result()
        expected, counted = checked
        saved.update({f"{key}_{j}": expected[key] for key in gate.EXPECTED_ARRAYS})
        saved[f"solver_seed_{j}"] = solver_seed
        counters.append(counted)
        ratios.append(expected["trace"][-1] / zero)
    np.savez(expected_path, counters=json.dumps(counters), **saved)
    return ops.result(objective_rel=float(np.exp(np.mean(np.log(ratios)))))


def _history_metrics(counters: list[dict], rows: int, k: int, iterations: int) -> dict:
    chances = sum(c["reassign_chances"] for c in counters)
    return {
        "centroid.empty_clusters": sum(c["empty_clusters"] for c in counters),
        "solver.iterations": iterations,
        "solver.reassigned_share": sum(c["reassigned_rows"] for c in counters) / chances if chances else 0.0,
        "model.zero_coeff_share": sum(c["zero_coeff_rows"] for c in counters) / (rows * len(counters)),
        "distance.pair_evals": iterations * rows * k,
    }


def _layer_pass(tracer: spans.Tracer, fixed: dict, csv_bytes: int = 0) -> dict:
    m = spans.layer_metrics(tracer.names, tracer.parents, tracer.starts, tracer.ends)
    m.update(fixed)
    m["distance.pairs_per_s"] = m["distance.pair_evals"] / m["distance.assign.s"] if m["distance.assign.s"] else 0.0
    m["distance.share"] = m["fit.distance_s"] / m["fit.s"] if m["fit.s"] else 0.0
    m["cli.load_csv.mb_per_s"] = csv_bytes / 1e6 / m["cli.load_csv.s"] if m["cli.load_csv.s"] else 0.0
    return m


def _per_layer(passes: list[dict], untraced: list[float], traced: list[float]) -> dict:
    """Median of each per-pass metric; the overhead compares pass times in reference units."""
    out = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    out["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    out["traced_passes"] = len(passes)
    return out


def library(name: str, seconds: float, trace: bool, expected_path: str) -> dict:
    wl = WORKLOADS[name]
    X, expected, counters = gate.load_expected(expected_path)
    runs = [(cell, *_model(wl, cell, exp["solver_seed"]), exp) for cell, exp in zip(wl.cells, expected)]
    iterations = sum(len(exp["trace"]) for exp in expected)
    fixed = _history_metrics(counters, wl.rows, wl.k, iterations)
    ops = Ops()
    tracer = spans.Tracer()
    clock = RefClock()
    passes = {False: [], True: []}
    layer_passes = []

    def one_fit(spec, config):
        try:
            return onmf.fit(X, spec, config)
        except Exception as exc:  # a raise fails this fit only
            return exc

    def one_pass(traced: bool) -> None:
        if traced:
            tracer.install()
        results, wall, ratio = [], 0.0, 0.0
        try:
            for _, spec, config, _ in runs:
                res, fit_wall, fit_ratio = clock.time(lambda: one_fit(spec, config))
                results.append(res)
                wall += fit_wall
                ratio += fit_ratio
        finally:
            tracer.uninstall()
        ok = True
        for (cell, _, _, exp), res in zip(runs, results):
            if isinstance(res, Exception):
                problems = [f"raised {res!r}"]
            else:
                M = res.membership
                problems = gate.check_result(
                    X, cell, wl.k, M.labels, M.coefficients, res.centroids, res.objective_trace
                ) or gate.check_same(exp, M.labels, M.coefficients, res.centroids, res.objective_trace)
            ok &= ops.record(f"{cell.discrepancy}/{cell.mode} fit", problems)
        if ok:
            passes[traced].append((wall, ratio))
            if traced:
                layer_passes.append(_layer_pass(tracer, fixed))
        tracer.clear()

    # With tracing on, each round runs an untraced and a traced pass, so both
    # see the same machine state.
    repeat_for(seconds, lambda: [one_pass(traced) for traced in ((False, True) if trace else (False,))])
    result = ops.result(passes=passes[False], iterations=iterations)
    if layer_passes and passes[False]:
        result["per_layer"] = _per_layer(layer_passes, [r for _, r in passes[False]], [r for _, r in passes[True]])
    return result


def cli_trace(name: str, seconds: float, input_path: str, expected_path: str, out_dir: str) -> dict:
    """Time the CLI's main in-process, alternating untraced and traced calls."""
    wl = WORKLOADS[name]
    X, expected, counters = gate.load_expected(expected_path)
    csv_bytes = os.path.getsize(input_path)
    ops = Ops()
    tracer = spans.Tracer()
    clock = RefClock()
    ratios = {False: [], True: []}
    layer_passes = []

    def one_main(argv: list[str]):
        try:
            return cli.main(argv)
        except Exception as exc:  # a raise fails this run only
            return exc

    def one_pass(j: int, traced: bool) -> None:
        exp = expected[j]
        argv = cli_args(wl, exp["solver_seed"], input_path, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            tracer.install()
        try:
            code, _, ratio = clock.time(lambda: one_main(argv))
        finally:
            tracer.uninstall()
        problems = [f"exit {code!r}"] if code != 0 else gate.check_cli_outputs(out_dir, wl.cells[0], wl.k, X, exp)
        if ops.record(f"cli run --seed {exp['solver_seed']}", problems):
            ratios[traced].append(ratio)
            if traced:
                fixed = _history_metrics([counters[j]], wl.rows, wl.k, len(exp["trace"]))
                layer_passes.append(_layer_pass(tracer, fixed, csv_bytes))
        tracer.clear()

    turn = itertools.cycle(range(len(expected)))

    def one_round() -> None:
        j = next(turn)
        one_pass(j, traced=False)
        one_pass(j, traced=True)

    repeat_for(seconds, one_round)
    result = ops.result()
    if layer_passes and ratios[False]:
        result["per_layer"] = _per_layer(layer_passes, ratios[False], ratios[True])
    return result


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    if mode == "check":
        result = check(name, int(argv[2]), argv[3], argv[4])
    elif mode == "library":
        result = library(name, float(argv[2]), argv[3] == "1", argv[4])
    elif mode == "cli-trace":
        result = cli_trace(name, float(argv[2]), argv[3], argv[4], argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
