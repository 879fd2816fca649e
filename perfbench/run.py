"""Benchmark of the onmfcluster package: one run of one workload.

    python3 perfbench/run.py --workload l2-blobs --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``. The run generates its input from the seed, times the workload in
child processes started one at a time, checks every result with the gate in
``gate.py``, and prints a human-readable summary followed by one JSON line:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.

Child processes, started one at a time on one CPU:

* set-up: fresh interpreters that import the package (and, on the CLI
  workload, load the CSV), ``SETUP_REPEATS`` before and as many after the
  timed work; ``setup_s`` is the median wall time from spawn to exit.
* check: one ``worker.py check`` child runs each fit of the run once through
  the gate and the oracle and saves what the timed runs must reproduce.
* library workloads: ``LIBRARY_CHILDREN`` ``worker.py library`` children in
  turn run timed passes of the workload's fit calls, checking each result;
  each child's peak RSS comes from ``os.wait4``. With ``--trace 1`` a single
  child alternates untraced and traced passes.
* CLI workload: ``python -m onmfcluster`` runs until the window is used, each
  timed from spawn to exit and checked file by file. With ``--trace 1`` a
  single ``worker.py cli-trace`` child runs the CLI in-process instead.

Fit and CLI times are reported in units of the benchmark's reference loop
(``refloop.py``), run between the timed operations. Each operation's wall time
is divided by the mean of the reference times just before and after it; a
pass sums that over its operations (the workload's fit calls, or one CLI
run). ``pass_ref`` is the median over the run's passes, and ``iter_ref`` the
median of each pass's value divided by its iterations. The raw seconds are
printed beside them; ``setup_s`` stays in seconds.

BLAS libraries get one thread. Scratch files live in ``.bench_work/`` under
the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gate
from refloop import RefClock
from workloads import WORKLOADS, cli_args, generate, repeat_for, write_csv

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
EXPECTED = WORK / "expected.npz"
# Set-up is sampled in two batches, before and after the timed work, so its
# median spans the run rather than one moment of it.
SETUP_REPEATS = 5
# Untraced library passes are split over several children: a process's memory
# layout can make all of its passes about 5% slower than another's, and the
# median over the passes of several processes evens that out. (Each CLI run is
# a process of its own already.)
LIBRARY_CHILDREN = 3
RUN_BUDGET_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Child:
    """Runs children one at a time and reads each one's own peak RSS."""

    def __init__(self, budget_s: float):
        self.deadline = time.perf_counter() + budget_s
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: BLAS_THREADS for v in BLAS_VARS})

    def run(self, argv: list[str]) -> tuple[float, int, float, str]:
        """Returns (wall seconds from spawn to exit, exit code, peak RSS in MB, stdout)."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        out_path, err_path = WORK / "child.out", WORK / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        if proc.returncode != 0:
            sys.stdout.write(stdout)
            sys.stderr.write(err_path.read_text())
        # ru_maxrss is in KiB on Linux.
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout

    def worker(self, *args) -> tuple[dict, float]:
        _, code, rss, stdout = self.run([sys.executable, str(HERE / "worker.py"), *map(str, args)])
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            raise BenchError(f"worker {args[0]} exited with code {code} and {len(lines)} lines of output")
        return json.loads(lines[-1]), rss


def tail_note(values: list[float]) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"n={n}, p{p:g}={q:.6g}"
    return f"n={n}, no percentile has 10 samples beyond it"


def setup_samples(child: Child, wl, input_path: Path) -> list[float]:
    if wl.cli:
        code = "import sys; from onmfcluster.cli import load_csv; load_csv(sys.argv[1])"
        argv = [sys.executable, "-c", code, str(input_path)]
    else:
        argv = [sys.executable, "-c", "import onmfcluster"]
    samples = []
    for _ in range(SETUP_REPEATS):
        wall, code, _, _ = child.run(argv)
        if code != 0:
            raise BenchError(f"set-up child exited with code {code}")
        samples.append(wall)
    return samples


def merge_ops(res: dict, timed: dict) -> None:
    for key in ("attempted", "failed"):
        res[key] += timed[key]
    res["problems"] += timed["problems"]


def timed_samples(res: dict, walls: list[float], ratios: list[float], iterations: list[int]) -> dict:
    """End-to-end samples of the timed passes, one value per pass."""
    res["wall_s"] = walls
    return {
        "pass_ref": ratios,
        "iter_ref": [r / n for r, n in zip(ratios, iterations)],
        "objective_rel": [res["objective_rel"]],
    }


def library_run(child: Child, wl, args, input_path: Path, res: dict):
    if args.trace:
        timed, _ = child.worker("library", wl.name, args.seconds, 1, EXPECTED)
        merge_ops(res, timed)
        return res, layer_samples(res, timed)
    passes, rss_mb, iterations = [], [], 0
    for _ in range(LIBRARY_CHILDREN):
        timed, rss = child.worker("library", wl.name, args.seconds / LIBRARY_CHILDREN, 0, EXPECTED)
        merge_ops(res, timed)
        passes += timed["passes"]
        rss_mb.append(rss)
        iterations = timed["iterations"]
    if not passes:
        return res, {}
    walls, ratios = zip(*passes)
    samples = timed_samples(res, walls, ratios, [iterations] * len(ratios))
    samples["peak_rss_mb"] = rss_mb
    return res, samples


def cli_run(child: Child, wl, args, input_path: Path, res: dict):
    out_dir = WORK / "out"
    if args.trace:
        timed, _ = child.worker("cli-trace", wl.name, args.seconds, input_path, EXPECTED, out_dir)
        merge_ops(res, timed)
        return res, layer_samples(res, timed)
    X, expected, _ = gate.load_expected(EXPECTED)
    clock = RefClock()
    walls, ratios, iterations, rss_mb = [], [], [], []

    def one_run(exp: dict) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [sys.executable, "-m", "onmfcluster", *cli_args(wl, exp["solver_seed"], input_path, out_dir)]
        (wall, code, rss, _), _, ratio = clock.time(lambda: child.run(argv))
        problems = [f"exit code {code}"] if code != 0 else gate.check_cli_outputs(out_dir, wl.cells[0], wl.k, X, exp)
        res["attempted"] += 1
        if problems:
            res["failed"] += 1
            res["problems"].append(f"cli run with --seed {exp['solver_seed']}: " + "; ".join(problems))
            return
        walls.append(wall)
        ratios.append(ratio)
        iterations.append(exp["trace"].size)
        rss_mb.append(rss)

    # The runs take the solver seeds in turn.
    turn = itertools.cycle(expected)
    repeat_for(args.seconds, lambda: one_run(next(turn)))
    if not ratios:
        return res, {}
    samples = timed_samples(res, walls, ratios, iterations)
    samples["peak_rss_mb"] = rss_mb
    return res, samples


def layer_samples(res: dict, timed: dict) -> dict:
    per_layer = timed.get("per_layer", {})
    res["traced_passes"] = per_layer.pop("traced_passes", 0)
    return {k: [v] for k, v in per_layer.items()}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onmfcluster" / "__init__.py").is_file():
        print(f"error: no onmfcluster sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]

    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        X = generate(wl, args.seed)
        input_path = WORK / ("input.csv" if wl.cli else "input.npy")
        if wl.cli:
            write_csv(input_path, X)
        else:
            np.save(input_path, X)
        # One CPU for the parent and every child: the reference loop and the
        # operation it is compared with then share the same core's speed.
        os.sched_setaffinity(0, {cpu})
        child = Child(RUN_BUDGET_S)
        setup = [] if args.trace else setup_samples(child, wl, input_path)
        # The check child gates each fit of the run once and saves EXPECTED
        # for the timed children.
        res, _ = child.worker("check", wl.name, args.seed, input_path, EXPECTED)
        samples = {}
        if not res["failed"]:
            res, samples = (cli_run if wl.cli else library_run)(child, wl, args, input_path, res)
        if not args.trace:
            setup += setup_samples(child, wl, input_path)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not args.trace:
        samples["setup_s"] = setup
    missing = [m["name"] for m in wanted if not samples.get(m["name"])]
    for problem in res["problems"]:
        print(f"problem: {problem}")
    if missing:
        print(f"error: no successful operation to measure {missing}", file=sys.stderr)
        return 1

    why = {w["name"]: w["why"] for w in bench["workloads"]}
    meta = {
        "workload": wl.name,
        "why": why.get(wl.name, ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "blas_threads": {v: BLAS_THREADS for v in BLAS_VARS},
    }
    print("meta " + json.dumps(meta))
    metrics = {}
    for m in wanted:
        values = samples[m["name"]]
        value = statistics.median(values)
        note = f"median of {res['traced_passes']} traced passes" if args.trace else f"median; {tail_note(values)}"
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{wl.name} {m['name']} = {value:.6g} {m['unit']} ({note})")
    if res.get("wall_s"):
        walls = res["wall_s"]
        print(f"{wl.name} pass wall time: median {statistics.median(walls):.6g} s, fastest {min(walls):.6g} s "
              "(not a metric: the host's speed drifts between runs)")
    print(
        f"{wl.name} failed_share = {res['failed'] / max(res['attempted'], 1):.6g} "
        f"({res['failed']} of {res['attempted']} operations failed)"
    )
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
