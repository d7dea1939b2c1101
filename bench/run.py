"""robustpanel benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 bench/run.py --workload study_leverage --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from
`src/`, so nothing needs installing.  bench/README.md describes the
workloads, the metrics, the output checks and which layer metric should
move which end-to-end metric.

Every input is derived from --seed.  One operation (a study, a simulate
or a fit) is repeated until --seconds have passed.  With --trace 0 the
last stdout line carries the end-to-end metrics, measured untraced.
With --trace 1 the first half of the time runs untraced, the second
half replays the same operations with every layer traced (spans.py),
and the last line carries the per-layer metrics.  A failed output check
prints `"correct": false` and exits 1.
"""

import os

# Thread pools read these when numpy loads, so they are set before any
# import that could load it.  One BLAS thread keeps timings steady on a
# shared 2-vCPU machine; the stamp records it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import csv
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spans import LAYERS, PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
ESTIMATORS = ("ls", "huber", "tukey", "esl")
BETA = (2.4, -1.2)
SETUP_SAMPLES = 10


class Op(NamedTuple):
    """One timed operation: wall seconds of the program call, replications
    and panel cells it completed, and its attempted/failed units."""

    k: int
    wall: float
    reps: int
    cells: int
    attempted: int
    failed: int


def derive_seed(seed, *key):
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


class Workload:
    def __init__(self):
        self.errors = []

    def final_checks(self):
        pass


class StudyLeverage(Workload):
    """Acceptance criteria 2-3 regime: thousands of tiny fits, no I/O."""

    S = 40  # replications per operation, about 1.8 s on a 2-vCPU x86_64 VM
    N_TEST = 50
    # README table at S = 1000: ls 32.854, huber 29.708, tukey and esl 0.015.
    MSE_BANDS = {"ls": (20.0, 45.0), "huber": (20.0, 45.0),
                 "tukey": (0.005, 0.05), "esl": (0.005, 0.05)}

    def __init__(self, seed, work):
        super().__init__()
        from robustpanel import simulation

        self.sim = simulation
        self.seed = seed
        self.dgp = simulation.DgpConfig(n_units=120, n_periods=2, beta=BETA)
        self.scheme = simulation.ContaminationScheme(kind="concentrated_leverage", m=24)
        self.se_sum = dict.fromkeys(ESTIMATORS, 0.0)
        self.se_count = 0
        self.mses = {}

    def op(self, k):
        start = time.perf_counter()
        report = self.sim.rmse_prediction_study(
            self.dgp, self.scheme, ESTIMATORS, self.S, self.N_TEST, derive_seed(self.seed, 1, k))
        wall = time.perf_counter() - start
        mses = tuple(report.mse[name] for name in ESTIMATORS)
        if self.mses.setdefault(k, mses) != mses:
            self.errors.append("op %d: traced and untraced MSEs differ" % k)
        for name in ESTIMATORS:
            self.se_sum[name] += float(np.sum(report.se_samples[name]))
        done = self.S - report.n_failed
        self.se_count += done
        cells = done * self.dgp.n_units * self.dgp.n_periods * len(ESTIMATORS)
        return Op(k, wall, done, cells, self.S, report.n_failed)

    def final_checks(self):
        for name, (lo, hi) in self.MSE_BANDS.items():
            mse = self.se_sum[name] / self.se_count if self.se_count else float("nan")
            if not lo <= mse <= hi:
                self.errors.append("pooled MSE(%s) = %g outside [%g, %g]" % (name, mse, lo, hi))


class SimulateRef(Workload):
    """The `simulate` CLI on clean and heavy-tailed panels, NT 150 to 750."""

    S = 4  # replications per study cell, about 3.8 s per operation
    CONSISTENCY = {"n_values": [50, 250], "t_fixed": 3, "t_values": [12], "n_fixed": 50}
    PAIRS = [[30, 20], [200, 3]]
    DISTS = ("normal", "t5", "chisq4", "cauchy")
    HEADERS = {"consistency_curves.csv": ["axis", "n", "t", "estimator", "mse"],
               "se_samples.csv": ["error_dist", "n", "t", "estimator", "rep", "se"]}

    def __init__(self, seed, work):
        super().__init__()
        from robustpanel import cli

        self.cli = cli
        self.seed = seed
        self.work = work
        self.tables = {}  # master seed index -> tables of its first run
        self.pairs_checked = 0
        c = self.CONSISTENCY
        self.points = ([("n", n, c["t_fixed"]) for n in c["n_values"]]
                       + [("t", c["n_fixed"], t) for t in c["t_values"]])
        self.cells = [(d, n, t) for d in self.DISTS for n, t in self.PAIRS]
        self.reps = self.S * (len(self.points) + len(self.cells))
        self.se_rows = len(self.cells) * len(ESTIMATORS) * self.S
        self.cells_fitted = self.S * len(ESTIMATORS) * (
            sum(n * t for _, n, t in self.points) + sum(n * t for _, n, t in self.cells))

    def op(self, k):
        # Operations 2j and 2j+1 share a master seed, so each pair checks
        # that one config gives byte-identical tables.
        config = {"estimators": list(ESTIMATORS), "s": self.S,
                  "master_seed": derive_seed(self.seed, 2, k // 2),
                  "consistency_study": self.CONSISTENCY,
                  "error_dist_study": {"pairs": self.PAIRS}}
        out_dir = self.work / "tables"
        config_path = self.work / "config.json"
        shutil.rmtree(out_dir, ignore_errors=True)
        config_path.write_text(json.dumps(config))
        start = time.perf_counter()
        code = self.cli.main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
        wall = time.perf_counter() - start
        if code != 0:
            self.errors.append("op %d: exit %d" % (k, code))
            return Op(k, wall, 0, 0, self.se_rows, self.se_rows)

        tables = {name: (out_dir / name).read_bytes() if (out_dir / name).is_file() else b""
                  for name in self.HEADERS}
        rows = {name: list(csv.reader(data.decode().splitlines()))
                for name, data in tables.items()}
        for name, header in self.HEADERS.items():
            if rows[name][:1] != [header]:
                self.errors.append("op %d: %s is missing or has a wrong header" % (k, name))
                rows[name] = [header]
        curves = rows["consistency_curves.csv"][1:]
        want = {(a, str(n), str(t), e) for a, n, t in self.points for e in ESTIMATORS}
        if sorted(tuple(r[:4]) for r in curves) != sorted(want):
            self.errors.append("op %d: consistency_curves.csv rows differ from the config" % k)
        samples = rows["se_samples.csv"][1:]
        valid = {(d, str(n), str(t), e, str(s)) for d, n, t in self.cells
                 for e in ESTIMATORS for s in range(self.S)}
        keys = [tuple(r[:5]) for r in samples]
        if not set(keys) <= valid or len(set(keys)) != len(keys):
            self.errors.append("op %d: se_samples.csv has rows outside the config" % k)
        if not all(0.0 <= float(r[-1]) < float("inf") for r in curves + samples):
            self.errors.append("op %d: an MSE or squared error is not finite" % k)

        first = self.tables.setdefault(k // 2, tables)
        if first is not tables:
            self.pairs_checked += 1
            if first != tables:
                self.errors.append("op %d: tables differ from an earlier run of its config" % k)
        missing = max(self.se_rows - len(keys), 0)
        done = self.reps - missing // len(ESTIMATORS)
        return Op(k, wall, done, self.cells_fitted, self.se_rows, missing)

    def final_checks(self):
        if not self.pairs_checked:
            self.errors.append("no config ran twice; determinism unchecked")


class FitCsv(Workload):
    """One analyst-sized esl fit from CSV; grid tuning is bypassed."""

    # 25,000 cells, so that a 30 s run holds about ten operations.  At
    # 50,000 cells it held four, and ten runs spread 22% around their median.
    N, T = 5_000, 5
    M = 1_250  # 5% of cells, random_vertical
    BETA_TOL = 0.05  # at least 6 standard errors of either slope at this size

    def __init__(self, seed, work):
        super().__init__()
        from robustpanel import cli, simulation
        from robustpanel.io import write_panel_csv

        self.cli = cli
        self.work = work
        self.csv = work / "panel.csv"
        dgp = simulation.DgpConfig(n_units=self.N, n_periods=self.T, beta=BETA,
                                   seed=derive_seed(seed, 3, 0))
        scheme = simulation.ContaminationScheme(kind="random_vertical", m=self.M,
                                                seed=derive_seed(seed, 3, 1))
        write_panel_csv(simulation.contaminate(simulation.gen_panel(dgp), scheme), self.csv)
        self.first_report = None

    def op(self, k):
        out = self.work / "report.json"
        weights = self.work / "report_weights.csv"
        for path in (out, weights):
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        code = self.cli.main(["fit", "--input", str(self.csv), "--estimator", "esl",
                              "--out", str(out)])
        wall = time.perf_counter() - start
        if code != 0:
            self.errors.append("op %d: exit %d" % (k, code))
            return Op(k, wall, 0, 0, 1, 1)

        text = out.read_text()
        beta = json.loads(text)["beta"]
        if len(beta) != len(BETA) or any(abs(b - t) > self.BETA_TOL for b, t in zip(beta, BETA)):
            self.errors.append("op %d: esl slopes %r not within %g of %r"
                               % (k, beta, self.BETA_TOL, BETA))
        with open(weights) as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != self.N * self.T:
            self.errors.append("op %d: weights CSV has %d rows, want %d"
                               % (k, n_rows, self.N * self.T))
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            self.errors.append("op %d: report differs from the first on the same CSV" % k)
        return Op(k, wall, 1, self.N * self.T, 1, 0)


WORKLOADS = {"study_leverage": StudyLeverage, "simulate_ref": SimulateRef, "fit_csv": FitCsv}


def setup_samples(count):
    """Seconds from spawning a fresh interpreter to robustpanel.cli imported."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # installed packages have bytecode caches
    code = "import robustpanel.cli, time; print(repr(time.monotonic()))"
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout) - start)
    return samples


def run_ops(workload, ks, seconds, min_ops):
    """Run workload.op(k) over ks until `seconds` have passed, at least min_ops times."""
    ops = []
    deadline = time.perf_counter() + seconds
    for k in ks:
        if len(ops) >= min_ops and time.perf_counter() >= deadline:
            break
        ops.append(workload.op(k))
    return ops


def stamp(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def traced_metrics(workload, seconds, work):
    """Untraced operations, then the same ones traced; per-layer metrics."""
    plain = run_ops(workload, itertools.count(), seconds / 2, 1)
    tracer = Tracer()
    with tracer.installed():
        traced = run_ops(workload, [op.k for op in plain], seconds / 2, 1)
    tracer.write(work / "spans.csv")
    tracer.probe_memory()
    values = tracer.metrics(len(traced))
    traced_wall = statistics.fmean(op.wall for op in traced)
    untraced_wall = statistics.fmean(op.wall for op in plain[:len(traced)])
    values.update({"bench.traced_ops": len(traced), "bench.traced_wall_s": traced_wall,
                   "bench.untraced_wall_s": untraced_wall,
                   "bench.trace_overhead_s": traced_wall - untraced_wall})
    self_sum = sum(values[layer + ".self_s"] for layer in LAYERS)
    if abs(self_sum - traced_wall) > 0.01 * traced_wall:
        workload.errors.append("layer self times sum to %g s, traced wall is %g s"
                               % (self_sum, traced_wall))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return plain + traced, metrics


def untraced_metrics(workload, seconds):
    """End-to-end metrics.  Set-up is sampled before and after the
    operations, so that it spans the run rather than one moment of it."""
    samples = setup_samples(SETUP_SAMPLES // 2 + 1)[1:]  # the first writes bytecode caches
    ops = run_ops(workload, itertools.count(), seconds, 2)
    samples += setup_samples(SETUP_SAMPLES - len(samples))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return ops, {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "wall_s": {"value": statistics.median(op.wall for op in ops), "unit": "s"},
        "reps_per_s": {"value": statistics.median(op.reps / op.wall for op in ops), "unit": "1/s"},
        "cells_per_s": {"value": statistics.median(op.cells / op.wall for op in ops),
                        "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "robustpanel" / "cli.py").is_file():
        print("error: %s has no robustpanel sources; run from a repository checkout"
              % (SRC,), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    if args.trace:
        ops, metrics = traced_metrics(workload, args.seconds, work)
    else:
        ops, metrics = untraced_metrics(workload, args.seconds)
    workload.final_checks()
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)

    print("stamp: " + json.dumps(stamp(args.seed)))
    print("workload %s: %d operations, walls %s s"
          % (args.workload, len(ops), " ".join("%.3f" % op.wall for op in ops)))
    for name, metric in metrics.items():
        print("  %-44s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-44s %14.6g (%d of %d)" % ("failed_share", failed / attempted, failed, attempted))
    for error in workload.errors:
        print("check failed: " + error)
    print(json.dumps({"correct": not workload.errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if workload.errors else 0


if __name__ == "__main__":
    sys.exit(main())
