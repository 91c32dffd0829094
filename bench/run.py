"""Benchmark of the thzest Monte-Carlo sweep.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-snr --seed 1 --seconds 40 --trace 0

Each workload runs ``thzest sweep`` in-process through ``thzest.cli.main``
with a config file generated under ``.bench_out/`` and the seed passed as
``--seed``.  A run is one cycle of sub-sweeps whose seeds derive from
``--seed``, repeated while another cycle fits in ``--seconds``.  Every sweep
is checked (exit code, row count, finite NMSE, identical bytes on a repeat),
a results fingerprint is printed, and the last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count sweeps,
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced cycle (``--trace 1``).  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
ESTIMATORS = ("sbce", "ls", "omp", "mmse")

DESK = {
    "n_antennas": 64, "carrier_freq_hz": 300e9, "bandwidth_hz": 30e9,
    "n_subcarriers": 8, "n_pilots": 16, "grid_size": 512, "n_paths": 1,
    "n_users": 1, "trials": 6, "sweep": "snr", "sweep_values": "0,10,20,30",
    "snr_db": 20.0, "estimators": ",".join(ESTIMATORS), "scenario": "far",
}
# The `paper` preset's array, grid and pilots at one 20 dB point, with the
# subcarrier and user counts cut so that one sub-sweep takes seconds.
PAPER_POINT = dict(DESK, n_antennas=256, n_pilots=32, grid_size=2048,
                   n_subcarriers=8, n_users=2, trials=1, sweep="none")


@dataclass(frozen=True)
class Workload:
    config: dict
    sub_sweeps: int          # sub-sweeps in one cycle, each with its own seed
    setup_reps: int          # set-up repetitions behind the setup_s median,
                             # spread over the first cycle
    parallel: bool = False   # threads = nproc, gated against a serial sweep


WORKLOADS = {
    "desk-snr": Workload(DESK, sub_sweeps=4, setup_reps=8),
    "paper-point": Workload(PAPER_POINT, sub_sweeps=6, setup_reps=4),
    # Not in BENCHMARK.json: too erratic to bound (see NOTES.md).
    "desk-parallel": Workload(DESK, sub_sweeps=2, setup_reps=4, parallel=True),
}
# --tiny shrinks every workload for the smoke test.
TINY = {"n_subcarriers": 2, "trials": 2, "sweep_values": "10,30", "n_users": 1}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad arguments)."""


def import_thzest():
    """Import thzest from this checkout's src/, never from anywhere else."""
    if not (SRC / "thzest" / "__init__.py").is_file():
        raise SetupError(f"no thzest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thzest
    import thzest.cli

    if Path(thzest.__file__).resolve().parent != SRC / "thzest":
        raise SetupError(f"imported thzest from {thzest.__file__}")
    return thzest


# -- one sweep -----------------------------------------------------------------

@dataclass
class Sweep:
    seed: int
    threads: int
    wall_s: float
    cpu_s: float
    trial_users: int
    csv: bytes
    errors: list = field(default_factory=list)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def write_config(config: dict, threads: int, path: Path) -> None:
    lines = [f"{key} = {value}" for key, value in config.items()]
    lines.append(f"threads = {threads}")
    path.write_text("\n".join(lines) + "\n")


def run_sweep(thzest, config: dict, seed: int, threads: int,
              work: Path) -> Sweep:
    """One `thzest sweep` through the CLI entry point, timed and checked."""
    cfg_path = work / f"sweep-{seed}-t{threads}.cfg"
    csv_path = work / f"sweep-{seed}-t{threads}.csv"
    write_config(config, threads, cfg_path)
    if csv_path.exists():
        csv_path.unlink()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = thzest.cli.main(["sweep", "--config", str(cfg_path),
                            "--seed", str(seed), "--out", str(csv_path)])
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    data = csv_path.read_bytes() if csv_path.exists() else b""
    n_points = 1 if config["sweep"] == "none" else \
        len(str(config["sweep_values"]).split(","))
    trial_users = n_points * config["trials"] * config["n_users"]
    sweep = Sweep(seed, threads, wall, cpu, trial_users, data)
    if code != 0:
        sweep.errors.append(f"exit code {code}")
    sweep.errors += check_csv(data, config, n_points)
    return sweep


def parse_csv(data: bytes) -> list[dict]:
    text = data.decode()
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


def check_csv(data: bytes, config: dict, n_points: int) -> list[str]:
    """Structural and numeric checks on one sweep's CSV."""
    try:
        rows = parse_csv(data)
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"unreadable CSV: {exc}"]
    errors = []
    n_est = len(config["estimators"].split(","))
    if len(rows) != n_points * n_est:
        errors.append(f"{len(rows)} CSV rows, expected {n_points * n_est}")
    runs = config["trials"] * config["n_users"]
    for row in rows:
        try:
            nmse = float(row["nmse"])
            trials = int(row["trials"])
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"malformed CSV row {row}: {exc}")
            continue
        if not math.isfinite(nmse):
            errors.append(f"non-finite NMSE in row {row}")
        if trials != runs:
            errors.append(f"trials column {trials}, expected {runs}")
    return errors


# -- set-up --------------------------------------------------------------------

def time_setup(thzest, config: dict, seed: int) -> float:
    """Wall time to build one sweep point's shared state, as the harness
    does: the dictionary and the oracle covariance of every subcarrier."""
    import numpy as np

    arrays, baselines = thzest.arrays, thzest.baselines
    # A closed-form oracle covariance (ROADMAP) would drop the seed stream.
    takes_seed = "rng_seed" in inspect.signature(
        baselines.oracle_covariance).parameters
    t0 = time.perf_counter()
    array_cfg = arrays.ArrayConfig.half_wavelength(config["n_antennas"],
                                                   config["carrier_freq_hz"])
    grid = arrays.SubcarrierGrid.build(config["n_subcarriers"],
                                       config["bandwidth_hz"],
                                       config["carrier_freq_hz"])
    arrays.build_dictionary(array_cfg, config["grid_size"])
    for m in range(config["n_subcarriers"]):
        kwargs = ({"rng_seed": np.random.default_rng([seed, 777, 0, m])}
                  if takes_seed else {})
        baselines.oracle_covariance(array_cfg, float(grid.frequencies[m]),
                                    **kwargs)
    return time.perf_counter() - t0


# -- results -------------------------------------------------------------------

def accuracy(sweeps: list[Sweep]) -> dict[str, float]:
    """Pooled NMSE, RMSE and failure ratio over every row of the sweeps."""
    nmse_sum = {name: 0.0 for name in ESTIMATORS}
    ok = {name: 0 for name in ESTIMATORS}
    dir_sq = split_sq = 0.0
    attempted = failed = 0
    for sweep in sweeps:
        for row in parse_csv(sweep.csv):
            name = row["estimator"]
            runs, fails = int(row["trials"]), int(row["failures"])
            attempted += runs
            failed += fails
            good = runs - fails
            if good and name in nmse_sum:
                nmse_sum[name] += good * float(row["nmse"])
                ok[name] += good
            if name == "sbce" and good and row["rmse_dir_deg"]:
                dir_sq += good * float(row["rmse_dir_deg"]) ** 2
                split_sq += good * float(row["rmse_split_deg"]) ** 2
    out = {}
    for name in ESTIMATORS:
        mean = nmse_sum[name] / ok[name] if ok[name] else float("nan")
        out[f"nmse.{name}"] = mean
        out[f"nmse_db.{name}"] = 10.0 * math.log10(mean) if mean > 0 else float("nan")
    out["rmse_dir_deg.sbce"] = math.sqrt(dir_sq / ok["sbce"]) if ok["sbce"] else float("nan")
    out["rmse_split_deg.sbce"] = math.sqrt(split_sq / ok["sbce"]) if ok["sbce"] else float("nan")
    out["failure_ratio"] = failed / attempted if attempted else 1.0
    return out


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
    }


def fingerprint(sweeps: list[Sweep], threads: int) -> dict:
    digest = hashlib.sha256()
    for sweep in sweeps:
        digest.update(sweep.csv)
    return {"csv_sha256": digest.hexdigest(),
            "sweep_seeds": [s.seed for s in sweeps],
            "accuracy": accuracy(sweeps),
            "env": environment(threads)}


def trials_per_s(sweeps: list[Sweep]) -> float:
    return statistics.median(s.trial_users / s.wall_s for s in sweeps)


# -- runs ----------------------------------------------------------------------

class Run:
    """Sweeps of one benchmark run and the gate failures they raised."""

    def __init__(self, thzest, workload: Workload, config: dict, seed: int,
                 work: Path):
        self.thzest = thzest
        self.workload = workload
        self.config = config
        self.work = work
        self.seeds = [seed * workload.sub_sweeps + r
                      for r in range(workload.sub_sweeps)]
        self.threads = len(os.sched_getaffinity(0)) if workload.parallel else 1
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def gate(self, sweep: Sweep, reference: Sweep | None, what: str) -> Sweep:
        """Count the sweep; fail it on its own errors or a byte mismatch."""
        self.attempted += 1
        errors = list(sweep.errors)
        if reference is not None and sweep.csv != reference.csv:
            errors.append(f"CSV differs from the {what} CSV")
        if errors:
            self.failed += 1
            self.errors += [f"seed {sweep.seed} threads {sweep.threads}: {e}"
                            for e in errors]
        return sweep

    def sweep(self, k: int, reference: Sweep | None = None,
              what: str = "") -> Sweep:
        """Sub-sweep k, checked against the reference sweep if one is given.

        Without a reference, a parallel workload first runs the same
        sub-sweep serially and is checked against that."""
        seed = self.seeds[k]
        if reference is None and self.workload.parallel:
            reference = self.gate(run_sweep(self.thzest, self.config, seed, 1,
                                            self.work), None, "")
            what = "serial"
        return self.gate(run_sweep(self.thzest, self.config, seed,
                                   self.threads, self.work), reference, what)

    def cycle(self, references: list[Sweep] | None = None,
              what: str = "") -> list[Sweep]:
        return [self.sweep(k, references[k] if references else None, what)
                for k in range(len(self.seeds))]


def measure(run: Run, seconds: float, seed: int) -> tuple[dict, dict]:
    """--trace 0: a cycle with set-up repetitions spread over it, then more
    cycles while another one fits in `seconds`."""
    start = time.perf_counter()
    n_subs, n_setups = run.workload.sub_sweeps, run.workload.setup_reps
    setup_before = [i * n_subs // n_setups for i in range(n_setups)]
    setups, first = [], []
    for k in range(n_subs):
        for _ in range(setup_before.count(k)):
            setups.append(time_setup(run.thzest, run.config, seed))
        first.append(run.sweep(k))
    sweeps = list(first)
    last = sum(s.wall_s for s in first)
    while time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        sweeps += run.cycle(first, "first-cycle")
        last = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "trials_per_s": trials_per_s(sweeps),
        "setup_s": statistics.median(setups),
        "cpu_s_per_trial": statistics.median(
            s.cpu_s / s.trial_users for s in sweeps),
        "peak_rss_mb": max(own, kids) / 1024.0,
        "success_ratio": 1.0 - accuracy(first)["failure_ratio"],
    }
    return values, fingerprint(first, run.threads)


def measure_traced(run: Run) -> tuple[dict, dict]:
    """--trace 1: an untraced cycle, then a traced cycle on the same seeds."""
    from tracer import Tracer, layer_metrics, tail_percentile

    plain = run.cycle()
    tracer = Tracer(run.work)
    tracer.install()
    try:
        traced = run.cycle(plain, "untraced")
    finally:
        tracer.uninstall()
    spans, counts = tracer.collect()
    tracer.write(run.work / "spans.jsonl", spans, counts)
    if tracer.missing:
        print(f"warning: not found, so not traced: {tracer.missing}",
              file=sys.stderr)

    values = layer_metrics(spans, counts, run.threads)
    values["trace.overhead_trials_per_s"] = (trials_per_s(traced)
                                             - trials_per_s(plain))
    acc = accuracy(plain)
    for key in ("nmse_db.sbce", "nmse_db.ls", "nmse_db.omp", "nmse_db.mmse",
                "rmse_dir_deg.sbce", "rmse_split_deg.sbce", "failure_ratio"):
        values[key] = acc[key]
    sbce_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "sbce.run_sbce"]
    pct, _ = tail_percentile(sbce_ms)
    print(json.dumps({"trace": {"spans": len(spans),
                                "sbce.run_sbce.ptail_pct": pct,
                                "file": str(run.work / "spans.jsonl")}}))
    return values, fingerprint(plain, run.threads)


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run must print, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    if name not in WORKLOADS:
        raise SetupError(f"unknown workload {name!r}")
    if seed < 0 or seconds <= 0:
        raise SetupError("--seed must be >= 0 and --seconds > 0")
    thzest = import_thzest()
    workload = WORKLOADS[name]
    config = dict(workload.config, **TINY) if tiny else dict(workload.config)
    if tiny:
        workload = Workload(config, 1, 1, workload.parallel)
    if config["sweep"] == "none":
        config.pop("sweep_values")
    work = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    units = metric_units(trace)
    run = Run(thzest, workload, config, seed, work)
    if trace:
        values, finger = measure_traced(run)
    else:
        values, finger = measure(run, seconds, seed)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    print(json.dumps({"fingerprint": dict(finger, workload=name, seed=seed)}))
    for error in run.errors:
        print(f"gate failed: {error}", file=sys.stderr)
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test only)")
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tiny)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
