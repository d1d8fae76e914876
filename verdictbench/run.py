"""Verdict benchmark for frobex.

Run from the repository root:

    python3 verdictbench/run.py --workload qas-ladder --seed 1 --seconds 20 --trace 0
    python3 verdictbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process as a closed loop with one client, in
whole rounds that fit in --seconds, and every job is checked against
a known answer (see workloads.py).  With --trace 0 the end-to-end metrics
declared in BENCHMARK.json are reported; the program runs unmodified.
With --trace 1 each round runs twice, untraced and then traced, and the
per-layer metrics come from the traced copy (see tracer.py).  ``all`` runs
every workload in its own process and prints them together.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``failed`` counts every job that
did not pass its known-answer check, including jobs whose exception
escaped the program; ``correct`` is false when a job answered wrongly: a
verdict, report or exit code that contradicts the known answer, an
exception escaping a job on well-formed input, or two reports of one
configuration that differ.  An exception from a job on malformed input
fails that job without making the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer, FUNCTIONS, METHODS, ORACLES
from workloads import WORKLOADS, frobex_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".verdictbench"
SETUP_REPEATS = 9

# per-layer metrics that are not a plain span self time (_s) or call count (_n)
DERIVED = {
    "algcore.mul_indices_n": "oracle_calls",
    "cli.gram_matrix_n": "cli_gram_calls",
    "rees.checked_pairs_n": "checked_pairs",
    "grpdeg.group_element_n": "group_elements",
    "frobenius.products_per_gram_entry": "products_per_gram_entry",
}
OVERHEAD = "trace.overhead_ratio"
SPANS = {s for *_, s in FUNCTIONS} | {s for *_, s in METHODS} | ORACLES


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


class Stats:
    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def fail(self, problem: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.problems.append(problem)


def run_jobs(jobs, env, stats: Stats, tracer: Tracer | None = None) -> float:
    """Run jobs back to back; returns the seconds spent inside the program."""
    busy = 0.0
    for job in jobs:
        job.prepare(env)
        call = job.run if tracer is None else tracer.job_span(job.run)
        start = time.perf_counter()
        try:
            raw = call(env)
        except Exception as exc:  # fails the job; wrong unless the input was malformed
            elapsed = time.perf_counter() - start
            stats.fail(f"{job.kind}: {type(exc).__name__}: {exc}", wrong=not job.malformed)
        else:
            elapsed = time.perf_counter() - start
            problem = job.check(raw, env)
            if problem is not None:
                stats.fail(f"{job.kind}: {problem}", wrong=True)
        stats.attempted += 1
        stats.latencies.append(elapsed)
        busy += elapsed
    stats.busy += busy
    return busy


def check_determinism(sample, env, stats: Stats) -> None:
    """Rerun jobs that passed and compare their reports byte for byte."""
    for job in sample:
        first = job.report
        if first is None:
            continue
        job.prepare(env)
        try:
            same = job.check(job.run(env), env) is None and job.report == first
        except Exception:
            same = False
        if not same:
            stats.fail(f"{job.kind}: report differs on a second run of {job.argv}", wrong=True)


def measure_setup(args) -> float:
    """Median over fresh interpreters of import plus fixture build."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), args.workload, str(args.seed)]
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values)


def import_frobex() -> SimpleNamespace:
    if not (SRC / "frobex" / "__init__.py").is_file():
        raise BenchError(f"no frobex sources under {SRC}")
    env = frobex_env(SRC)
    if not Path(env.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"frobex was imported from {env.cli.__file__}, not from {SRC}")
    return env


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def end_to_end(stats: Stats, setup_s: float) -> dict:
    lat = stats.latencies
    return {
        "jobs_per_s": stats.attempted / stats.busy,
        "verdict_p50_s": statistics.median(lat),
        "verdict_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(layers: dict, names, overhead: float) -> dict:
    values = {}
    for name in names:
        if name == OVERHEAD:
            values[name] = overhead
        elif name in DERIVED:
            values[name] = layers[DERIVED[name]]
        elif name[-2:] in ("_s", "_n") and name[:-2] in SPANS:
            table = layers["self_s"] if name.endswith("_s") else layers["calls"]
            values[name] = table.get(name[:-2], 0.0)
        else:
            raise BenchError(f"BENCHMARK.json declares {name}, which the tracer does not measure")
    return values


def run_workload(args) -> dict:
    spec = load_spec()
    env = import_frobex()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = measure_setup(args) if not args.trace else None
    workload.build(env)
    OUT_DIR.mkdir(exist_ok=True)
    stats = Stats()
    tracer = Tracer() if args.trace else None
    untraced = traced = 0.0
    sample = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        env.out = os.path.join(tmp, "report.txt")
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            r, last = 0, 0.0
            # whole rounds only, and none that would end after --seconds
            while r == 0 or time.perf_counter() - start + last <= args.seconds:
                round_start = time.perf_counter()
                jobs = workload.round(r)
                if r == 0:
                    sample = workload.determinism_sample(jobs)
                untraced += run_jobs(jobs, env, stats)
                if tracer is not None:
                    tracer.install(workload.algebras())
                    try:
                        traced += run_jobs(workload.round(r), env, stats, tracer)
                    finally:
                        tracer.uninstall()
                last = time.perf_counter() - round_start
                r += 1
            check_determinism(sample, env, stats)
    if tracer is None:
        metrics = end_to_end(stats, setup_s)
        declared = spec["end_to_end"]
    else:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.txt.gz",
                     {"workload": args.workload, "seed": args.seed})
        layers = tracer.layer_metrics()
        metrics = per_layer(layers, [m["name"] for m in spec["per_layer"]], traced / untraced)
        declared = spec["per_layer"]
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")

    print(f"workload {args.workload}, seed {args.seed}: {stats.attempted} jobs in {r} rounds "
          f"(closed loop, 1 client), {stats.busy:.2f} s in the program")
    for m in declared:
        print(f"  {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {stats.failed / stats.attempted:.6g} ratio "
          f"({stats.failed} of {stats.attempted} jobs failed)")
    for problem in sorted(set(stats.problems))[:10]:
        print(f"  failure: {problem}", file=sys.stderr)
    return {
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {done.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"verdictbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
