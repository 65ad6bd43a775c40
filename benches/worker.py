"""One workload in one fresh process; ``run.py`` starts it and reads its last line.

    python3 benches/worker.py --workload NAME --seed N --seconds S --trace 0|1

The worker runs one untimed warm-up job (the first job in a process
is the slow one), then timed jobs in a closed loop (one caller, each job
waits for the previous one) until ``--seconds`` have passed and at least
``MIN_JOBS`` were timed.  With ``--trace 1`` each timed job is followed by a
traced pass over the same scenarios.  Peak RSS is read before the correctness
checks, which then run outside the timed region: every job's output is
compared with the other EFIM route on the same scenarios, and for a seed with
a committed reference (the default seed) also with that reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import leofim
from leofim import efim_lemma_route

import calibrate
import gate
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
MIN_JOBS = 3


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def attempt(workload, outputs: list) -> float | None:
    """Run one job; keep its output (or the exception) and return its seconds."""
    start = time.perf_counter()
    try:
        output = workload.job()
    except Exception as exc:  # a raising job is a failed job, not a crash
        outputs.append(exc)
        return None
    elapsed = time.perf_counter() - start
    outputs.append(output)
    return elapsed


def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"seed{seed}.json"


def expected_trials(name: str, seed: int) -> list[tuple[list[list[dict]], bool]]:
    """Independent trial evaluations a job's cells must match, each with
    whether ``is_pd`` must equal them exactly: the other EFIM route (within
    its noise band), plus the committed reference where the seed has one."""
    expected = [(workloads.evaluate_trials(name, seed, efim_lemma_route), False)]
    if reference_path(seed).is_file():
        with open(reference_path(seed), encoding="utf-8") as handle:
            expected.append((json.load(handle)[name], True))
    return expected


def gate_check(cells: list[dict], expected) -> list[str]:
    """Problems of one job's cells against every expectation."""
    return [p for trials, exact_pd in expected for p in gate.check(cells, trials, exact_pd)]


def gate_problems(name: str, seed: int, workload, outputs: list) -> list[list[str]]:
    """Problems of every job output against each independent expectation."""
    expected = expected_trials(name, seed)
    found = []
    for output in outputs:
        if isinstance(output, Exception):
            found.append([f"job raised {output!r}"])
            continue
        try:
            cells = workload.cells(output)
        except Exception as exc:  # unreadable output fails the gate
            found.append([f"output unreadable: {exc!r}"])
            continue
        found.append(gate_check(cells, expected))
    return found


def measure(args, workload, scratch: Path) -> dict:
    trials = [t for cell in workloads.plan(args.workload, args.seed) for t in cell]
    config_path = workloads.CONFIG_DIR / f"{args.workload}.json"
    outputs: list = []
    times: list[float] = []
    normalized: list[float] = []
    traced: list[dict] = []
    attempt(workload, outputs)  # warm-up
    kernel = calibrate.kernel_seconds()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(times) < MIN_JOBS:
        elapsed = attempt(workload, outputs)
        kernel_after = calibrate.kernel_seconds()
        if elapsed is not None:
            times.append(elapsed)
            normalized.append(calibrate.scaled(elapsed, kernel, kernel_after))
        elif len(outputs) > 100:  # every job raising: stop, the gate reports it
            break
        kernel = kernel_after
        if args.trace:
            traced.append(tracing.traced_pass(trials, config_path, scratch / "traced.out"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    per_job = gate_problems(args.workload, args.seed, workload, outputs)
    for result in traced:
        if result["route_gap"] > gate.ROUTE_GAP_MAX:
            result["problems"].append(f"route gap {result['route_gap']:.2e} > {gate.ROUTE_GAP_MAX:g}")
        per_job.append(result["problems"])
    summary = {
        "attempted": len(per_job),
        "failed": sum(bool(p) for p in per_job),
        "problems": [p for problems in per_job for p in problems][:20],
        "job_s": times,
        "job_normalized_s": normalized,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    if traced and times:
        bounds_on_path = workloads.load_raw(args.workload)["command"] != "identifiability"
        job_ms_per_efim = 1e3 * statistics.median(times) / len(trials)
        medians = tracing.median_metrics(
            [tracing.pass_metrics(r, job_ms_per_efim, len(trials), bounds_on_path) for r in traced]
        )
        summary["per_layer"] = {
            name: {"value": value, "unit": tracing.unit_of(name)} for name, value in medians.items()
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(leofim.__file__).resolve().parent != ROOT / "src" / "leofim":
        print(f"imported leofim from {leofim.__file__}, not from this checkout", file=sys.stderr)
        return 2
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        summary = measure(args, workload, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
