"""leofim benchmark entry point.

    python3 benches/run.py --workload counts_grid|cli_sweep|large_scene \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; it measures ``src/leofim`` of that
checkout.  Workloads, metrics and predictions are described in
``benches/README.md`` and ``benches/plan.json``.

With ``--trace 0`` it starts ``SETUP_PROBES`` fresh processes
(``setup_probe.py``) that only import leofim and build the workload's inputs
(their median is ``setup_s``), then one fresh worker process that runs the
workload's jobs for ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``) and checks every output (``job_s``, ``peak_rss_mb``).  With ``--trace 1`` the
worker also runs a traced pass after each job and the per-layer metrics are
reported instead.  Every child runs with the BLAS thread count pinned to
``BLAS_THREADS``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every job
passed the correctness gate, 1 when one did not, and 2 when the checkout has
no leofim sources or a worker did not report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("counts_grid", "cli_sweep", "large_scene")
DEFAULT_SEED = 42
RUN_SECONDS = 20  # run_seconds in BENCHMARK.json
BLAS_THREADS = 1
SETUP_PROBES = 15
RUN_LIMIT_S = 170  # the whole run, children included, ends within this


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]),
        PYTHONHASHSEED="0",
    )
    return env


def run_child(script: str, args: list[str], deadline: float) -> dict:
    """Run ``script`` with ``args``; return the JSON of its last stdout line.

    A child still running at ``deadline`` (``time.monotonic()``) is killed.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, deadline: float) -> list[float]:
    """Fresh-process time from before interpreter start to ready-to-run,
    normalized by the calibration kernel run just before and after each probe.

    One extra probe runs first and is discarded: it compiles the bytecode
    cache, which users also have after their first run.
    """
    samples = []
    kernel = calibrate.kernel_seconds()
    for _ in range(SETUP_PROBES + 1):
        started = time.monotonic()
        ready = run_child("setup_probe.py", [workload, str(seed)], deadline)["ready"]
        kernel_after = calibrate.kernel_seconds()
        samples.append(calibrate.scaled(ready - started, kernel, kernel_after))
        kernel = kernel_after
    return samples[1:]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leofim" / "__init__.py").is_file():
        print(f"no leofim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, deadline)
        worker = run_child(
            "worker.py",
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 2

    times = worker["job_s"]
    if args.trace:
        metrics = worker.get("per_layer", {})
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        if times:
            metrics["job_s"] = {"value": statistics.median(worker["job_normalized_s"]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": worker["peak_rss_mb"], "unit": "MB"}

    env = worker["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    if times:
        quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"  timed jobs {len(times)}, raw wall time: min {min(times):.4g} s, quartiles "
              + " / ".join(f"{q:.4g}" for q in quartiles) + " s")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
    if "trace.efim_ms" in metrics:
        total = metrics["trace.efim_ms"]["value"]
        print(f"  per-EFIM self time (total {total:.4g} ms on the job's path; links is not in it)")
        for name, metric in metrics.items():
            if name.endswith(".share"):
                layer, share = name.removesuffix(".share"), metric["value"]
                print(f"    {layer:<14} {share * total:10.4g} ms  {100 * share:6.2f} %")
    print(f"  {'failed_frac':<26} {worker['failed'] / max(worker['attempted'], 1):.6g} ratio "
          f"({worker['failed']} of {worker['attempted']} jobs)")
    for problem in worker["problems"]:
        print(f"  gate: {problem}")
    correct = worker["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(worker["attempted"], 1),
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
