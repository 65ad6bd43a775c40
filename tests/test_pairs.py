"""The paired-benchmark summary of ``tools/pairs.py``."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _run(tree, pair, job_s, correct=True, failed=0):
    return {
        "tree": tree, "workload": "w", "seed": 42, "pair": pair, "first": "parent",
        "result": {"correct": correct, "attempted": 10, "failed": failed,
                   "metrics": {"job_s": {"value": job_s, "unit": "s"}}},
    }


def test_summary_counts_failures_and_leaves_invalid_runs_out_of_the_pairs():
    """An errored or incorrect run is counted in ``health``, marks the workload
    invalid and enters neither the medians nor the pair wins; the pairs that
    ran stay visible next to the valid ones."""
    runs = [_run("parent", p, 2.0) for p in range(4)]
    runs += [_run("change", 0, 1.0), _run("change", 1, 1.0)]
    runs += [_run("change", 2, 0.5, correct=False, failed=3)]
    runs += [{**_run("change", 3, 0.0), "result": {"error": "exit 2: boom"}}]
    summary = pairs.summarize(runs, {"job_s": "lower"})["w"]

    assert summary["valid"] is False
    assert summary["health"]["parent"] == {
        "runs": 4, "errored": 0, "incorrect": 0, "failed": 0, "attempted": 40,
    }
    assert summary["health"]["change"] == {
        "runs": 4, "errored": 1, "incorrect": 1, "failed": 3, "attempted": 30,
    }
    job = summary["metrics"]["job_s"]
    assert (job["change_better_pairs"], job["pairs"], job["pairs_run"]) == (2, 2, 4)
    assert (job["parent"]["n"], job["change"]["n"]) == (4, 2)
    assert job["change"]["median"] == 1.0


def test_summary_of_clean_runs_is_valid():
    runs = [_run(tree, p, 1.0 if tree == "change" else 2.0)
            for p in range(3) for tree in ("parent", "change")]
    summary = pairs.summarize(runs, {"job_s": "lower"})["w"]
    assert summary["valid"] is True
    job = summary["metrics"]["job_s"]
    assert (job["change_better_pairs"], job["pairs"], job["pairs_run"]) == (3, 3, 3)
    assert job["median_change_rel"] == -0.5


def test_sigterm_removes_the_exported_trees(tmp_path):
    """Stopped with SIGTERM while a run blocks, the tool removes its
    temporary ``pairs-*`` directory before it exits."""
    ready = tmp_path / "ready"
    child = f"""
import importlib.util, pathlib, sys, time
spec = importlib.util.spec_from_file_location("pairs", {str(_spec.origin)!r})
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

def export(rev, dest):
    (dest / "benches").mkdir(parents=True)
    return rev

def run_once(tree, workload, seed):
    pathlib.Path({str(ready)!r}).touch()
    time.sleep(60)

pairs.export, pairs.run_once = export, run_once
sys.exit(pairs.main(["--parent", "a", "--change", "b", "--workloads", "w",
                     "--out", {str(tmp_path / "out.json")!r}]))
"""
    proc = subprocess.Popen(
        [sys.executable, "-c", child], env={**os.environ, "TMPDIR": str(tmp_path)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not ready.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ready.exists(), "the run step was never reached"
        assert list(tmp_path.glob("pairs-*")), "the trees were not exported"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp_path.glob("pairs-*")) == []
