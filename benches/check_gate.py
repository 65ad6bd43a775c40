"""Self-test of the correctness gate.

    PYTHONPATH=src python3 benches/check_gate.py

Unmodified code must pass the gate on the default seed and on a second seed
(seed 7 has near-threshold trials on counts_grid and a non-PD trial on
cli_sweep).  Corrupted results on the default seed must be rejected: a
flipped ``is_pd`` on every workload; one counts_grid cell turned positive
definite with a matching spectrum (minimum eigenvalue 10x the threshold),
which only the committed reference can catch; and one bound scaled by
(1 + 1e-6) on the well-conditioned large_scene geometry.  Prints one
PASS/FAIL line per expectation, and how many default-seed counts_grid trials
lie within the other route's noise band, then exits 1 if any expectation
fails.  Takes about a minute.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

from leofim.analysis import DEFAULT_REL_TOL

import gate
import workloads
from run import DEFAULT_SEED
from worker import ROOT, expected_trials, gate_check

SECOND_SEED = 7


def main() -> int:
    failures = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)
        if not ok:
            failures.append(label)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="check_gate-", dir=ROOT / ".bench_tmp")
    try:
        for seed in (DEFAULT_SEED, SECOND_SEED):
            for name in workloads.NAMES:
                workload = workloads.WORKLOADS[name](seed, Path(scratch))
                cells = workload.cells(workload.job())
                expected = expected_trials(name, seed)
                found = gate_check(cells, expected)
                expect(f"{name} seed {seed}: unmodified output passes {found[:2]}", not found)
                if seed != DEFAULT_SEED:
                    continue
                flipped = copy.deepcopy(cells)
                flipped[0]["is_pd"] = not flipped[0]["is_pd"]
                expect(f"{name}: flipped is_pd is rejected", bool(gate_check(flipped, expected)))
                if name == "counts_grid":
                    lemma_trials = expected[0][0]
                    undecided = sum(
                        abs(gate.margin(t, gate.EIG_K * t["noise"])) <= 1.0
                        for trials in lemma_trials
                        for t in trials
                    )
                    total = sum(len(trials) for trials in lemma_trials)
                    print(f"INFO  counts_grid seed {seed}: {undecided} of {total} trials lie "
                          "within the other route's noise band of the PD threshold")
                    turned = copy.deepcopy(cells)
                    cell = next(c for c in turned if not c["is_pd"])
                    cell["is_pd"] = True
                    cell["min"] = 10.0 * DEFAULT_REL_TOL * cell["max"]
                    found = gate_check(turned, expected)
                    expect(
                        f"counts_grid: a cell turned PD with a matching spectrum is rejected {found[:1]}",
                        bool(found),
                    )
                if name == "large_scene":
                    scaled = copy.deepcopy(cells)
                    scaled[0]["bounds"][0] *= 1.0 + 1e-6
                    expect(
                        "large_scene: bound x (1 + 1e-6) is rejected",
                        bool(gate_check(scaled, expected)),
                    )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} expectation(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
