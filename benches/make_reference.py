"""Regenerate ``reference/seed42.json``: the production route's per-trial
verdicts and bounds for every workload at the default seed.

    PYTHONPATH=src python3 benches/make_reference.py

The committed file was written at the commit that introduced the benchmark.
Regenerate it only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json

from leofim import compute_efim

import workloads
from run import DEFAULT_SEED
from worker import reference_path

if __name__ == "__main__":
    reference = {
        name: workloads.evaluate_trials(name, DEFAULT_SEED, compute_efim)
        for name in workloads.NAMES
    }
    path = reference_path(DEFAULT_SEED)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
