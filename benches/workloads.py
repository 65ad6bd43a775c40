"""Benchmark workloads: their inputs, the timed job, and the job's checkable output.

Each workload is defined by a committed CLI configuration in ``configs/`` and
a seed.  The timed job calls only user-facing entry points
(``identifiability_sweep``, ``leofim.cli.main``, and
``random_scenario -> compute_efim -> is_identifiable -> crlb``), so internal
restructuring of the pipeline stages keeps the numbers comparable.

A job's output is reduced to *cells*: one per grid cell, sweep point or
geometry, each ``{"is_pd", "min", "max", "bounds"}`` where ``min``/``max`` are
the balanced extreme eigenvalues of the (worst) trial and ``bounds`` is the
flat list of root-trace bounds, or ``None`` when the job reports no bounds.
The same scenarios evaluated trial by trial give the *trials* the gate
compares a cell against (see ``gate.py``).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
from pathlib import Path

import numpy as np

from leofim import (
    Case,
    CrlbReport,
    ScenarioConfig,
    assemble_interest_fim,
    compute_efim,
    crlb,
    derive_trial_seeds,
    identifiability_sweep,
    is_identifiable,
    random_scenario,
)
from leofim import cli

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
NAMES = ("counts_grid", "cli_sweep", "large_scene")
GRID_AXES = ("n_leo", "n_bs", "n_slots", "n_ant")
_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"case"}


def load_raw(name: str) -> dict:
    """The workload's committed configuration, as plain JSON."""
    with open(CONFIG_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def template(raw: dict) -> ScenarioConfig:
    """Scenario knobs of a configuration, read without the CLI's parser so the
    trial plan does not share code with the job it checks."""
    knobs = {k: v for k, v in raw.items() if k in _SCENARIO_FIELDS}
    return ScenarioConfig(**knobs, case=Case(raw.get("case", "with_bs")))


def plan(name: str, seed: int) -> list[list[tuple[ScenarioConfig, int]]]:
    """Every (scenario config, trial seed) the job evaluates, grouped by cell."""
    raw = load_raw(name)
    base = template(raw)
    if raw["command"] == "identifiability":
        configs = [
            dataclasses.replace(base, **dict(zip(GRID_AXES, combo)))
            for combo in itertools.product(*(raw[f"grid_{a}"] for a in GRID_AXES))
        ]
    elif raw["command"] == "sweep":
        axis = raw["sweep_axis"]
        cast = type(getattr(base, axis))
        configs = [dataclasses.replace(base, **{axis: cast(v)}) for v in raw["sweep_values"]]
    else:
        configs = [base]
    seeds = derive_trial_seeds(seed, raw["n_trials"])
    return [[(config, s) for s in seeds] for config in configs]


def flat_bounds(report: CrlbReport) -> list[float]:
    return [
        report.pos_rmse_bound,
        report.vel_rmse_bound,
        report.orient_rmse_bound,
        *report.leo_pos_offset_bound,
        *report.leo_vel_offset_bound,
    ]


def rounding_scale(efim: np.ndarray, interest: np.ndarray) -> float:
    """Rounding-error scale of the balanced EFIM spectrum.

    The EFIM is the interest FIM minus the information lost to nuisances, and
    in singular directions the two nearly cancel, so entry errors scale with
    the interest FIM, not with the EFIM.  Returns
    ``eps * ||D |J_interest| D||_F`` with ``D`` the EFIM's unit-diagonal
    balancing, a bound-like scale for eigenvalue errors of the balanced EFIM.
    """
    diag = np.diag(efim)
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0)), 1.0)
    balanced = np.abs(interest) * scale[:, None] * scale[None, :]
    return float(np.finfo(float).eps * np.linalg.norm(balanced))


def evaluate_trials(name: str, seed: int, efim_fn) -> list[list[dict]]:
    """Per-trial verdicts (and bounds, for workloads that report them) of the
    job's scenarios, with the EFIM built by ``efim_fn(scenario)``; ``noise``
    is the trial's :func:`rounding_scale`."""
    with_bounds = load_raw(name)["command"] != "identifiability"
    cells = []
    for cell in plan(name, seed):
        trials = []
        for config, trial_seed in cell:
            scenario = random_scenario(config, trial_seed)
            efim = efim_fn(scenario)
            verdict = is_identifiable(efim)
            bounds = flat_bounds(crlb(efim)) if with_bounds and verdict.is_pd else None
            trials.append(
                {
                    "is_pd": verdict.is_pd,
                    "min": verdict.min_eigenvalue,
                    "max": verdict.max_eigenvalue,
                    "noise": rounding_scale(efim.matrix, assemble_interest_fim(scenario).matrix),
                    "bounds": bounds,
                }
            )
        cells.append(trials)
    return cells


class CountsGrid:
    """``identifiability_sweep`` over the acceptance-1 counts grid."""

    def __init__(self, seed: int, scratch: Path):
        raw = load_raw("counts_grid")
        self.template = template(raw)
        self.grid = {axis: list(raw[f"grid_{axis}"]) for axis in GRID_AXES}
        self.n_trials = raw["n_trials"]
        self.seed = seed

    def job(self):
        return identifiability_sweep(self.grid, self.template, self.seed, self.n_trials)

    @staticmethod
    def cells(output) -> list[dict]:
        return [
            {"is_pd": v.is_pd, "min": v.min_eigenvalue, "max": v.max_eigenvalue, "bounds": None}
            for v in output
        ]


class CliSweep:
    """``leofim.cli.main`` running the committed ``sweep`` configuration."""

    def __init__(self, seed: int, scratch: Path):
        self.out = scratch / "cli_sweep.csv"
        self.argv = [
            "--config", str(CONFIG_DIR / "cli_sweep.json"),
            "--seed", str(seed),
            "--out", str(self.out),
        ]

    def job(self):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(self.argv)
        text = self.out.read_text(encoding="utf-8")
        self.out.unlink()
        return status, text

    @staticmethod
    def cells(output) -> list[dict]:
        status, text = output
        if status != 0:
            raise RuntimeError(f"leofim exited with status {status}")
        cells = []
        for row in csv.DictReader(io.StringIO(text)):
            bounds = [float(row[c]) for c in ("pos_rmse_bound", "vel_rmse_bound", "orient_rmse_bound")]
            for column in ("leo_pos_offset_bound", "leo_vel_offset_bound"):
                bounds += [float(v) for v in row[column].split(";")]
            cells.append(
                {
                    "is_pd": row["is_pd"] == "true",
                    "min": float(row["min_eigenvalue"]),
                    "max": float(row["max_eigenvalue"]),
                    "bounds": bounds,
                }
            )
        return cells


class LargeScene:
    """One large geometry through scenario -> EFIM -> verdict -> CRLB."""

    def __init__(self, seed: int, scratch: Path):
        self.config = template(load_raw("large_scene"))
        self.trial_seed = derive_trial_seeds(seed, 1)[0]

    def job(self):
        efim = compute_efim(random_scenario(self.config, self.trial_seed))
        verdict = is_identifiable(efim)
        report = crlb(efim) if verdict.is_pd else CrlbReport.infinite(self.config.n_leo)
        return verdict, report

    @staticmethod
    def cells(output) -> list[dict]:
        verdict, report = output
        return [
            {
                "is_pd": verdict.is_pd,
                "min": verdict.min_eigenvalue,
                "max": verdict.max_eigenvalue,
                "bounds": flat_bounds(report),
            }
        ]


WORKLOADS = {"counts_grid": CountsGrid, "cli_sweep": CliSweep, "large_scene": LargeScene}
