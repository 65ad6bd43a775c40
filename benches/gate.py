"""Correctness gate: compare a job's cells with trial-by-trial evaluations.

A cell is checked against the trials of the same scenarios, evaluated either
by the other EFIM route (``efim_lemma_route``, run in the same process) or
read from the committed reference of the production route (default seed
only), so a bug shared by both routes still shows.

Many counts-grid EFIMs are numerically singular: their balanced minimum
eigenvalue is rounding noise, often as large as the 1e-10 identifiability
threshold times the maximum, and the two routes differ there.  So each trial
carries its rounding scale ``noise`` (see ``workloads.rounding_scale``) and
eigenvalues are compared on that absolute scale, never relative to
themselves.  Against the reference, ``is_pd`` must equal the trials' verdict
exactly.  Against the other route it must match only where the trials decide
it by more than the noise band, which on the default seed's counts grid is
no trial at all: there only the reference checks the flag.  ``is_pd`` must
always agree with the cell's own reported spectrum, and bounds must be finite
exactly when the cell is positive definite.

The factors below are a few times the largest gap measured between the two
routes on every workload over seeds 1, 3, 5, 7, 11, 12, 42 and 16838.
"""

from __future__ import annotations

import math

import numpy as np

from leofim.analysis import DEFAULT_REL_TOL

# CSV cells carry 9 significant digits: 5e-9 relative, doubled.
QUANT = 1e-8
# Eigenvalue gap / noise: at most 21 (cli_sweep, seed 3).
EIG_K = 100.0
# Relative bound gap x balanced min eigenvalue / noise: at most 0.35.
BOUND_K = 10.0
# Relative Frobenius gap between the two routes' EFIMs allowed in the traced
# pass (the acceptance-3 tolerance of the test suite).
ROUTE_GAP_MAX = 1e-8


def _close(got: float, want: float, abs_tol: float) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= abs_tol + QUANT * abs(want)


def margin(trial: dict, tol: float) -> float:
    """Distance of a trial's balanced minimum eigenvalue above the PD threshold,
    in units of ``tol``; within [-1, 1] the trial does not decide ``is_pd``."""
    return (trial["min"] - DEFAULT_REL_TOL * trial["max"]) / tol if tol > 0.0 else 0.0


def check_cell(cell: dict, trials: list[dict], exact_pd: bool) -> list[str]:
    """Problems found in one cell (empty when it passes).

    With ``exact_pd`` the cell's ``is_pd`` must equal the trials' verdict (all
    trials positive definite); otherwise only where the trials decide it by
    more than their noise band.
    """
    problems = []
    tols = [EIG_K * t["noise"] for t in trials]
    own_pd = cell["max"] > 0.0 and cell["min"] > DEFAULT_REL_TOL * cell["max"]
    if cell["is_pd"] != own_pd:
        problems.append(f"is_pd={cell['is_pd']} contradicts its own spectrum")

    if not any(
        _close(cell["max"], t["max"], tol) and _close(cell["min"], t["min"], tol)
        for t, tol in zip(trials, tols)
    ):
        problems.append(f"spectrum [{cell['min']:.6e}, {cell['max']:.9e}] matches no trial")
    ratio = cell["min"] / cell["max"] if cell["max"] > 0.0 else -math.inf
    worst = min((t["min"] + tol) / t["max"] for t, tol in zip(trials, tols))
    if ratio > worst + QUANT * abs(worst):
        problems.append(f"min/max {ratio:.3e} is above the worst trial's {worst:.3e}")
    if exact_pd:
        want_pd = all(t["is_pd"] for t in trials)
        if cell["is_pd"] != want_pd:
            problems.append(f"is_pd={cell['is_pd']} but the trials' verdict is {want_pd}")
    else:
        margins = [margin(t, tol) for t, tol in zip(trials, tols)]
        if cell["is_pd"] and any(m < -1.0 for m in margins):
            problems.append("is_pd=True but a trial is decidedly not positive definite")
        if not cell["is_pd"] and all(m > 1.0 for m in margins):
            problems.append("is_pd=False but every trial is decidedly positive definite")

    bounds = cell["bounds"]
    if bounds is None:
        return problems
    finite = all(math.isfinite(b) for b in bounds)
    if finite != cell["is_pd"]:
        problems.append(f"bounds finite={finite} but is_pd={cell['is_pd']}")
    if finite and all(t["bounds"] is not None for t in trials):
        expected = np.mean([t["bounds"] for t in trials], axis=0)
        rel_tol = QUANT + BOUND_K * max(t["noise"] / t["min"] for t in trials)
        if len(bounds) != len(expected):
            problems.append(f"{len(bounds)} bounds, expected {len(expected)}")
        for i, (got, want) in enumerate(zip(bounds, expected)):
            if abs(got - want) > rel_tol * abs(want):
                problems.append(f"bound {i}: {got!r} vs {float(want)!r} (rel tol {rel_tol:.1e})")
    return problems


def check(cells: list[dict], trial_cells: list[list[dict]], exact_pd: bool) -> list[str]:
    """Problems found in a job's cells, each prefixed with its cell index."""
    if len(cells) != len(trial_cells):
        return [f"{len(cells)} cells, expected {len(trial_cells)}"]
    return [
        f"cell {i}: {problem}"
        for i, (cell, trials) in enumerate(zip(cells, trial_cells))
        for problem in check_cell(cell, trials, exact_pd)
    ]
