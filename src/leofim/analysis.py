"""Identifiability verdicts, bound extraction, and reference-campaign sweeps.

Positive definiteness is decided on the unit-diagonal-balanced EFIM (the raw
matrix mixes units whose scales differ by many decades); the reported
eigenvalues and condition number refer to that balanced spectrum.  A
configuration counts as identifiable only if every one of its random trial
geometries is positive definite — a single lucky geometry is not enough.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import balanced_eigvalsh, invert_psd
from .links import link_observables, select_links
from .location_fim import Efim, _factor_efim, compute_efim
from .scenario import ScenarioConfig, derive_trial_seeds, random_scenario
from .transform import LocationLayout

DEFAULT_REL_TOL = 1e-10
DEFAULT_N_TRIALS = 5

SWEEP_AXES = ("n_ant", "carrier_freq_hz", "slot_spacing_s", "snr_db")
GRID_AXES = ("n_leo", "n_bs", "n_slots", "n_ant")


class NotIdentifiableError(RuntimeError):
    """Raised when a bound is requested for a non-identifiable configuration."""

    def __init__(self, verdict: "IdentifiabilityVerdict"):
        super().__init__(
            "EFIM is not positive definite (balanced min/max eigenvalue "
            f"{verdict.min_eigenvalue:.3e} / {verdict.max_eigenvalue:.3e})"
        )
        self.verdict = verdict


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    """Eigenvalue-based positive-definiteness verdict for one configuration.

    ``min_eigenvalue`` / ``max_eigenvalue`` / ``condition_number`` describe the
    unit-diagonal-balanced spectrum.  ``config`` carries the scenario
    configuration the verdict refers to, when one applies.
    """

    is_pd: bool
    min_eigenvalue: float
    max_eigenvalue: float
    condition_number: float
    rel_tol: float = DEFAULT_REL_TOL
    config: ScenarioConfig | None = None


@dataclass(frozen=True)
class CrlbReport:
    """Root-trace bounds per interest block.

    Receiver blocks are scalars; satellite offset blocks hold one bound per
    satellite, in satellite order.
    """

    pos_rmse_bound: float
    vel_rmse_bound: float
    orient_rmse_bound: float
    leo_pos_offset_bound: tuple[float, ...]
    leo_vel_offset_bound: tuple[float, ...]

    @classmethod
    def infinite(cls, n_leo: int) -> "CrlbReport":
        """Report for a non-identifiable configuration: every bound infinite."""
        return cls(
            pos_rmse_bound=np.inf,
            vel_rmse_bound=np.inf,
            orient_rmse_bound=np.inf,
            leo_pos_offset_bound=tuple(np.inf for _ in range(n_leo)),
            leo_vel_offset_bound=tuple(np.inf for _ in range(n_leo)),
        )

    def scaled(self, factor: float) -> "CrlbReport":
        return CrlbReport(
            pos_rmse_bound=self.pos_rmse_bound * factor,
            vel_rmse_bound=self.vel_rmse_bound * factor,
            orient_rmse_bound=self.orient_rmse_bound * factor,
            leo_pos_offset_bound=tuple(b * factor for b in self.leo_pos_offset_bound),
            leo_vel_offset_bound=tuple(b * factor for b in self.leo_vel_offset_bound),
        )


def _as_matrix(efim: Efim | np.ndarray) -> np.ndarray:
    return efim.matrix if isinstance(efim, Efim) else np.asarray(efim, dtype=float)


def is_identifiable(
    efim: Efim | np.ndarray,
    rel_tol: float = DEFAULT_REL_TOL,
    config: ScenarioConfig | None = None,
) -> IdentifiabilityVerdict:
    """Positive-definiteness verdict on the balanced spectrum.

    PD means ``min_eig > rel_tol * max_eig`` (and a positive maximum) after
    unit-diagonal balancing.
    """
    matrix = _as_matrix(efim)
    eigvals = balanced_eigvalsh(matrix)
    min_eig = float(eigvals[0])
    max_eig = float(eigvals[-1])
    is_pd = max_eig > 0.0 and min_eig > rel_tol * max_eig
    cond = max_eig / min_eig if min_eig > 0.0 else np.inf
    return IdentifiabilityVerdict(
        is_pd=is_pd,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        condition_number=cond,
        rel_tol=rel_tol,
        config=config,
    )


def crlb(efim: Efim, rel_tol: float = DEFAULT_REL_TOL) -> CrlbReport:
    """Root-trace bound of every interest block: ``sqrt(tr(inv(EFIM)[block]))``.

    The inverse floors eigenvalues at the verdict's ``rel_tol``, so no direction
    the verdict counted is dropped.

    Raises
    ------
    NotIdentifiableError
        If the EFIM is not positive definite; the error carries the verdict.
    """
    verdict = is_identifiable(efim, rel_tol)
    if not verdict.is_pd:
        raise NotIdentifiableError(verdict)
    layout: LocationLayout = efim.layout
    inverse, _ = invert_psd(efim.matrix, floor_rel=rel_tol)

    def block_bound(sl: slice) -> float:
        return float(np.sqrt(np.trace(inverse[sl, sl])))

    return CrlbReport(
        pos_rmse_bound=block_bound(layout.position),
        vel_rmse_bound=block_bound(layout.velocity),
        orient_rmse_bound=block_bound(layout.orientation),
        leo_pos_offset_bound=tuple(
            block_bound(layout.pos_offset(b)) for b in range(layout.n_leo)
        ),
        leo_vel_offset_bound=tuple(
            block_bound(layout.vel_offset(b)) for b in range(layout.n_leo)
        ),
    )


def _worst_verdict(verdicts: list[IdentifiabilityVerdict]) -> IdentifiabilityVerdict:
    """The trial with the smallest relative minimum eigenvalue."""

    def key(v: IdentifiabilityVerdict) -> float:
        if v.max_eigenvalue <= 0.0:
            return -np.inf
        return v.min_eigenvalue / v.max_eigenvalue

    return min(verdicts, key=key)


def _trial_seeds(seed: int, n_trials: int) -> list[int]:
    """:func:`derive_trial_seeds`, for a positive trial count."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    return derive_trial_seeds(seed, n_trials)


def identifiability_sweep(
    grid: dict[str, list[int]],
    template: ScenarioConfig,
    seed: int,
    n_trials: int = DEFAULT_N_TRIALS,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[IdentifiabilityVerdict]:
    """One aggregated verdict per cell of a counts grid.

    ``grid`` maps any of ``n_leo`` / ``n_bs`` / ``n_slots`` / ``n_ant`` to the
    values to sweep (missing keys keep the template's value).  Cells iterate in
    that key order, last key fastest.  A cell is PD only if all ``n_trials``
    seeded geometries are PD; the recorded eigenvalues come from the worst
    trial.  Trial seeds derive from ``seed`` alone, so results are
    reproducible and trials are paired across cells.

    Sampling is nested, so each trial is sampled and linked once, at the grid
    maxima, and each cell truncates those links: bit for bit the EFIM of its
    own sampled scenario.
    """
    unknown = set(grid) - set(GRID_AXES)
    if unknown:
        raise ValueError(f"unknown grid axes: {sorted(unknown)}; valid: {GRID_AXES}")
    trial_seeds = _trial_seeds(seed, n_trials)
    values = [grid.get(axis, [getattr(template, axis)]) for axis in GRID_AXES]
    if not all(values):
        return []
    largest = dataclasses.replace(template, **{a: max(v) for a, v in zip(GRID_AXES, values)})
    trial_links = [
        link_observables(random_scenario(largest, trial_seed), template.case)
        for trial_seed in trial_seeds
    ]

    table: list[IdentifiabilityVerdict] = []
    for n_leo, n_bs, n_slots, n_ant in itertools.product(*values):
        config = dataclasses.replace(template, n_leo=n_leo, n_bs=n_bs, n_slots=n_slots, n_ant=n_ant)
        trials = []
        for links in trial_links:
            efim = _factor_efim(select_links(links, n_leo, n_bs, n_ant, n_slots), n_leo, config.case)
            trials.append(is_identifiable(efim, rel_tol, config=config))
        worst = _worst_verdict(trials)
        table.append(
            dataclasses.replace(worst, is_pd=all(t.is_pd for t in trials), config=config)
        )
    return table


def _mean_reports(reports: list[CrlbReport]) -> CrlbReport:
    n_leo = len(reports[0].leo_pos_offset_bound)
    return CrlbReport(
        pos_rmse_bound=float(np.mean([r.pos_rmse_bound for r in reports])),
        vel_rmse_bound=float(np.mean([r.vel_rmse_bound for r in reports])),
        orient_rmse_bound=float(np.mean([r.orient_rmse_bound for r in reports])),
        leo_pos_offset_bound=tuple(
            float(np.mean([r.leo_pos_offset_bound[b] for r in reports]))
            for b in range(n_leo)
        ),
        leo_vel_offset_bound=tuple(
            float(np.mean([r.leo_vel_offset_bound[b] for r in reports]))
            for b in range(n_leo)
        ),
    )


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated bounds at one sweep-axis value."""

    axis: str
    value: float
    config: ScenarioConfig
    report: CrlbReport
    n_trials: int
    n_pd_trials: int
    worst_verdict: IdentifiabilityVerdict


def swept_config(template: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """``template`` with sweep axis ``axis`` set to ``value``.

    Raises
    ------
    ValueError
        If the scenario configuration rejects the value (a non-integral
        antenna count among others).
    """
    cast = float(value)
    if axis == "n_ant" and cast.is_integer():
        cast = int(cast)
    return dataclasses.replace(template, **{axis: cast})


def parameter_sweep(
    axis: str,
    values: list[float],
    template: ScenarioConfig,
    seed: int,
    n_trials: int = DEFAULT_N_TRIALS,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[SweepPoint]:
    """Mean bounds along one scalar axis of the scenario configuration.

    ``axis`` is one of ``n_ant`` (antenna count), ``carrier_freq_hz``,
    ``slot_spacing_s``, ``snr_db``.  Non-identifiable trials contribute
    infinite bounds (making the cell's mean infinite) rather than failing.
    Trial seeds are shared across values, pairing the geometries.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")
    trial_seeds = _trial_seeds(seed, n_trials)

    points: list[SweepPoint] = []
    for value in values:
        config = swept_config(template, axis, value)
        reports: list[CrlbReport] = []
        verdicts: list[IdentifiabilityVerdict] = []
        for trial_seed in trial_seeds:
            efim = compute_efim(random_scenario(config, trial_seed))
            verdict = is_identifiable(efim, rel_tol, config=config)
            verdicts.append(verdict)
            if verdict.is_pd:
                reports.append(crlb(efim, rel_tol))
            else:
                reports.append(CrlbReport.infinite(config.n_leo))
        points.append(
            SweepPoint(
                axis=axis,
                value=float(value),
                config=config,
                report=_mean_reports(reports),
                n_trials=n_trials,
                n_pd_trials=sum(v.is_pd for v in verdicts),
                worst_verdict=_worst_verdict(verdicts),
            )
        )
    return points
