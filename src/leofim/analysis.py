"""Identifiability verdicts, bound extraction, and reference-campaign sweeps.

Positive definiteness is decided on the unit-diagonal-balanced EFIM (the raw
matrix mixes units whose scales differ by many decades); the reported
eigenvalues and condition number refer to that balanced spectrum.  A
configuration counts as identifiable only if every one of its random trial
geometries is positive definite — a single lucky geometry is not enough.
Every trial is decided in one place (:func:`_trials`, which both sweeps and
the CLI ``bound`` command use): configurations that differ only in their
counts form a family whose trials are sampled and linked together, in one
array pass with a leading trial axis; each offset-group Gram is built once
for all the family's trials and every configuration that slices it, each
configuration's EFIM is bit for bit that of its own sampled scenario, and the
verdicts of one (family, satellite count) come from one stacked eigenvalue
call.  Bounds are arrays until a caller returns them: the PD trials of one
(family, satellite count) are inverted by one stacked :func:`.invert_psd`,
bit for bit the per-matrix inverses, and a sweep point's mean bounds average
its trials' rows.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import balanced_eigvalsh, invert_psd
from .links import _kinds, _link_pass, _sampled_scene
from .location_fim import Efim, _efims, _pools
from .scenario import ScenarioConfig, _sample, derive_trial_seeds
from .transform import LocationLayout

DEFAULT_REL_TOL = 1e-10
DEFAULT_N_TRIALS = 5

SWEEP_AXES = ("n_ant", "carrier_freq_hz", "slot_spacing_s", "snr_db")
GRID_AXES = ("n_leo", "n_bs", "n_slots", "n_ant")
# The configuration fields a sampled scenario cannot slice.
_FAMILY_FIELDS = tuple(
    f for f in dataclasses.fields(ScenarioConfig) if f.name not in GRID_AXES
)


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
    def of(cls, bounds: np.ndarray) -> "CrlbReport":
        """The report of one row of :func:`_bounds`."""
        values = bounds.tolist()
        n_leo = (len(values) - 3) // 2
        return cls(*values[:3], tuple(values[3 : 3 + n_leo]), tuple(values[3 + n_leo :]))

    @classmethod
    def infinite(cls, n_leo: int) -> "CrlbReport":
        """Report for a non-identifiable configuration: every bound infinite."""
        return cls.of(np.full(3 + 2 * n_leo, np.inf))

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


def _verdict(
    min_eig: float, max_eig: float, rel_tol: float, config: ScenarioConfig | None
) -> IdentifiabilityVerdict:
    """The verdict on a balanced spectrum's extremes."""
    min_eig, max_eig = float(min_eig), float(max_eig)
    return IdentifiabilityVerdict(
        is_pd=max_eig > 0.0 and min_eig > rel_tol * max_eig,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        condition_number=max_eig / min_eig if min_eig > 0.0 else np.inf,
        rel_tol=rel_tol,
        config=config,
    )


def is_identifiable(
    efim: Efim | np.ndarray, rel_tol: float = DEFAULT_REL_TOL
) -> IdentifiabilityVerdict:
    """Positive-definiteness verdict on the balanced spectrum.

    PD means ``min_eig > rel_tol * max_eig`` (and a positive maximum) after
    unit-diagonal balancing.
    """
    eigvals = balanced_eigvalsh(_as_matrix(efim))
    return _verdict(eigvals[0], eigvals[-1], rel_tol, None)


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
    return CrlbReport.of(_bounds(efim.matrix[None], efim.layout, rel_tol)[0])


def _bounds(matrices: np.ndarray, layout: LocationLayout, rel_tol: float) -> np.ndarray:
    """Root-trace bounds ``(n, 3 + 2*n_leo)`` of a stack of EFIMs whose
    verdicts at ``rel_tol`` are PD, one column per interest block in layout
    order, from one stacked :func:`invert_psd`.  A block's trace adds its
    three diagonal entries in order, as ``np.trace`` of the block does."""
    diag = np.diagonal(invert_psd(matrices, floor_rel=rel_tol), axis1=-2, axis2=-1)
    starts = np.array([block.start for _, block in layout.interest_blocks()])
    return np.sqrt(diag[:, starts] + diag[:, starts + 1] + diag[:, starts + 2])


def _worst_verdict(verdicts: list[IdentifiabilityVerdict]) -> IdentifiabilityVerdict:
    """The trial with the smallest relative minimum eigenvalue."""

    def key(v: IdentifiabilityVerdict) -> float:
        if v.max_eigenvalue <= 0.0:
            return -np.inf
        return v.min_eigenvalue / v.max_eigenvalue

    return min(verdicts, key=key)


def _family_trials(
    by_leo: dict[int, list[int]],
    configs: list[ScenarioConfig],
    trial_seeds: list[int],
    rel_tol: float,
    with_bounds: bool,
) -> list[tuple[int, list[IdentifiabilityVerdict], np.ndarray | None]]:
    """``(index, verdicts, bounds)`` of every configuration of one family,
    given its configurations' indices by satellite count: a verdict per trial
    and, with ``with_bounds``, the trials' :func:`_bounds` ``(T, 3 +
    2*n_leo)``, infinite in a trial that is not PD.

    Sampling is nested in the counts (:data:`GRID_AXES`), so the family's
    trials are sampled and linked once, at its maxima, and together: one
    :func:`.scenario._sample` and one :func:`.links._link_pass` over the
    trial axis, whose arrays the offset pools view.  They live only for this
    call.  Per satellite count, one :func:`_efims` over the pools gives every
    configuration's EFIMs, bit for bit those of its own sampled scenario, and
    one stacked :func:`balanced_eigvalsh` decides them all.  The PD trials
    of all those configurations are bounded together, by one stacked
    :func:`invert_psd`, reusing their verdicts.
    """
    members = [configs[i] for cells in by_leo.values() for i in cells]
    counts = {a: max(getattr(c, a) for c in members) for a in GRID_AXES}
    largest = dataclasses.replace(members[0], **counts)
    scene = _sampled_scene(largest, _sample(largest, trial_seeds))
    pools = _pools(_link_pass(scene, _kinds(largest.case)))
    decided = []
    for n_leo, cells in by_leo.items():
        # One set of Grams per satellite count: no other count's fit it.
        layout = LocationLayout(n_leo=n_leo, kappa2_channel_cols=())
        sub_counts = [(configs[i].n_bs, configs[i].n_ant, configs[i].n_slots) for i in cells]
        efims = _efims(pools, layout, sub_counts)
        verdicts = [
            [_verdict(eigvals[0], eigvals[-1], rel_tol, configs[i]) for eigvals in spectra]
            for i, spectra in zip(cells, balanced_eigvalsh(efims))
        ]
        bounds = [None] * len(cells)
        if with_bounds:
            pd = np.array([[v.is_pd for v in trials] for trials in verdicts])
            bounds = np.full((*pd.shape, len(layout.interest_blocks())), np.inf)
            bounds[pd] = _bounds(efims[pd], layout, rel_tol)
        decided += zip(cells, verdicts, bounds)
    return decided


def _trials(
    configs: list[ScenarioConfig], seed: int, n_trials: int, rel_tol: float, with_bounds: bool
) -> list[tuple[list[IdentifiabilityVerdict], np.ndarray | None]]:
    """Per configuration, a verdict per seeded trial and, with
    ``with_bounds``, the trials' bounds (see :func:`_family_trials`).

    Configurations that differ only in their counts form one family; families
    are decided one at a time, in first-seen order (:func:`_family_trials`).
    Trial seeds derive from ``seed`` alone, so trials are paired across
    configurations, and a trial count below one raises before any sampling.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    families: dict[tuple, dict[int, list[int]]] = {}
    for i, config in enumerate(configs):
        key = tuple(getattr(config, f.name) for f in _FAMILY_FIELDS)
        families.setdefault(key, {}).setdefault(config.n_leo, []).append(i)
    trial_seeds = derive_trial_seeds(seed, n_trials)
    results: list = [None] * len(configs)
    for by_leo in families.values():
        for i, verdicts, bounds in _family_trials(
            by_leo, configs, trial_seeds, rel_tol, with_bounds
        ):
            results[i] = (verdicts, bounds)
    return results


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

    Sampling is nested, so the trials are sampled and linked together, once,
    at the grid maxima.  Per satellite count, each offset group's centered
    Gram is built once for all trials and every sub-count that slices it, and
    each cell sums those Grams: bit for bit the EFIM of its own sampled
    scenario.
    """
    unknown = set(grid) - set(GRID_AXES)
    if unknown:
        raise ValueError(f"unknown grid axes: {sorted(unknown)}; valid: {GRID_AXES}")
    values = [grid.get(axis, [getattr(template, axis)]) for axis in GRID_AXES]
    configs = [
        dataclasses.replace(template, **dict(zip(GRID_AXES, counts)))
        for counts in itertools.product(*values)
    ]
    table: list[IdentifiabilityVerdict] = []
    for verdicts, _ in _trials(configs, seed, n_trials, rel_tol, with_bounds=False):
        worst = _worst_verdict(verdicts)
        table.append(dataclasses.replace(worst, is_pd=all(v.is_pd for v in verdicts)))
    return table


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
    Trial seeds are shared across values, pairing the geometries.  Every value
    is validated before any trial is sampled.

    Antenna counts are nested, so an ``n_ant`` sweep samples and links its
    trials together, once, at the largest count, and every value's EFIM slices
    them: bit for bit the EFIM of its own sampled scenario.  On the other axes
    each value is its own family, whose trials are sampled and linked
    together.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")
    configs = [swept_config(template, axis, value) for value in values]
    points = []
    for value, config, (verdicts, bounds) in zip(
        values, configs, _trials(configs, seed, n_trials, rel_tol, with_bounds=True)
    ):
        points.append(SweepPoint(
            axis=axis,
            value=float(value),
            config=config,
            # Trials on a contiguous last axis: each mean adds them as np.mean of a list does.
            report=CrlbReport.of(np.ascontiguousarray(bounds.T).mean(axis=-1)),
            n_trials=n_trials,
            n_pd_trials=sum(v.is_pd for v in verdicts),
            worst_verdict=_worst_verdict(verdicts),
        ))
    return points
