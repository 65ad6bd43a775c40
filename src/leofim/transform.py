"""Jacobians from channel parameters to location parameters.

The estimation target is ``kappa = [kappa1; kappa2]`` with

    kappa1 = [receiver position (3), receiver velocity (3),
              receiver orientation (3),
              satellite position offsets (3 per satellite),
              satellite velocity offsets (3 per satellite)]
    kappa2 = per-link gains and synchronization offsets, mirroring the
             assembled channel-vector ordering.

Delays and Doppler shifts relate to ``kappa1`` through the link geometry; the
partials are evaluated with each link's observables (see ``links``) and the
transformation matrix ``Upsilon`` collects them so that
``J_kappa = Upsilon @ J_eta @ Upsilon.T``.

Differentiation convention: delays are differentiated through the full
position dependence (a velocity perturbs slot-k positions by ``k*dt``), while
Doppler shifts treat the propagation direction as a function of position-type
parameters only — velocity partials act on the relative-velocity argument at
a frozen direction.  All information matrices, the finite-difference checks,
and both bound routes share this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_fim import GlobalChannelLayout, LinkSection
from .linalg import sym
from .links import LinkJacobians, LinkObservables, link_jacobians  # noqa: F401 (re-exported)
from .scenario import Scenario


@dataclass(frozen=True)
class LocationLayout:
    """Index map of the location-parameter vector ``kappa``.

    The interest block ``kappa1`` has dimension ``9 + 6*n_leo``; the nuisance
    block ``kappa2`` holds one coordinate per channel gain/offset, ordered as
    in the assembled channel vector (tracked by ``kappa2_channel_cols``, the
    channel-vector column of each nuisance coordinate).
    """

    n_leo: int
    kappa2_channel_cols: tuple[int, ...]

    @property
    def position(self) -> slice:
        return slice(0, 3)

    @property
    def velocity(self) -> slice:
        return slice(3, 6)

    @property
    def orientation(self) -> slice:
        return slice(6, 9)

    def pos_offset(self, b: int) -> slice:
        if not 0 <= b < self.n_leo:
            raise ValueError(f"satellite index {b} outside [0, {self.n_leo})")
        return slice(9 + 3 * b, 12 + 3 * b)

    def vel_offset(self, b: int) -> slice:
        if not 0 <= b < self.n_leo:
            raise ValueError(f"satellite index {b} outside [0, {self.n_leo})")
        start = 9 + 3 * self.n_leo + 3 * b
        return slice(start, start + 3)

    @property
    def dim_interest(self) -> int:
        return 9 + 6 * self.n_leo

    @property
    def dim(self) -> int:
        return self.dim_interest + len(self.kappa2_channel_cols)

    @property
    def kappa2(self) -> slice:
        return slice(self.dim_interest, self.dim)

    def interest_blocks(self) -> list[tuple[str, slice]]:
        """Named 3x3 interest blocks in layout order."""
        blocks = [
            ("position", self.position),
            ("velocity", self.velocity),
            ("orientation", self.orientation),
        ]
        blocks += [(f"pos_offset_{b}", self.pos_offset(b)) for b in range(self.n_leo)]
        blocks += [(f"vel_offset_{b}", self.vel_offset(b)) for b in range(self.n_leo)]
        return blocks


@dataclass(frozen=True)
class TransformationMatrix:
    """``Upsilon`` with the layouts of both of its sides."""

    matrix: np.ndarray
    location_layout: LocationLayout
    channel_layout: GlobalChannelLayout


def kappa1_blocks(
    layout: LocationLayout, obs: LinkObservables
) -> list[tuple[slice, np.ndarray, np.ndarray | None]]:
    """(kappa1 slice, delay Jacobian, Doppler Jacobian) per block the link sees.

    Links received by the array inform the receiver position, velocity and
    orientation (orientation has no Doppler Jacobian: shifts are measured at
    the array reference point); links transmitted by satellite ``b`` inform
    its position and velocity offsets.
    """
    jac = obs.jacobians
    blocks = []
    if jac.dtau_dp is not None:
        blocks += [
            (layout.position, jac.dtau_dp, jac.dnu_dp),
            (layout.velocity, jac.dtau_dvu, jac.dnu_dvu),
            (layout.orientation, jac.dtau_dphi, None),
        ]
    if jac.dtau_dpcheck is not None:
        blocks += [
            (layout.pos_offset(obs.index), jac.dtau_dpcheck, jac.dnu_dpcheck),
            (layout.vel_offset(obs.index), jac.dtau_dvcheck, jac.dnu_dvcheck),
        ]
    return blocks


def _place_link(upsilon: np.ndarray, loc: LocationLayout, sec: LinkSection) -> None:
    """Write one link's partials into its delay and Doppler columns."""
    lay = sec.fim.layout
    delays = slice(sec.offset + lay.delays.start, sec.offset + lay.delays.stop)
    dopplers = slice(sec.offset + lay.dopplers.start, sec.offset + lay.dopplers.stop)
    for rows, dtau, dnu in kappa1_blocks(loc, sec.fim.obs):
        upsilon[rows, delays] = dtau.reshape(-1, 3).T
        if dnu is not None:
            upsilon[rows, dopplers] = dnu.reshape(-1, 3).T


def location_layout(glob: GlobalChannelLayout, n_leo: int) -> LocationLayout:
    """Location layout matching an assembled channel layout."""
    return LocationLayout(n_leo=n_leo, kappa2_channel_cols=glob.nuisance_cols)


def build_transformation_matrix(
    scenario: Scenario, *, glob: GlobalChannelLayout | None = None
) -> TransformationMatrix:
    """Build ``Upsilon`` for a scenario.

    Every delay/Doppler column carries that observable's partials with respect
    to the kappa1 blocks it depends on; gain and offset columns are unit
    selections of their kappa2 rows.  ``glob`` may be passed to reuse an
    already-assembled channel layout, together with the link observables and
    Jacobians its sections carry (it must match the scenario).
    """
    if glob is None:
        from .channel_fim import assemble_channel_fim

        _, glob = assemble_channel_fim(scenario)
    return _transformation(glob, scenario.n_leo)


def _transformation(glob: GlobalChannelLayout, n_leo: int) -> TransformationMatrix:
    """``Upsilon`` of an assembled channel layout with ``n_leo`` satellites."""
    loc = location_layout(glob, n_leo)

    upsilon = np.zeros((loc.dim, glob.dim))
    for sec in glob.sections:
        _place_link(upsilon, loc, sec)
    cols = loc.kappa2_channel_cols
    upsilon[loc.dim_interest + np.arange(len(cols)), list(cols)] = 1.0
    return TransformationMatrix(matrix=upsilon, location_layout=loc, channel_layout=glob)


def transform_fim(j_eta: np.ndarray, upsilon: TransformationMatrix | np.ndarray) -> np.ndarray:
    """Map a channel FIM to the location parameters: ``U @ J @ U.T``."""
    u = upsilon.matrix if isinstance(upsilon, TransformationMatrix) else upsilon
    if u.shape[1] != j_eta.shape[0] or j_eta.shape[0] != j_eta.shape[1]:
        raise ValueError(
            f"dimension mismatch: Upsilon {u.shape} against J_eta {j_eta.shape}"
        )
    return sym(u @ j_eta @ u.T)
