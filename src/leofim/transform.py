"""Jacobians from channel parameters to location parameters.

The estimation target is ``kappa = [kappa1; kappa2]`` with

    kappa1 = [receiver position (3), receiver velocity (3),
              receiver orientation (3),
              satellite position offsets (3 per satellite),
              satellite velocity offsets (3 per satellite)]
    kappa2 = per-link gains and synchronization offsets, mirroring the
             assembled channel-vector ordering.

The nuisance columns belong to the assembled channel layout
(``GlobalChannelLayout.nuisance_cols``, one kappa2 coordinate each);
:class:`LocationLayout` indexes ``kappa1`` alone.

Delays and Doppler shifts relate to ``kappa1`` through the link geometry; the
partials are evaluated with each link's observables (see ``links``),
:func:`kappa1_blocks` alone maps them to kappa1 blocks with their signs, and
the transformation matrix ``Upsilon`` collects the blocks so that
``J_kappa = Upsilon @ J_eta @ Upsilon.T``.

Differentiation convention: delays are differentiated through the full
position dependence (a velocity perturbs slot-k positions by ``k*dt``), while
Doppler shifts treat the propagation direction as a function of position-type
parameters only — velocity partials act on the relative-velocity argument at
a frozen direction.  All information matrices, the finite-difference checks,
and every EFIM route share this convention.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel_fim import GlobalChannelLayout, LinkSection
from .linalg import sym
from .links import LinkKind, LinkObservables
from .scenario import Scenario


@dataclass(frozen=True)
class LocationLayout:
    """Index map of the interest block ``kappa1`` of the location-parameter
    vector ``kappa``, of dimension ``9 + 6*n_leo``.  The nuisance block
    ``kappa2`` follows it, one coordinate per channel gain/offset; its columns
    belong to the assembled channel layout (``glob.nuisance_cols``).
    """

    n_leo: int

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
    """``Upsilon`` with the layout of its location-parameter side."""

    matrix: np.ndarray
    location_layout: LocationLayout


def _copy(dst: np.ndarray, src: np.ndarray) -> None:
    dst[...] = src


def _copy_negated(dst: np.ndarray, src: np.ndarray) -> None:
    np.negative(src, out=dst)


def kappa1_blocks(
    layout: LocationLayout, obs: LinkObservables, index: int | None = None
) -> list[tuple[slice, np.ndarray, np.ndarray | None, Callable[..., None]]]:
    """(kappa1 slice, delay partials, Doppler partials, ``put``) per block the
    link informs; ``put(dst, src)`` writes ``src`` into ``dst`` with the
    block's sign.

    Links received by the array inform the receiver position, velocity and
    orientation (orientation has no Doppler partials: shifts are measured at
    the array reference point).  Links transmitted by satellite ``index``
    (default ``obs.index``) inform its position and velocity offsets with the
    negated receiving-end partials: the link sees the ends' difference only.
    """
    jac = obs.jacobians
    blocks = []
    if obs.kind is not LinkKind.LEO_BS:
        blocks += [
            (layout.position, jac.dtau_dp, jac.dnu_dp, _copy),
            (layout.velocity, jac.dtau_dv, jac.dnu_dv, _copy),
            (layout.orientation, jac.dtau_dphi, None, _copy),
        ]
    if obs.kind is not LinkKind.BS_RX:
        b = obs.index if index is None else index
        blocks += [
            (layout.pos_offset(b), jac.dtau_dp, jac.dnu_dp, _copy_negated),
            (layout.vel_offset(b), jac.dtau_dv, jac.dnu_dv, _copy_negated),
        ]
    return blocks


def _place_link(upsilon: np.ndarray, loc: LocationLayout, sec: LinkSection) -> None:
    """Write one link's partials into its delay and Doppler columns."""
    lay = sec.fim.layout
    delays = slice(sec.offset + lay.delays.start, sec.offset + lay.delays.stop)
    dopplers = slice(sec.offset + lay.dopplers.start, sec.offset + lay.dopplers.stop)
    for rows, dtau, dnu, put in kappa1_blocks(loc, sec.fim.obs):
        put(upsilon[rows, delays], dtau.reshape(-1, 3).T)
        if dnu is not None:
            put(upsilon[rows, dopplers], dnu.reshape(-1, 3).T)


def build_transformation_matrix(
    scenario: Scenario, *, glob: GlobalChannelLayout
) -> TransformationMatrix:
    """Build ``Upsilon`` for a scenario from its assembled channel layout.

    Every delay/Doppler column carries that observable's partials with respect
    to the kappa1 blocks it depends on; the gain and offset columns
    (``glob.nuisance_cols``) are unit selections of the kappa2 rows, in order.
    The link observables and Jacobians come from ``glob``'s sections, so
    ``glob`` must be the scenario's own layout.
    """
    loc = LocationLayout(n_leo=scenario.n_leo)
    cols = glob.nuisance_cols

    upsilon = np.zeros((loc.dim_interest + len(cols), glob.dim))
    for sec in glob.sections:
        _place_link(upsilon, loc, sec)
    upsilon[loc.dim_interest + np.arange(len(cols)), list(cols)] = 1.0
    return TransformationMatrix(matrix=upsilon, location_layout=loc)


def transform_fim(j_eta: np.ndarray, upsilon: TransformationMatrix) -> np.ndarray:
    """Map a channel FIM to the location parameters: ``U @ J @ U.T``."""
    u = upsilon.matrix
    if u.shape[1] != j_eta.shape[0] or j_eta.shape[0] != j_eta.shape[1]:
        raise ValueError(
            f"dimension mismatch: Upsilon {u.shape} against J_eta {j_eta.shape}"
        )
    return sym(u @ j_eta @ u.T)
