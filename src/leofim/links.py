"""Per-link observables and their parameter Jacobians (internal).

Everything downstream — channel information matrices, ``Upsilon``,
information-loss terms — consumes links through these bundles, so the mapping
from scene geometry to delays, Doppler shifts, weights and their kappa1
partials lives in exactly one place and is evaluated once per link, as one
broadcast pass over ``(element, slot, 3)`` arrays.  Delays are evaluated per
receive element (antenna, or station for the satellite-station link); Doppler
shifts are evaluated once per slot at the array reference point for receiver
links, and per station otherwise.

Satellite positions include the ephemeris offsets: the constant position error
plus the velocity-offset drift ``k*dt*vel_offset``.

Observations cover slot numbers 1..n_slots (times ``dt`` through
``n_slots*dt``); slot axis entry ``i`` holds slot number ``i+1``.  The epoch
(slot 0), where all track parameters are defined, is not observed.

The broadcast pass reproduces the scalar primitives of :mod:`.geometry` bit
for bit: 3-vector dots and norms go through ``np.vecdot`` (which matches the
1-D ``dot`` behind ``np.linalg.norm`` and ``@``), and every other operation is
elementwise in the primitives' evaluation order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _DEGENERATE_NORM,
    SPEED_OF_LIGHT_M_S,
    DegenerateGeometryError,
    rotation_matrix,
    rotation_matrix_partials,
)
from .scenario import Case, Scenario
from .signals import effective_frequency, omega

_C = SPEED_OF_LIGHT_M_S


class LinkKind(enum.Enum):
    LEO_RX = "leo_rx"
    BS_RX = "bs_rx"
    LEO_BS = "leo_bs"


@dataclass(frozen=True)
class LinkJacobians:
    """Partials of one link's delays/Dopplers w.r.t. the kappa1 blocks.

    Delay arrays have shape ``(n_rows, n_slots, 3)``; Doppler arrays are
    ``(n_slots, 3)`` for array links and ``(n_rows, n_slots, 3)`` for
    satellite-station links.  Entries are ``None`` where the link does not
    depend on that block.
    """

    dtau_dp: np.ndarray | None
    dtau_dvu: np.ndarray | None
    dtau_dphi: np.ndarray | None
    dtau_dpcheck: np.ndarray | None
    dtau_dvcheck: np.ndarray | None
    dnu_dp: np.ndarray | None
    dnu_dvu: np.ndarray | None
    dnu_dpcheck: np.ndarray | None
    dnu_dvcheck: np.ndarray | None


@dataclass(frozen=True)
class LinkObservables:
    """Geometry, weights and Jacobians of one link.

    The element axis runs over antennas for links received by the array and
    over stations for a satellite's links to the station network:
    ``dirs (n_rows, n_slots, 3)`` and ``dists (n_rows, n_slots)`` are the
    transmitter-to-element directions and ranges, ``snr (n_rows, n_slots)``.
    Doppler quantities (``dop_dirs``, ``dop_dists``, ``nu``, ``f_o``,
    ``omega``) have one entry per Doppler observation: shape ``(n_slots,)``
    (plus a trailing 3 for directions) at the array reference point for array
    links, and the element grid ``(n_rows, n_slots)`` for satellite-station
    links, where they coincide with ``dirs`` / ``dists``.  ``v_rel
    (n_slots, 3)`` is transmitter minus receiver velocity, the convention
    under which a closing link has positive Doppler.
    """

    kind: LinkKind
    index: int
    dirs: np.ndarray
    dists: np.ndarray
    dop_dirs: np.ndarray
    dop_dists: np.ndarray
    v_rel: np.ndarray
    nu: np.ndarray
    f_o: np.ndarray
    omega: np.ndarray
    snr: np.ndarray
    k_times: np.ndarray
    eff_bandwidth: float
    bcc: float
    rms_duration: float
    carrier_freq: float
    gain: float
    jacobians: LinkJacobians

    @property
    def per_row_doppler(self) -> bool:
        """Whether Doppler shifts are observed per element (station links)."""
        return self.kind is LinkKind.LEO_BS


def _directions(tx: np.ndarray, rx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions from ``tx`` toward ``rx`` and their ranges, broadcast
    over leading axes; the vector form of ``unit_direction`` and ``delay``.

    Raises
    ------
    DegenerateGeometryError
        If any pair is closer than ~1 nm and no direction is defined.
    """
    diff = rx - tx
    dist = np.sqrt(np.vecdot(diff, diff))
    if np.any(dist < _DEGENERATE_NORM):
        raise DegenerateGeometryError(
            f"points separated by {dist.min():.3e} m define no direction"
        )
    return diff / dist[..., None], dist


def _leo_states(scenario: Scenario, b: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offset-corrected positions and velocities of satellite ``b`` per slot."""
    leo = scenario.leos[b]
    track = leo.track[: scenario.n_slots]
    position = leo.position + (t * leo.speed)[:, None] * track
    position = position + leo.pos_offset + t[:, None] * leo.vel_offset
    return position, leo.speed * track + leo.vel_offset


def _doppler_position_partial(dirs: np.ndarray, dists: np.ndarray, v_rel: np.ndarray) -> np.ndarray:
    """``(I - dir dir^T) @ v_rel / (c * dist)`` broadcast over leading axes."""
    proj = np.einsum("...i,...i->...", dirs, v_rel)
    perp = v_rel - proj[..., None] * dirs
    return perp / (_C * dists[..., None])


def _jacobians(
    scenario: Scenario,
    kind: LinkKind,
    k_times: np.ndarray,
    dirs: np.ndarray,
    dop_dirs: np.ndarray,
    dop_dists: np.ndarray,
    v_rel: np.ndarray,
) -> LinkJacobians:
    """All kappa1 partials of one link from its geometry.

    Receiver partials exist for links received by the array; satellite-offset
    partials for links transmitted by a satellite.  A satellite-receiver
    link's offset partials mirror its receiver partials.
    """
    k_fac = k_times[None, :, None]
    if kind is LinkKind.LEO_BS:
        dtau_dpcheck = -dirs / _C
        return LinkJacobians(
            dtau_dp=None,
            dtau_dvu=None,
            dtau_dphi=None,
            dtau_dpcheck=dtau_dpcheck,
            dtau_dvcheck=k_fac * dtau_dpcheck,
            dnu_dp=None,
            dnu_dvu=None,
            dnu_dpcheck=-_doppler_position_partial(dirs, dop_dists, v_rel[None, :, :]),
            dnu_dvcheck=dirs / _C,
        )
    receiver = scenario.receiver
    partials = rotation_matrix_partials(receiver.orientation)
    rotated = np.einsum("iab,ub->uia", partials, receiver.antenna_offsets)
    dtau_dp = dirs / _C
    dtau_dvu = k_fac * dirs / _C
    dnu_dp = _doppler_position_partial(dop_dirs, dop_dists, v_rel)
    dnu_dvu = -dop_dirs / _C
    satellite = kind is LinkKind.LEO_RX
    return LinkJacobians(
        dtau_dp=dtau_dp,
        dtau_dvu=dtau_dvu,
        dtau_dphi=np.einsum("uka,uia->uki", dirs, rotated) / _C,
        dtau_dpcheck=-dtau_dp if satellite else None,
        dtau_dvcheck=-dtau_dvu if satellite else None,
        dnu_dp=dnu_dp,
        dnu_dvu=dnu_dvu,
        dnu_dpcheck=-dnu_dp if satellite else None,
        dnu_dvcheck=-dnu_dvu if satellite else None,
    )


def _observables(scenario: Scenario, kind: LinkKind, index: int) -> LinkObservables:
    """The one broadcast pass: geometry, Doppler, weights and Jacobians."""
    grid = scenario.grid
    k_times = grid.slot_numbers() * grid.spacing_s
    if kind is LinkKind.LEO_BS:
        tx, v_rel = _leo_states(scenario, index, k_times)
        stations = np.array([bs.position for bs in scenario.bss]).reshape(-1, 1, 3)
        dirs, dists = _directions(tx[None, :, :], stations)
        dop_dirs, dop_dists = dirs, dists
        nu = np.vecdot(dirs, v_rel[None, :, :]) / _C
        props = scenario.leo_bs_signals[index]
        offsets = scenario.leo_bs_offsets[index]
        gain = scenario.leo_bs_gains[index]
    else:
        receiver = scenario.receiver
        centroid = receiver.position + k_times[:, None] * receiver.velocity
        if kind is LinkKind.LEO_RX:
            tx, v_leo = _leo_states(scenario, index, k_times)
            v_rel = v_leo - receiver.velocity
            props = scenario.leo_rx_signals[index]
            offsets = scenario.leo_rx_offsets[index]
            gain = scenario.leo_rx_gains[index]
        else:
            tx = scenario.bss[index].position
            v_rel = np.tile(-receiver.velocity, (scenario.n_slots, 1))
            props = scenario.bs_rx_signals[index]
            offsets = scenario.bs_rx_offset
            gain = scenario.bs_rx_gains[index]
        dop_dirs, dop_dists = _directions(tx, centroid)
        lever = receiver.antenna_offsets @ rotation_matrix(receiver.orientation).T
        dirs, dists = _directions(tx, centroid[None, :, :] + lever[:, None, :])
        nu = np.vecdot(dop_dirs, v_rel) / _C

    f_o = effective_frequency(props.carrier_freq, nu, offsets.freq_offset)
    return LinkObservables(
        kind=kind,
        index=index,
        dirs=dirs,
        dists=dists,
        dop_dirs=dop_dirs,
        dop_dists=dop_dists,
        v_rel=v_rel,
        nu=nu,
        f_o=f_o,
        omega=omega(props.eff_bandwidth, props.bcc, f_o),
        snr=props.snr_grid(dists.shape),
        k_times=k_times,
        eff_bandwidth=props.eff_bandwidth,
        bcc=props.bcc,
        rms_duration=props.rms_duration,
        carrier_freq=props.carrier_freq,
        gain=gain,
        jacobians=_jacobians(scenario, kind, k_times, dirs, dop_dirs, dop_dists, v_rel),
    )


def leo_rx_observables(scenario: Scenario, b: int) -> LinkObservables:
    """Observables of satellite ``b``'s downlink to the receiver array."""
    return _observables(scenario, LinkKind.LEO_RX, b)


def bs_rx_observables(scenario: Scenario, q: int) -> LinkObservables:
    """Observables of station ``q``'s link to the receiver array."""
    return _observables(scenario, LinkKind.BS_RX, q)


def leo_bs_observables(scenario: Scenario, b: int) -> LinkObservables:
    """Observables of satellite ``b``'s links to all base stations."""
    return _observables(scenario, LinkKind.LEO_BS, b)


def link_jacobians(scenario: Scenario, kind: LinkKind, index: int) -> LinkJacobians:
    """All kappa1 partials of one link."""
    if not isinstance(kind, LinkKind):
        raise ValueError(f"unknown link kind {kind!r}")
    return _observables(scenario, kind, index).jacobians


def link_observables(scenario: Scenario, case: Case) -> list[LinkObservables]:
    """Every link the case observes, in assembly order: satellite-receiver,
    station-receiver, then (with station observations) satellite-station."""
    kinds = [(LinkKind.LEO_RX, scenario.n_leo), (LinkKind.BS_RX, scenario.n_bs)]
    if case is Case.WITH_BS:
        kinds.append((LinkKind.LEO_BS, scenario.n_leo))
    return [_observables(scenario, kind, i) for kind, count in kinds for i in range(count)]
