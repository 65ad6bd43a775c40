"""Per-link observables and their parameter Jacobians (internal).

Everything downstream — channel information matrices, ``Upsilon``,
information-loss terms — consumes links through these bundles, which carry
only each link's delay/Doppler weights and kappa1 Jacobians.  The mapping from
scene geometry to delays, Doppler shifts, weights and their kappa1 partials
lives in exactly one place and is evaluated once per link, as one
broadcast pass over ``(element, slot, 3)`` arrays; the receiver-array geometry
the passes share (slot times, reference-point track, antenna lever arms and
their orientation partials) is computed once per scenario.  Delays are
evaluated per receive element (antenna, or station for the satellite-station
link); Doppler shifts are evaluated once per slot at the array reference point
for receiver links, and per station otherwise.

Satellite positions include the ephemeris offsets: the constant position error
plus the velocity-offset drift ``k*dt*vel_offset``.

Observations cover slot numbers 1..n_slots (times ``dt`` through
``n_slots*dt``); slot axis entry ``i`` holds slot number ``i+1``.  The epoch
(slot 0), where all track parameters are defined, is not observed.

The broadcast pass reproduces the per-pair scalar oracle in
``tests/_oracle.py`` bit for bit: 3-vector dots and norms go through
``np.vecdot`` (which matches the 1-D ``dot`` behind ``np.linalg.norm`` and
``@``), and every other operation is elementwise in the oracle's evaluation
order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from functools import cached_property

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
    """Weights and Jacobians of one link: what the channel FIM, ``Upsilon``
    and the closed-form EFIM read.

    The element axis runs over antennas for links received by the array and
    over stations for a satellite's links to the station network; ``snr
    (n_rows, n_slots)`` is per delay observation.  ``omega`` has one entry per
    Doppler observation: shape ``(n_slots,)`` at the array reference point for
    array links, and the element grid ``(n_rows, n_slots)`` for
    satellite-station links.
    """

    kind: LinkKind
    index: int
    omega: np.ndarray
    snr: np.ndarray
    rms_duration: float
    carrier_freq: float
    jacobians: LinkJacobians

    @property
    def per_row_doppler(self) -> bool:
        """Whether Doppler shifts are observed per element (station links)."""
        return self.kind is LinkKind.LEO_BS


def _directions(tx: np.ndarray, rx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions from ``tx`` toward ``rx`` and their ranges, broadcast
    over leading axes.

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


class _ArrayGeometry:
    """Receiver-array quantities every link of a scenario shares: slot times
    ``k_times (n_slots,)`` and the reference-point track ``centroid
    (n_slots, 3)``, plus, computed on first use since satellite-station links
    need neither, the world-frame antenna lever arms ``lever (n_ant, 3)`` and
    their orientation partials ``rotated (n_ant, 3, 3)``."""

    def __init__(self, scenario: Scenario):
        self.receiver = receiver = scenario.receiver
        self.k_times = scenario.grid.slot_numbers() * scenario.grid.spacing_s
        self.centroid = receiver.position + self.k_times[:, None] * receiver.velocity

    @cached_property
    def lever(self) -> np.ndarray:
        return self.receiver.antenna_offsets @ rotation_matrix(self.receiver.orientation).T

    @cached_property
    def rotated(self) -> np.ndarray:
        partials = rotation_matrix_partials(self.receiver.orientation)
        return np.einsum("iab,ub->uia", partials, self.receiver.antenna_offsets)


def _jacobians(
    geometry: _ArrayGeometry,
    kind: LinkKind,
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
    k_fac = geometry.k_times[None, :, None]
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
    dtau_dp = dirs / _C
    dtau_dvu = k_fac * dirs / _C
    dnu_dp = _doppler_position_partial(dop_dirs, dop_dists, v_rel)
    dnu_dvu = -dop_dirs / _C
    satellite = kind is LinkKind.LEO_RX
    return LinkJacobians(
        dtau_dp=dtau_dp,
        dtau_dvu=dtau_dvu,
        dtau_dphi=np.einsum("uka,uia->uki", dirs, geometry.rotated) / _C,
        dtau_dpcheck=-dtau_dp if satellite else None,
        dtau_dvcheck=-dtau_dvu if satellite else None,
        dnu_dp=dnu_dp,
        dnu_dvu=dnu_dvu,
        dnu_dpcheck=-dnu_dp if satellite else None,
        dnu_dvcheck=-dnu_dvu if satellite else None,
    )


def _observables(
    scenario: Scenario, geometry: _ArrayGeometry, kind: LinkKind, index: int
) -> LinkObservables:
    """The one broadcast pass: geometry, Doppler, weights and Jacobians.

    ``dirs (n_rows, n_slots, 3)`` and ``dists (n_rows, n_slots)`` are the
    transmitter-to-element directions and ranges; ``dop_dirs``/``dop_dists``,
    ``nu`` and ``f_o`` are per Doppler observation (the array reference point
    for array links, where they differ from ``dirs``/``dists``); ``v_rel
    (n_slots, 3)`` is transmitter minus receiver velocity, the convention
    under which a closing link has positive Doppler.
    """
    k_times = geometry.k_times
    if kind is LinkKind.LEO_BS:
        tx, v_rel = _leo_states(scenario, index, k_times)
        stations = np.array([bs.position for bs in scenario.bss]).reshape(-1, 1, 3)
        dirs, dists = _directions(tx[None, :, :], stations)
        dop_dirs, dop_dists = dirs, dists
        nu = np.vecdot(dirs, v_rel[None, :, :]) / _C
        props = scenario.leo_bs_signals[index]
        offsets = scenario.leo_bs_offsets[index]
    else:
        receiver = scenario.receiver
        if kind is LinkKind.LEO_RX:
            tx, v_leo = _leo_states(scenario, index, k_times)
            v_rel = v_leo - receiver.velocity
            props = scenario.leo_rx_signals[index]
            offsets = scenario.leo_rx_offsets[index]
        else:
            tx = scenario.bss[index].position
            v_rel = np.tile(-receiver.velocity, (scenario.n_slots, 1))
            props = scenario.bs_rx_signals[index]
            offsets = scenario.bs_rx_offset
        dop_dirs, dop_dists = _directions(tx, geometry.centroid)
        dirs, dists = _directions(tx, geometry.centroid[None, :, :] + geometry.lever[:, None, :])
        nu = np.vecdot(dop_dirs, v_rel) / _C

    f_o = effective_frequency(props.carrier_freq, nu, offsets.freq_offset)
    return LinkObservables(
        kind=kind,
        index=index,
        omega=omega(props.eff_bandwidth, props.bcc, f_o),
        snr=props.snr_grid(dists.shape),
        rms_duration=props.rms_duration,
        carrier_freq=props.carrier_freq,
        jacobians=_jacobians(geometry, kind, dirs, dop_dirs, dop_dists, v_rel),
    )


def leo_rx_observables(scenario: Scenario, b: int) -> LinkObservables:
    """Observables of satellite ``b``'s downlink to the receiver array."""
    return _observables(scenario, _ArrayGeometry(scenario), LinkKind.LEO_RX, b)


def bs_rx_observables(scenario: Scenario, q: int) -> LinkObservables:
    """Observables of station ``q``'s link to the receiver array."""
    return _observables(scenario, _ArrayGeometry(scenario), LinkKind.BS_RX, q)


def leo_bs_observables(scenario: Scenario, b: int) -> LinkObservables:
    """Observables of satellite ``b``'s links to all base stations."""
    return _observables(scenario, _ArrayGeometry(scenario), LinkKind.LEO_BS, b)


def link_jacobians(scenario: Scenario, kind: LinkKind, index: int) -> LinkJacobians:
    """All kappa1 partials of one link."""
    if not isinstance(kind, LinkKind):
        raise ValueError(f"unknown link kind {kind!r}")
    return _observables(scenario, _ArrayGeometry(scenario), kind, index).jacobians


def link_observables(scenario: Scenario, case: Case) -> list[LinkObservables]:
    """Every link the case observes, in assembly order: satellite-receiver,
    station-receiver, then (with station observations) satellite-station."""
    kinds = [(LinkKind.LEO_RX, scenario.n_leo), (LinkKind.BS_RX, scenario.n_bs)]
    if case is Case.WITH_BS:
        kinds.append((LinkKind.LEO_BS, scenario.n_leo))
    geometry = _ArrayGeometry(scenario)
    return [
        _observables(scenario, geometry, kind, i) for kind, count in kinds for i in range(count)
    ]


def _truncated_link(obs: LinkObservables, n_rows: int, n_slots: int) -> LinkObservables:
    """The link on its first ``n_rows`` elements and ``n_slots`` slots, bit for
    bit the link sampled at those counts.  ``snr`` and the delay partials are
    ``(rows, slots[, 3])`` grids; ``omega`` and the Doppler partials are per
    element for satellite-station links and per slot for array links."""
    grid = np.s_[:n_rows, :n_slots]
    doppler = grid if obs.per_row_doppler else np.s_[:n_slots]
    partials = {f.name: getattr(obs.jacobians, f.name) for f in fields(LinkJacobians)}
    jacobians = LinkJacobians(**{
        name: None if value is None else value[grid if name.startswith("dtau") else doppler]
        for name, value in partials.items()
    })
    return replace(obs, snr=obs.snr[grid], omega=obs.omega[doppler], jacobians=jacobians)


def select_links(
    links: list[LinkObservables], n_leo: int, n_bs: int, n_ant: int, n_slots: int
) -> list[LinkObservables]:
    """The links of a sub-count from a scenario's full ``link_observables``
    list, in its assembly order; valid because sampling is nested (a smaller
    count's scenario is a prefix of the larger one's, see :mod:`.scenario`)."""
    counts = {LinkKind.LEO_RX: n_leo, LinkKind.BS_RX: n_bs, LinkKind.LEO_BS: n_leo}
    return [
        _truncated_link(obs, n_bs if obs.per_row_doppler else n_ant, n_slots)
        for obs in links
        if obs.index < counts[obs.kind]
    ]
