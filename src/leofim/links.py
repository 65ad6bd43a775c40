"""Per-link observables and their parameter Jacobians (internal).

Everything downstream — channel information matrices, ``Upsilon``,
information-loss terms — consumes links through these bundles, which carry
only each link's delay/Doppler weights and partials.  The mapping from
scene geometry to delays, Doppler shifts, weights and their partials
lives in exactly one place, :func:`_link_pass`, and is evaluated once per
link kind, as one broadcast pass over ``(trial, member, element, slot, 3)``
arrays: every satellite's links of a kind go in one pass, and every station's
links to the array in one.  The receiver-array geometry the passes share
(slot times, reference-point track, antenna lever arms and their orientation
partials) is computed once per call.  A sweep's family of trials runs through
it at once (:func:`_sampled_scene`); a :class:`.Scenario`'s links are its
one-trial case (:func:`link_observables` and the single-link entry points).
Delays are evaluated per receive element (antenna, or station for the
satellite-station link); Doppler shifts are evaluated once per slot at the
array reference point for receiver links, and per station otherwise.

Satellite positions include the ephemeris offsets: the constant position error
plus the velocity-offset drift ``k*dt*vel_offset``.

Partials are taken with respect to each link's receiving end (the array or
the station) and the array orientation; a satellite's offset partials are
their negation, applied by :func:`.transform.kappa1_blocks`, not stored.

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
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _DEGENERATE_NORM,
    SPEED_OF_LIGHT_M_S,
    DegenerateGeometryError,
    SlotGrid,
    _rotations,
)
from .scenario import Case, Scenario, ScenarioConfig, _link_signals, _Sample
from .signals import SignalProps, effective_frequency, omega

_C = SPEED_OF_LIGHT_M_S


class LinkKind(enum.Enum):
    LEO_RX = "leo_rx"
    BS_RX = "bs_rx"
    LEO_BS = "leo_bs"


@dataclass(frozen=True)
class LinkJacobians:
    """Partials of one link's delays/Dopplers w.r.t. its receiving end's
    (array reference point's, or station's) position ``p`` and velocity ``v``
    and, for array links only, the array orientation ``phi``.

    Delay arrays have shape ``(n_rows, n_slots, 3)``; Doppler arrays are
    ``(n_slots, 3)`` for array links and ``(n_rows, n_slots, 3)`` for
    satellite-station links.  A :class:`_Batch` holds a link kind's with
    leading ``(trial, member)`` axes.
    """

    dtau_dp: np.ndarray
    dtau_dv: np.ndarray
    dtau_dphi: np.ndarray | None
    dnu_dp: np.ndarray
    dnu_dv: np.ndarray


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


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last (length-3) axis of ``a * b``, broadcast over the
    leading axes, added as ``(a0*b0 + a2*b2) + a1*b1``.

    That is the order in which numpy 2.4's Einstein-summation kernel reduces
    a contiguous length-3 axis (two SIMD lanes: ``a0*b0 + a2*b2`` in one,
    ``a1*b1`` in the other), so the link pass's contractions keep the bits
    they had as Einstein sums; the plain order ``(a0*b0 + a1*b1) + a2*b2``
    differs in the last bit on about 30 % of entries.
    """
    return (a[..., 0] * b[..., 0] + a[..., 2] * b[..., 2]) + a[..., 1] * b[..., 1]


def _doppler_position_partial(dirs: np.ndarray, dists: np.ndarray, v_rel: np.ndarray) -> np.ndarray:
    """``(I - dir dir^T) @ v_rel / (c * dist)`` broadcast over leading axes."""
    proj = _dot3(dirs, v_rel)
    perp = v_rel - proj[..., None] * dirs
    return perp / (_C * dists[..., None])


@dataclass(frozen=True)
class _Scene:
    """What the link pass reads, trial axis first: the receiver's
    ``position``, ``velocity`` and Euler angles ``euler (T, 3)`` and body-frame
    ``antennas (T, U, 3)``; the satellites' offset-corrected positions and
    velocities per slot ``leo_position``/``leo_velocity (T, L, K, 3)``; the
    station positions ``bs_position (T, Q, 3)``; the slot times ``k_times
    (K,)``; and per link kind, each member's signal properties and frequency
    offset (a member is a satellite, or a station for station-receiver
    links)."""

    position: np.ndarray
    velocity: np.ndarray
    euler: np.ndarray
    antennas: np.ndarray
    leo_position: np.ndarray
    leo_velocity: np.ndarray
    bs_position: np.ndarray
    k_times: np.ndarray
    signals: dict[LinkKind, tuple[SignalProps, ...]]
    freq_offsets: dict[LinkKind, tuple[float, ...]]


def _leo_states(
    position: np.ndarray,
    speed: np.ndarray,
    track: np.ndarray,
    pos_offset: np.ndarray,
    vel_offset: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Offset-corrected positions and velocities ``(T, L, K, 3)`` per slot of
    satellites with epoch positions ``(T, L, 3)``, speeds ``(L,)``, tracks
    ``(T, L, K, 3)`` and ephemeris offsets ``(L, 3)``."""
    pos_offset, vel_offset = pos_offset[:, None, :], vel_offset[:, None, :]
    moved = position[..., None, :] + (t * speed[:, None])[..., None] * track
    moved = moved + pos_offset + t[:, None] * vel_offset
    return moved, speed[:, None, None] * track + vel_offset


def _scene(scenario: Scenario, leos: range, bss: range) -> _Scene:
    """The one-trial scene of a scenario's satellites ``leos`` and stations
    ``bss``."""
    receiver, n_slots = scenario.receiver, scenario.n_slots
    k_times = scenario.grid.times()
    sats = [scenario.leos[b] for b in leos]
    leo_position, leo_velocity = _leo_states(
        np.array([leo.position for leo in sats]).reshape(1, -1, 3),
        np.array([leo.speed for leo in sats], dtype=float),
        np.array([leo.track[:n_slots] for leo in sats]).reshape(1, -1, n_slots, 3),
        np.array([leo.pos_offset for leo in sats]).reshape(-1, 3),
        np.array([leo.vel_offset for leo in sats]).reshape(-1, 3),
        k_times,
    )
    return _Scene(
        position=receiver.position[None],
        velocity=receiver.velocity[None],
        euler=receiver.orientation.as_array()[None],
        antennas=receiver.antenna_offsets[None],
        leo_position=leo_position,
        leo_velocity=leo_velocity,
        bs_position=np.array([scenario.bss[q].position for q in bss]).reshape(1, -1, 3),
        k_times=k_times,
        signals={
            LinkKind.LEO_RX: tuple(scenario.leo_rx_signals[b] for b in leos),
            LinkKind.BS_RX: tuple(scenario.bs_rx_signals[q] for q in bss),
            LinkKind.LEO_BS: tuple(scenario.leo_bs_signals[b] for b in leos),
        },
        freq_offsets={
            LinkKind.LEO_RX: tuple(scenario.leo_rx_offsets[b].freq_offset for b in leos),
            LinkKind.BS_RX: tuple(scenario.bs_rx_offset.freq_offset for _ in bss),
            LinkKind.LEO_BS: tuple(scenario.leo_bs_offsets[b].freq_offset for b in leos),
        },
    )


def _sampled_scene(config: ScenarioConfig, sample: _Sample) -> _Scene:
    """The scene of a family's sampled trials (:func:`.scenario._sample`) at
    ``config``: bit for bit the scenes of their :func:`.random_scenario`."""
    n_leo, n_bs = config.n_leo, config.n_bs
    k_times = SlotGrid(n_slots=config.n_slots, spacing_s=config.slot_spacing_s).times()
    no_offsets = np.zeros((n_leo, 3))
    leo_position, leo_velocity = _leo_states(
        sample.leo_position,
        np.full(n_leo, config.leo_speed_m_s, dtype=float),
        sample.leo_track,
        no_offsets,
        no_offsets,
        k_times,
    )
    kinds = (LinkKind.LEO_RX, LinkKind.BS_RX, LinkKind.LEO_BS)
    members = dict(zip(kinds, (n_leo, n_bs, n_leo)))
    return _Scene(
        position=sample.position,
        velocity=sample.velocity,
        euler=sample.euler,
        antennas=sample.antennas,
        leo_position=leo_position,
        leo_velocity=leo_velocity,
        bs_position=sample.bs_position,
        k_times=k_times,
        signals={
            kind: (props,) * members[kind] for kind, props in zip(kinds, _link_signals(config))
        },
        freq_offsets={kind: (0.0,) * count for kind, count in members.items()},
    )


@dataclass(frozen=True)
class _Batch:
    """One link kind's observables over leading ``(trial, member)`` axes.

    Arrays lie on the grid ``(members, rows, slots)``: rows are antennas, or
    stations for satellite-station links, and an array link's Doppler
    observations have one row, the array reference point.  ``omega (T, M,
    rows, K)`` and the Jacobians ``(T, M, rows, K, 3)`` lead with the trial
    axis; ``snr (M, rows, K)`` holds in every trial.  ``signals`` holds each
    member's properties.
    """

    kind: LinkKind
    omega: np.ndarray
    snr: np.ndarray
    jacobians: LinkJacobians
    signals: tuple[SignalProps, ...]


def _link_pass(scene: _Scene, kinds: list[LinkKind]) -> list[_Batch]:
    """The one broadcast pass: geometry, Doppler, weights and Jacobians of
    every member of each link kind in ``kinds`` (kinds without members are
    left out).

    ``dirs (T, M, rows, K, 3)`` and ``dists`` are the transmitter-to-element
    directions and ranges; ``dop_dirs``/``dop_dists``, ``nu`` and ``f_o`` are
    per Doppler observation (the array reference point for array links, where
    they differ from ``dirs``/``dists``); ``v_rel`` is transmitter minus
    receiver velocity, the convention under which a closing link has positive
    Doppler.
    """
    t = scene.k_times
    k_fac = t[:, None]
    kinds = [kind for kind in kinds if scene.signals[kind]]
    if any(kind is not LinkKind.LEO_BS for kind in kinds):
        rotation, partials = _rotations(scene.euler)
        centroid = scene.position[:, None, :] + t[:, None] * scene.velocity[:, None, :]
        centroid = centroid[:, None, None]
        lever = scene.antennas @ rotation.mT
        # Lever-arm partials d(R u)_a / d(phi_i) of each antenna ``u``, as ``(i, T, U, a)``:
        # with the angle axis first, the orientation partials' products run along the slots.
        rotated = _dot3(np.moveaxis(partials, 1, 0)[:, :, None], scene.antennas[None, :, :, None])
        elements = centroid + lever[:, None, :, None, :]
    batches = []
    for kind in kinds:
        if kind is LinkKind.LEO_BS:
            tx = scene.leo_position[:, :, None]
            v_rel = scene.leo_velocity[:, :, None]
            dirs, dists = _directions(tx, scene.bs_position[:, None, :, None, :])
            dop_dirs, dop_dists = dirs, dists
        else:
            if kind is LinkKind.LEO_RX:
                tx = scene.leo_position[:, :, None]
                v_rel = scene.leo_velocity[:, :, None] - scene.velocity[:, None, None, None, :]
            else:
                tx = scene.bs_position[:, :, None, None, :]
                v_rel = -scene.velocity[:, None, None, None, :]
            dop_dirs, dop_dists = _directions(tx, centroid)
            dirs, dists = _directions(tx, elements)

        nu = np.vecdot(dop_dirs, v_rel) / _C
        signals = scene.signals[kind]
        weights = np.empty(nu.shape)
        # Member by member: ``omega`` squares each member's bandwidth as a float.
        for m, (props, offset) in enumerate(zip(signals, scene.freq_offsets[kind])):
            f_o = effective_frequency(props.carrier_freq, nu[:, m], offset)
            weights[:, m] = omega(props.eff_bandwidth, props.bcc, f_o)
        array = kind is not LinkKind.LEO_BS
        dtau_dp = dirs / _C
        batches.append(_Batch(
            kind=kind,
            omega=weights,
            snr=np.stack([props.snr_grid(dists.shape[2:]) for props in signals]),
            jacobians=LinkJacobians(
                dtau_dp=dtau_dp,
                # The two orders differ in the last bit; each matches its kind's scalar oracle.
                dtau_dv=(k_fac * dirs) / _C if array else k_fac * dtau_dp,
                dtau_dphi=(
                    np.moveaxis(_dot3(dirs, rotated[:, :, None, :, None]), 0, -1) / _C
                    if array
                    else None
                ),
                dnu_dp=_doppler_position_partial(dop_dirs, dop_dists, v_rel),
                dnu_dv=-dop_dirs / _C,
            ),
            signals=signals,
        ))
    return batches


def _kinds(case: Case) -> list[LinkKind]:
    """The link kinds a case observes, in assembly order."""
    kinds = [LinkKind.LEO_RX, LinkKind.BS_RX]
    return kinds + [LinkKind.LEO_BS] if case is Case.WITH_BS else kinds


def _scenario_links(
    scenario: Scenario, kinds: list[LinkKind], leos: range, bss: range
) -> list[LinkObservables]:
    """The one-trial link pass over a scenario's satellites ``leos`` and
    stations ``bss``, one :class:`LinkObservables` per link, kind by kind."""
    links = []
    for batch in _link_pass(_scene(scenario, leos, bss), kinds):
        jac = batch.jacobians
        # An array link's Doppler observations have the one row of its reference point.
        row = slice(None) if batch.kind is LinkKind.LEO_BS else 0
        members = bss if batch.kind is LinkKind.BS_RX else leos
        for m, (index, props) in enumerate(zip(members, batch.signals)):
            links.append(LinkObservables(
                kind=batch.kind,
                index=index,
                omega=batch.omega[0, m, row],
                snr=batch.snr[m],
                rms_duration=props.rms_duration,
                carrier_freq=props.carrier_freq,
                jacobians=LinkJacobians(
                    dtau_dp=jac.dtau_dp[0, m],
                    dtau_dv=jac.dtau_dv[0, m],
                    dtau_dphi=None if jac.dtau_dphi is None else jac.dtau_dphi[0, m],
                    dnu_dp=jac.dnu_dp[0, m, row],
                    dnu_dv=jac.dnu_dv[0, m, row],
                ),
            ))
    return links


def leo_rx_observables(scenario: Scenario, b: int) -> LinkObservables:
    """Observables of satellite ``b``'s downlink to the receiver array."""
    return _scenario_links(scenario, [LinkKind.LEO_RX], range(b, b + 1), range(0))[0]


def bs_rx_observables(scenario: Scenario, q: int) -> LinkObservables:
    """Observables of station ``q``'s link to the receiver array."""
    return _scenario_links(scenario, [LinkKind.BS_RX], range(0), range(q, q + 1))[0]


def leo_bs_observables(scenario: Scenario, b: int) -> LinkObservables:
    """Observables of satellite ``b``'s links to all base stations."""
    return _scenario_links(scenario, [LinkKind.LEO_BS], range(b, b + 1), range(scenario.n_bs))[0]


def link_observables(scenario: Scenario, case: Case) -> list[LinkObservables]:
    """Every link the case observes, in assembly order: satellite-receiver,
    station-receiver, then (with station observations) satellite-station."""
    return _scenario_links(scenario, _kinds(case), range(scenario.n_leo), range(scenario.n_bs))
