"""Per-link observables and their parameter Jacobians (internal).

Everything downstream — the factor and closed-form routes, and the dense
oracle's channel information matrices and ``Upsilon`` — reads links as
batches (:class:`_Batch`), one per link kind, which carry only each link's
delay/Doppler weights and partials; a link is member ``m`` of its kind's
batch, read at ``[trial, m]``.  The mapping from scene geometry to delays,
Doppler shifts, weights and their partials lives in exactly one place,
:func:`_link_pass`, and is evaluated once per link kind, as one broadcast
pass over ``(trial, member, element, slot, 3)`` arrays: every satellite's
links of a kind go in one pass, and every station's links to the array in
one.  The receiver-array geometry the passes share (slot times,
reference-point track, antenna lever arms and their orientation partials)
and the satellites' per-slot states are computed once per call.  The pass
reads a :class:`.scenario._Scene`: a sweep's family of trials runs through
it at once as sampled (:func:`.scenario._sample`), and :func:`_scene`
converts a :class:`.Scenario` to the same type, its one-trial case
(:func:`link_observables`, and the single-link entry points, whose batches
hold one member).  Delays are evaluated per receive element (antenna, or
station for the satellite-station link); Doppler shifts are evaluated once
per slot at the array reference point for receiver links, and per station
otherwise.

Satellite positions include the ephemeris offsets: the constant position error
plus the velocity-offset drift ``k*dt*vel_offset``.

Partials are taken with respect to each link's receiving end (the array or
the station) and the array orientation; a satellite's offset partials are
their negation, applied by :func:`.location_fim.kappa1_blocks`, not stored.

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

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    _DEGENERATE_NORM,
    SPEED_OF_LIGHT_M_S,
    DegenerateGeometryError,
    _rotations,
)
from .scenario import Case, LinkKind, Scenario, _Scene
from .signals import SignalProps, _square, effective_frequency, omega

_C = SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class LinkJacobians:
    """Partials of one link's delays/Dopplers w.r.t. its receiving end's
    (array reference point's, or station's) position ``p`` and velocity ``v``
    and, for array links only, the array orientation ``phi``.

    Held by a :class:`_Batch` for its link kind: every array is ``(T, M,
    rows, n_slots, 3)`` over trials and members.  Delay arrays have a row
    per element (antenna, or station for satellite-station links); Doppler
    arrays have one row, the array reference point, for array links and a
    row per station for satellite-station links.
    """

    dtau_dp: np.ndarray
    dtau_dv: np.ndarray
    dtau_dphi: np.ndarray | None
    dnu_dp: np.ndarray
    dnu_dv: np.ndarray


def _directions(tx: np.ndarray, rx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions from ``tx`` toward ``rx`` and their ranges, broadcast
    over leading axes.

    Raises
    ------
    DegenerateGeometryError
        If any pair is closer than ~1 nm and no direction is defined, or so
        far apart that its range overflows a double.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned about
        diff = rx - tx
        dist = np.sqrt(np.vecdot(diff, diff))
    if not dist.max(initial=0.0) < np.inf:
        raise DegenerateGeometryError("a range overflows a double: coordinates too large")
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


def _leo_states(scene: _Scene) -> tuple[np.ndarray, np.ndarray]:
    """Offset-corrected positions and velocities ``(T, L, K, 3)`` per slot of
    a scene's satellites.  A position that overflows a double is left
    infinite (or NaN) without a warning: :func:`_directions` names it."""
    t, speed, track = scene.k_times, scene.leo_speed, scene.leo_track
    pos_offset, vel_offset = scene.leo_pos_offset[:, None, :], scene.leo_vel_offset[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        moved = scene.leo_position[..., None, :] + (t * speed[:, None])[..., None] * track
        moved = moved + pos_offset + t[:, None] * vel_offset
    return moved, speed[:, None, None] * track + vel_offset


def _scene(scenario: Scenario, leos: range, bss: range) -> _Scene:
    """The one-trial scene of a scenario's satellites ``leos`` and stations
    ``bss``."""
    receiver, n_slots = scenario.receiver, scenario.n_slots
    sats = [scenario.leos[b] for b in leos]
    return _Scene(
        position=receiver.position[None],
        velocity=receiver.velocity[None],
        euler=receiver.orientation.as_array()[None],
        antennas=receiver.antenna_offsets[None],
        leo_position=np.array([leo.position for leo in sats]).reshape(1, -1, 3),
        leo_speed=np.array([leo.speed for leo in sats], dtype=float),
        leo_track=np.array([leo.track[:n_slots] for leo in sats]).reshape(1, -1, n_slots, 3),
        leo_pos_offset=np.array([leo.pos_offset for leo in sats]).reshape(-1, 3),
        leo_vel_offset=np.array([leo.vel_offset for leo in sats]).reshape(-1, 3),
        bs_position=np.array([scenario.bss[q].position for q in bss]).reshape(1, -1, 3),
        k_times=scenario.grid.times(),
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


@dataclass(frozen=True)
class _Batch:
    """One link kind's observables over leading ``(trial, member)`` axes.

    Arrays lie on the grid ``(members, rows, slots)``: rows are antennas, or
    stations for satellite-station links, and an array link's Doppler
    observations have one row, the array reference point.  ``omega (T, M,
    rows, K)`` and the Jacobians ``(T, M, rows, K, 3)`` lead with the trial
    axis; ``snr (M, rows, K)`` holds in every trial, and so do ``carrier_sq``
    and ``half_ao2 (M, 1, 1)``, each member's squared carrier ``f_c^2`` and
    ``a_o^2 / 2`` (the Doppler weight's factors).  ``signals`` holds each
    member's properties.  The factor route (:mod:`.location_fim`) reads a
    batch as it is, each satellite an offset group and the stations one,
    and keeps the Doppler weights it computes for each sub-count in
    ``_weights``, read-only, for the batch's life.
    """

    kind: LinkKind
    omega: np.ndarray
    snr: np.ndarray
    jacobians: LinkJacobians
    signals: tuple[SignalProps, ...]
    carrier_sq: np.ndarray
    half_ao2: np.ndarray
    _weights: dict = field(default_factory=dict, init=False, compare=False, repr=False)


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
    leo_position, leo_velocity = _leo_states(scene)
    kinds = [kind for kind in kinds if scene.signals[kind]]
    if any(kind is not LinkKind.LEO_BS for kind in kinds):
        rotation, partials = _rotations(scene.euler)
        lever = scene.antennas @ rotation.mT
        # Lever-arm partials d(R u)_a / d(phi_i) of each antenna ``u``, as ``(i, T, U, a)``:
        # with the angle axis first, the orientation partials' products run along the slots.
        rotated = _dot3(np.moveaxis(partials, 1, 0)[:, :, None], scene.antennas[None, :, :, None])
        with np.errstate(over="ignore", invalid="ignore"):  # named by ``_directions``
            centroid = scene.position[:, None, :] + t[:, None] * scene.velocity[:, None, :]
            centroid = centroid[:, None, None]
            elements = centroid + lever[:, None, :, None, :]
    batches = []
    for kind in kinds:
        if kind is LinkKind.LEO_BS:
            tx = leo_position[:, :, None]
            v_rel = leo_velocity[:, :, None]
            dirs, dists = _directions(tx, scene.bs_position[:, None, :, None, :])
            dop_dirs, dop_dists = dirs, dists
        else:
            if kind is LinkKind.LEO_RX:
                tx = leo_position[:, :, None]
                v_rel = leo_velocity[:, :, None] - scene.velocity[:, None, None, None, :]
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
            carrier_sq=np.array([_square(p.carrier_freq) for p in signals]).reshape(-1, 1, 1),
            half_ao2=np.array([0.5 * _square(p.rms_duration) for p in signals]).reshape(-1, 1, 1),
        ))
    return batches


def _kinds(case: Case) -> list[LinkKind]:
    """The link kinds a case observes, in assembly order."""
    kinds = [LinkKind.LEO_RX, LinkKind.BS_RX]
    return kinds + [LinkKind.LEO_BS] if case is Case.WITH_BS else kinds


def leo_rx_observables(scenario: Scenario, b: int) -> _Batch:
    """Satellite ``b``'s downlink to the receiver array: a one-trial,
    one-member batch."""
    return _link_pass(_scene(scenario, range(b, b + 1), range(0)), [LinkKind.LEO_RX])[0]


def bs_rx_observables(scenario: Scenario, q: int) -> _Batch:
    """Station ``q``'s link to the receiver array: a one-trial, one-member
    batch."""
    return _link_pass(_scene(scenario, range(0), range(q, q + 1)), [LinkKind.BS_RX])[0]


def leo_bs_observables(scenario: Scenario, b: int) -> _Batch:
    """Satellite ``b``'s links to all base stations: a one-trial, one-member
    batch."""
    scene = _scene(scenario, range(b, b + 1), range(scenario.n_bs))
    return _link_pass(scene, [LinkKind.LEO_BS])[0]


def link_observables(scenario: Scenario, case: Case) -> list[_Batch]:
    """The one-trial link pass over every link the case observes: one batch
    per kind, in assembly order (satellite-receiver, station-receiver, then,
    with station observations, satellite-station), member ``m`` the kind's
    ``m``-th satellite or station."""
    return _link_pass(_scene(scenario, range(scenario.n_leo), range(scenario.n_bs)), _kinds(case))
