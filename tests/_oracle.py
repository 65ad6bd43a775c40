"""Scalar oracles: one point, one slot, one draw at a time.

The link pass in ``leofim.links`` evaluates every (element, slot) pair in one
broadcast.  These per-pair primitives are the independent reference it is
checked against bit for bit (``test_links``), and the evaluation path of the
finite-difference Jacobians (``_fd``).  Slot numbers run 1..``n_slots``; slot
0 is the reference epoch at which every track parameter is defined.

:class:`SplitMix64` is the scalar reference of the sampler's array streams
(``leofim.scenario._draws``, ``_children``, ``_uniform`` and
``_unit_vectors``), checked bit for bit in ``test_scenario``.

:func:`link_weights`, :func:`link_rows` and :func:`closed_form` are the
closed-form route one link at a time: each link's own rows and weights, and
the station links' shared offset pair pooled as ``m`` and ``n`` sums.  A
link is one member of a one-trial batch of ``leofim.links`` (the batches of
``link_observables``, or a single-link entry point's one-member batch), read
at ``[0, m]`` (:func:`link_members` lists them).  The factor route's
batched rows and weights (``location_fim._groups``) are checked against the
first two bit for bit (``test_factor_route``, ``test_links``), and the
library's closed form against the third; ``tools/bitexact_corpus.py`` hashes
each link's rows.
"""

from __future__ import annotations

import numpy as np

from leofim.geometry import (
    _DEGENERATE_NORM,
    SPEED_OF_LIGHT_M_S,
    DegenerateGeometryError,
    LeoState,
    ReceiverState,
    SlotGrid,
    _rotations,
    as_vec3,
)
from leofim.linalg import sym
from leofim.links import LinkKind, _Batch
from leofim.location_fim import LocationLayout, kappa1_blocks
from leofim.scenario import _GAMMA, _MASK64, _mix
from leofim.signals import _square


def time_of(grid: SlotGrid, k: int) -> float:
    """Elapsed time of slot number ``k`` (0 = reference epoch)."""
    if not 0 <= k <= grid.n_slots:
        raise ValueError(f"slot number {k} outside [0, {grid.n_slots}]")
    return k * grid.spacing_s


def velocity_at(leo: LeoState, k: int, include_offset: bool = False) -> np.ndarray:
    """Satellite velocity during slot number ``k`` (optionally plus offset)."""
    if not 1 <= k <= leo.track.shape[0]:
        raise ValueError(f"slot number {k} outside [1, {leo.track.shape[0]}]")
    v = leo.speed * leo.track[k - 1]
    return v + leo.vel_offset if include_offset else v


def receiver_reference(receiver: ReceiverState, k: int, grid: SlotGrid) -> np.ndarray:
    """World-frame array reference point (rotation center) at slot ``k``."""
    return receiver.position + time_of(grid, k) * receiver.velocity


def antenna_position(receiver: ReceiverState, u: int, k: int, grid: SlotGrid) -> np.ndarray:
    """World-frame position of antenna ``u`` at slot ``k``:
    ``position + k*dt*velocity + Q @ antenna_offsets[u]``."""
    if not 0 <= u < receiver.n_antennas:
        raise ValueError(f"antenna index {u} outside [0, {receiver.n_antennas})")
    q = _rotations(receiver.orientation.as_array())[0]
    return receiver_reference(receiver, k, grid) + q @ receiver.antenna_offsets[u]


def leo_position(leo: LeoState, k: int, grid: SlotGrid, include_offset: bool = False) -> np.ndarray:
    """Satellite position at slot number ``k`` (0 = epoch).

    With ``include_offset`` the constant ephemeris errors are applied:
    ``pos_offset + k*dt*vel_offset`` is added to the nominal track point, so a
    velocity offset accumulates into a position drift over the grid.
    """
    if leo.track.shape[0] < grid.n_slots:
        raise ValueError(f"track has {leo.track.shape[0]} slots, grid needs {grid.n_slots}")
    t = time_of(grid, k)
    point = leo.position if k == 0 else leo.position + t * leo.speed * leo.track[k - 1]
    if include_offset:
        point = point + leo.pos_offset + t * leo.vel_offset
    return point


def unit_direction(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Unit vector pointing from ``source`` toward ``target``.

    Raises
    ------
    DegenerateGeometryError
        If the two points are closer than ~1 nm and no direction is defined.
    """
    diff = as_vec3(target, "target") - as_vec3(source, "source")
    norm = float(np.linalg.norm(diff))
    if norm < _DEGENERATE_NORM:
        raise DegenerateGeometryError(f"points separated by {norm:.3e} m define no direction")
    return diff / norm


def delay(source: np.ndarray, target: np.ndarray) -> float:
    """One-way propagation delay between two points, in seconds."""
    diff = as_vec3(target, "target") - as_vec3(source, "source")
    return float(np.linalg.norm(diff)) / SPEED_OF_LIGHT_M_S


def doppler(direction: np.ndarray, v_rel: np.ndarray) -> float:
    """Dimensionless Doppler shift ``direction @ v_rel / c`` along a unit
    transmitter-to-receiver direction, for the relative velocity transmitter
    minus receiver; positive when the link is closing."""
    d = as_vec3(direction, "direction")
    return float(d @ as_vec3(v_rel, "v_rel")) / SPEED_OF_LIGHT_M_S


class SplitMix64:
    """SplitMix64 pseudo-random stream (Steele, Lea & Flood's mixing constants),
    one draw at a time: the scalar reference of the array streams the sampler
    uses.

    state advance: ``s += 0x9E3779B97F4A7C15``;
    output mix: ``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31``.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in [low, high) built from the top 53 bits."""
        u = self.next_u64() >> 11
        return low + (high - low) * (u * 2.0**-53)

    def unit_vector(self) -> np.ndarray:
        """Uniformly distributed direction on the unit sphere."""
        z = self.uniform(-1.0, 1.0)
        theta = self.uniform(0.0, 2.0 * np.pi)
        r = np.sqrt(max(0.0, 1.0 - z * z))
        return np.array([r * np.cos(theta), r * np.sin(theta), z])

    def child(self, tag: int) -> "SplitMix64":
        """Independent child stream for the given tag."""
        forked = SplitMix64(self._state ^ (int(tag) & _MASK64))
        return SplitMix64(forked.next_u64())


def link_members(batches: list[_Batch]) -> list[tuple[_Batch, int]]:
    """Every link of one-trial batches as ``(batch, member)``, in assembly
    order."""
    return [(batch, m) for batch in batches for m in range(len(batch.signals))]


def doppler_rows(kind: LinkKind) -> slice | int:
    """A link's Doppler rows in its batch: every station's for a
    satellite-station link; an array link's one row, the reference point,
    taken as an index so the per-link shape has no row axis."""
    return slice(None) if kind is LinkKind.LEO_BS else 0


def link_weights(batch: _Batch, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delay, Doppler and frequency-offset weights of link ``m`` of a
    one-trial batch, flat.

    Returns ``(w_tau, w_nu, w_eps)``: the delay weight ``snr * omega`` per
    observation, and the Doppler / offset weights ``snr_k * f_c^2 * a_o^2 / 2``
    and ``snr_k * a_o^2 / 2`` per Doppler observation (for array links
    ``snr_k`` sums the slot's SNR over the antennas, since the shift is
    common to the array).
    """
    snr, props = batch.snr[m], batch.signals[m]
    w_tau = snr * batch.omega[0, m]
    snr_dop = snr if batch.kind is LinkKind.LEO_BS else snr.sum(axis=0)
    half_ao2 = 0.5 * _square(props.rms_duration)
    w_nu = snr_dop * _square(props.carrier_freq) * half_ao2
    w_eps = snr_dop * half_ao2
    return w_tau.ravel(), w_nu.ravel(), w_eps.ravel()


def link_rows(
    layout: LocationLayout, batch: _Batch, m: int, index: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobian rows in interest coordinates of link ``m`` of a one-trial
    batch, whose satellite (if any) is ``index``.

    Returns ``g_tau (n_delays, dim_interest)`` and ``g_nu (n_dopplers,
    dim_interest)``: row ``i`` is the gradient of observation ``i`` with
    respect to kappa1, zero outside the blocks the link informs.
    """
    g_tau = np.zeros((batch.snr[m].size, layout.dim_interest))
    g_nu = np.zeros((batch.omega[0, m].size, layout.dim_interest))
    for cols, dtau, dnu, put in kappa1_blocks(layout, batch, index):
        put(g_tau[:, cols], dtau[0, m].reshape(-1, 3))
        if dnu is not None:
            put(g_nu[:, cols], dnu[0, m].reshape(-1, 3))
    return g_tau, g_nu


def closed_form(layout: LocationLayout, batches: list[_Batch]) -> tuple[np.ndarray, np.ndarray]:
    """Interest FIM ``sum g^T diag(w) g`` and information loss of a scenario's
    one-trial ``batches``, link by link, in one pass.

    Each clock offset loses ``m m^T / n`` with ``m = w_tau @ g_tau``,
    ``n = sum w_tau``; each frequency offset with ``m = (f_c w_eps) @ g_nu``,
    ``n = sum w_eps``.  Station-receiver links share one offset pair and pool
    ``m`` and ``n`` first.  An offset with ``n <= 0`` is unobserved (``m`` is
    zero too) and loses nothing.
    """
    dim = layout.dim_interest
    interest = np.zeros((dim, dim))
    loss = np.zeros((dim, dim))
    shared = [(np.zeros(dim), 0.0)] * 2
    offsets = []
    for batch, member in link_members(batches):
        w_tau, w_nu, w_eps = link_weights(batch, member)
        g_tau, g_nu = link_rows(layout, batch, member, member)
        interest += g_tau.T @ (w_tau[:, None] * g_tau) + g_nu.T @ (w_nu[:, None] * g_nu)
        f_c = batch.signals[member].carrier_freq
        pair = [(w_tau @ g_tau, w_tau.sum()), ((f_c * w_eps) @ g_nu, w_eps.sum())]
        if batch.kind is LinkKind.BS_RX:
            shared = [(m + m_s, n + n_s) for (m, n), (m_s, n_s) in zip(pair, shared)]
        else:
            offsets += pair
    for m, n in offsets + shared:
        if n > 0.0:
            loss += np.outer(m, m) / n
    return sym(interest), loss
