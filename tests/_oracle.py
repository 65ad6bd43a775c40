"""Scalar geometry oracle: one point, one slot at a time.

The link pass in ``leofim.links`` evaluates every (element, slot) pair in one
broadcast.  These per-pair primitives are the independent reference it is
checked against bit for bit (``test_links``), and the evaluation path of the
finite-difference Jacobians (``_fd``).  Slot numbers run 1..``n_slots``; slot
0 is the reference epoch at which every track parameter is defined.
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
    as_vec3,
    rotation_matrix,
)


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
    q = rotation_matrix(receiver.orientation)
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
