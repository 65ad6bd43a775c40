"""Scene geometry: receiver / satellite / base-station states and rotations.

All positions are expressed in a shared Cartesian frame in meters, velocities
in m/s, and time in seconds.  The receiver follows a constant-velocity track
sampled on a uniform slot grid; each satellite follows a piecewise track whose
velocity direction may change from slot to slot; base stations are stationary.
The tracks are evaluated, for every (element, slot) pair at once, by the link
pass in :mod:`.links`.

Orientation uses intrinsic z-y-x Euler angles (yaw ``alpha``, pitch ``psi``,
roll ``phi``), composed as ``Q = R_z(alpha) @ R_y(psi) @ R_x(phi)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0
"""Propagation speed used for all delay/Doppler conversions (m/s, exact)."""

_DEGENERATE_NORM = 1e-9


class DegenerateGeometryError(ValueError):
    """Raised when two scene points (nearly) coincide and no direction exists."""


def as_vec3(value, name: str = "vector") -> np.ndarray:
    """Validate and convert ``value`` to a float64 array of shape (3,).

    Parameters
    ----------
    value : array_like
        Sequence of three finite numbers.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        Float64 copy with shape ``(3,)``.
    """
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


@dataclass(frozen=True)
class EulerAngles:
    """Intrinsic z-y-x Euler angles (radians): yaw, pitch, roll."""

    alpha: float
    psi: float
    phi: float

    def __post_init__(self):
        for label in ("alpha", "psi", "phi"):
            if not np.isfinite(getattr(self, label)):
                raise ValueError(f"angle {label} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.psi, self.phi], dtype=float)


def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """Rotation matrix ``Q = R_z(alpha) @ R_y(psi) @ R_x(phi)``.

    Parameters
    ----------
    angles : EulerAngles
        Yaw / pitch / roll in radians.

    Returns
    -------
    numpy.ndarray
        Proper orthogonal matrix of shape ``(3, 3)``.
    """
    ca, sa = np.cos(angles.alpha), np.sin(angles.alpha)
    cp, sp = np.cos(angles.psi), np.sin(angles.psi)
    cr, sr = np.cos(angles.phi), np.sin(angles.phi)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def rotation_matrix_partials(angles: EulerAngles) -> np.ndarray:
    """Partial derivatives of the rotation matrix w.r.t. each Euler angle.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(3, 3, 3)``; entry ``[i]`` is ``dQ/d(angle_i)`` with
        angles ordered (alpha, psi, phi).
    """
    ca, sa = np.cos(angles.alpha), np.sin(angles.alpha)
    cp, sp = np.cos(angles.psi), np.sin(angles.psi)
    cr, sr = np.cos(angles.phi), np.sin(angles.phi)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    drz = np.array([[-sa, -ca, 0.0], [ca, -sa, 0.0], [0.0, 0.0, 0.0]])
    dry = np.array([[-sp, 0.0, cp], [0.0, 0.0, 0.0], [-cp, 0.0, -sp]])
    drx = np.array([[0.0, 0.0, 0.0], [0.0, -sr, -cr], [0.0, cr, -sr]])
    return np.stack([drz @ ry @ rx, rz @ dry @ rx, rz @ ry @ drx])


@dataclass(frozen=True)
class SlotGrid:
    """Uniform observation grid: ``n_slots`` slots spaced ``spacing_s`` apart.

    Slots are numbered 1..``n_slots`` and slot ``k`` occurs ``k*spacing_s``
    seconds after the reference epoch (slot number 0), at which all track
    parameters — positions, velocities, offsets — are defined.  The epoch
    itself is not observed.
    """

    n_slots: int
    spacing_s: float

    def __post_init__(self):
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {self.n_slots}")
        if not (np.isfinite(self.spacing_s) and self.spacing_s > 0.0):
            raise ValueError(f"spacing_s must be positive, got {self.spacing_s}")

    def slot_numbers(self) -> np.ndarray:
        """The observed slot numbers, ``[1, ..., n_slots]``."""
        return np.arange(1, self.n_slots + 1)


@dataclass(frozen=True)
class ReceiverState:
    """Receiver track and array description.

    ``antenna_offsets`` holds the body-frame antenna positions as rows
    (shape ``(n_antennas, 3)``); the world-frame position of antenna ``u`` at
    slot ``k`` is ``position + k*dt*velocity + Q @ antenna_offsets[u]``.
    """

    position: np.ndarray
    velocity: np.ndarray
    orientation: EulerAngles
    antenna_offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position, "position"))
        object.__setattr__(self, "velocity", as_vec3(self.velocity, "velocity"))
        offsets = np.asarray(self.antenna_offsets, dtype=float)
        if offsets.ndim != 2 or offsets.shape[1] != 3 or offsets.shape[0] < 1:
            raise ValueError(
                f"antenna_offsets must have shape (n_antennas, 3), got {offsets.shape}"
            )
        if not np.all(np.isfinite(offsets)):
            raise ValueError("antenna_offsets must be finite")
        object.__setattr__(self, "antenna_offsets", offsets)

    @property
    def n_antennas(self) -> int:
        return self.antenna_offsets.shape[0]


@dataclass(frozen=True)
class LeoState:
    """Satellite track with nominal motion plus constant ephemeris offsets.

    The nominal position at slot number ``k >= 1`` is
    ``position + k*dt*speed*track[k-1]``, where ``track`` holds one unit
    velocity direction per observed slot; ``position`` is the epoch (slot 0)
    point.  The true (offset-corrected) position additionally drifts by
    ``pos_offset + k*dt*vel_offset``; both offsets are constant over the grid.
    """

    position: np.ndarray
    speed: float
    track: np.ndarray
    pos_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vel_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position, "position"))
        if not (np.isfinite(self.speed) and self.speed >= 0.0):
            raise ValueError(f"speed must be non-negative, got {self.speed}")
        track = np.asarray(self.track, dtype=float)
        if track.ndim != 2 or track.shape[1] != 3 or track.shape[0] < 1:
            raise ValueError(f"track must have shape (n_slots, 3), got {track.shape}")
        norms = np.linalg.norm(track, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("track rows must be unit vectors")
        object.__setattr__(self, "track", track)
        object.__setattr__(self, "pos_offset", as_vec3(self.pos_offset, "pos_offset"))
        object.__setattr__(self, "vel_offset", as_vec3(self.vel_offset, "vel_offset"))


@dataclass(frozen=True)
class BsState:
    """Stationary base station."""

    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position, "position"))
