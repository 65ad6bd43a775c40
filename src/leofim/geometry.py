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

import math
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
            if not math.isfinite(getattr(self, label)):
                raise ValueError(f"angle {label} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.psi, self.phi], dtype=float)


def _rotations(euler: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices ``Q (..., 3, 3)`` of Euler angles ``euler (..., 3)``
    (yaw, pitch, roll), and their partials ``(..., 3, 3, 3)``, entry ``[...,
    i, :, :]`` the derivative by angle ``i``."""
    ca, cp, cr = np.moveaxis(np.cos(euler), -1, 0)
    sa, sp, sr = np.moveaxis(np.sin(euler), -1, 0)
    zero, one = np.zeros_like(ca), np.ones_like(ca)

    def matrix(*entries: np.ndarray) -> np.ndarray:
        return np.stack(entries, axis=-1).reshape(*ca.shape, 3, 3)

    rz = matrix(ca, -sa, zero, sa, ca, zero, zero, zero, one)
    ry = matrix(cp, zero, sp, zero, one, zero, -sp, zero, cp)
    rx = matrix(one, zero, zero, zero, cr, -sr, zero, sr, cr)
    drz = matrix(-sa, -ca, zero, ca, -sa, zero, zero, zero, zero)
    dry = matrix(-sp, zero, cp, zero, zero, zero, -cp, zero, -sp)
    drx = matrix(zero, zero, zero, zero, -sr, -cr, zero, cr, -sr)
    partials = np.stack([drz @ ry @ rx, rz @ dry @ rx, rz @ ry @ drx], axis=-3)
    return rz @ ry @ rx, partials


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
        if not (math.isfinite(self.spacing_s) and self.spacing_s > 0.0):
            raise ValueError(f"spacing_s must be positive, got {self.spacing_s}")

    def slot_numbers(self) -> np.ndarray:
        """The observed slot numbers, ``[1, ..., n_slots]``."""
        return np.arange(1, self.n_slots + 1)

    def times(self) -> np.ndarray:
        """Elapsed times of the observed slots, ``[1, ..., n_slots] * spacing_s``."""
        return self.slot_numbers() * self.spacing_s


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
        if math.hypot(*self.velocity) >= SPEED_OF_LIGHT_M_S:
            raise ValueError(f"velocity must be slower than light, got {self.velocity} m/s")
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
        if self.speed >= SPEED_OF_LIGHT_M_S:
            raise ValueError(f"speed must be slower than light, got {self.speed} m/s")
        track = np.asarray(self.track, dtype=float)
        if track.ndim != 2 or track.shape[1] != 3 or track.shape[0] < 1:
            raise ValueError(f"track must have shape (n_slots, 3), got {track.shape}")
        norms = np.linalg.norm(track, axis=1)
        # np.allclose(norms, 1.0, atol=1e-9), written out: its default rtol is 1e-5.
        if not np.all(np.abs(norms - 1.0) <= 1e-9 + 1e-5):
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
