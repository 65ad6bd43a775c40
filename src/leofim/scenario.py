"""Problem instances: one receiver, satellites, base stations, and link budgets.

A :class:`Scenario` is a fully specified estimation problem.  Instances can be
built directly from states, or sampled with :func:`random_scenario` which
reproduces the reference measurement campaign: satellites ~2000 km away moving
at 8 km/s with slot-to-slot direction changes, the receiver within tens of
meters of the origin moving at 25 m/s, and stationary base stations ~100 m out.

Randomness is driven by explicit SplitMix64 streams (Steele, Lea & Flood,
*Fast splittable pseudorandom number generators*, OOPSLA 2014), so scenarios
are bit-reproducible across platforms and numpy versions.  SplitMix64 is
counter-based: a stream with state ``s`` yields as its ``n``-th output
(``n >= 1``) ``mix(s + n*gamma mod 2**64)``, so any draw of any stream is one
uint64 array expression.  Each aspect of a scenario draws from its own child
stream, whose state is ``mix((seed ^ tag) + gamma)``, in a fixed layout:

* the receiver (tag ``_TAG_RECEIVER``): 7 draws, a position direction (2), a
  velocity direction (2), then yaw, pitch and roll;
* the antenna array (``_TAG_ANTENNAS``): 2 per antenna, its direction;
* satellite ``b`` (``_TAG_LEO + b``): 4, its epoch position direction (2) and
  base velocity direction (2), then 3 per slot, the tilt axis (2) and the
  tilt angle;
* station ``q`` (``_TAG_BS + q``): 2, its position direction.

A direction takes ``z`` uniform in [-1, 1) and an azimuth uniform in
[0, 2*pi) from consecutive draws.  Because the layout puts every antenna,
slot, satellite and station after the ones before it, sampling is nested: a
scenario at smaller counts (satellites, stations, antennas, slots) is bit for
bit a prefix of the larger one.  Growing the array keeps existing antennas in
place, which makes "more antennas never hurt" hold exactly, and lets
identifiability sweeps and ``n_ant`` parameter sweeps sample each trial once
per family of configurations, at the family's largest counts.  A family's
trials are sampled together (:func:`_sample`), one array expression per draw
kind with the trial axis first, into the scene the link pass reads
(:func:`.links._link_pass`); :func:`random_scenario` is its one-trial case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    BsState,
    EulerAngles,
    LeoState,
    ReceiverState,
    SlotGrid,
    SPEED_OF_LIGHT_M_S,
)
from .signals import SignalProps, rect_window_rms_duration, snr_from_db

_MASK64 = (1 << 64) - 1

# Fixed tags separating the per-aspect child streams of a scenario seed.
_TAG_RECEIVER = 0x52435652
_TAG_ANTENNAS = 0x414E5453
_TAG_LEO = 0x4C454F00
_TAG_BS = 0x42530000

# Largest accepted SNR in dB: 10**(dB/10) of a larger one overflows a double.
_MAX_SNR_DB = 3082.0


_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """SplitMix64's output mix of a state (a Python int or a uint64 array)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# Array streams.  Every operation stays on uint64 arrays with ndim >= 1, which
# wrap modulo 2**64: numpy uint64 *scalars* check overflow and raise under
# ``np.errstate(over="raise")``.


def _states(seeds) -> np.ndarray:
    """uint64 stream states ``(n,)`` of integer seeds."""
    return np.array([int(seed) & _MASK64 for seed in seeds], dtype=np.uint64).reshape(-1)


def _children(states: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """States of the child streams ``tags`` of unconsumed streams ``states``,
    broadcast: a child's state is the first output of the stream seeded
    ``state ^ tag``."""
    return _mix((states ^ tags) + np.uint64(_GAMMA))


def _draws(states: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` outputs ``(..., n)`` of unconsumed streams ``states``."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _mix(states[..., None] + steps)


def _uniform(bits: np.ndarray, low: float, high: float) -> np.ndarray:
    """The double in ``[low, high)`` of each output in ``bits``, built from
    its top 53 bits."""
    return low + (high - low) * ((bits >> 11).astype(np.float64) * 2.0**-53)


def _unit_vectors(bits: np.ndarray) -> np.ndarray:
    """Uniform directions on the unit sphere ``(..., 3)`` of consecutive
    output pairs ``bits (..., 2)``: ``z`` uniform in [-1, 1) from the first,
    the azimuth uniform in [0, 2*pi) from the second."""
    z = _uniform(bits[..., 0], -1.0, 1.0)
    theta = _uniform(bits[..., 1], 0.0, 2.0 * np.pi)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)


def derive_trial_seeds(seed: int, n_trials: int) -> list[int]:
    """Per-trial seeds for a sweep: the first ``n_trials`` outputs of ``seed``'s
    stream, so trial t is paired across sweep points."""
    return [int(x) for x in _draws(_states([seed]), n_trials)[0]]


class Case(enum.Enum):
    """Which observations the receiver can use."""

    WITH_BS = "with_bs"
    RECEIVER_ONLY = "receiver_only"


class LinkKind(enum.Enum):
    LEO_RX = "leo_rx"
    BS_RX = "bs_rx"
    LEO_BS = "leo_bs"


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the random scenario generator (reference campaign defaults)."""

    n_leo: int = 1
    n_bs: int = 3
    n_ant: int = 4
    n_slots: int = 3
    slot_spacing_s: float = 1.0
    carrier_freq_hz: float = 40e9
    eff_bandwidth_hz: float = 100e6
    bcc: float = 0.0
    observation_duration_s: float = 1e-3
    rms_duration_s: float | None = None
    snr_db: float = 20.0
    snr_db_leo_rx: float | None = None
    snr_db_bs_rx: float | None = None
    snr_db_leo_bs: float | None = None
    case: Case = Case.WITH_BS
    leo_distance_m: float = 2e6
    receiver_distance_m: float = 30.0
    bs_distance_m: float = 100.0
    leo_speed_m_s: float = 8000.0
    receiver_speed_m_s: float = 25.0
    leo_dir_perturb_rad: float = 0.1
    array_radius_wavelengths: float = 20.0

    def __post_init__(self):
        for label, minimum in (("n_leo", 1), ("n_bs", 0), ("n_ant", 1), ("n_slots", 1)):
            value = getattr(self, label)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{label} must be an integer, got {value!r}")
            if value < minimum:
                raise ValueError(f"{label} must be >= {minimum}, got {value}")
        for label in (
            "slot_spacing_s",
            "carrier_freq_hz",
            "observation_duration_s",
            "leo_distance_m",
            "receiver_distance_m",
            "bs_distance_m",
        ):
            value = getattr(self, label)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{label} must be positive, got {value}")
        for label in (
            "eff_bandwidth_hz",
            "leo_speed_m_s",
            "receiver_speed_m_s",
            "leo_dir_perturb_rad",
            "array_radius_wavelengths",
        ):
            value = getattr(self, label)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{label} must be >= 0, got {value}")
            if label.endswith("speed_m_s") and value >= SPEED_OF_LIGHT_M_S:
                raise ValueError(f"{label} must be slower than light, got {value}")
        if not (math.isfinite(self.bcc) and abs(self.bcc) <= 1.0):
            raise ValueError(f"bcc must lie in [-1, 1], got {self.bcc}")
        if self.rms_duration_s is not None and not (
            math.isfinite(self.rms_duration_s) and self.rms_duration_s > 0.0
        ):
            raise ValueError(f"rms_duration_s must be positive, got {self.rms_duration_s}")
        for label in ("snr_db", "snr_db_leo_rx", "snr_db_bs_rx", "snr_db_leo_bs"):
            value = getattr(self, label)
            if value is None and label != "snr_db":
                continue  # a per-link SNR left unset falls back to snr_db
            if not (math.isfinite(value) and value <= _MAX_SNR_DB):
                raise ValueError(f"{label} must be finite and <= {_MAX_SNR_DB:g} dB, got {value}")
        if not isinstance(self.case, Case):
            raise ValueError(f"case must be a Case, got {self.case!r}")

    @property
    def effective_rms_duration_s(self) -> float:
        """Configured RMS duration, or the rectangular-window default."""
        if self.rms_duration_s is not None:
            return self.rms_duration_s
        return rect_window_rms_duration(self.observation_duration_s)

    def signal_props(self, snr_db: float | None = None) -> SignalProps:
        """Waveform/link properties, at ``snr_db`` or the shared default."""
        return SignalProps(
            eff_bandwidth=self.eff_bandwidth_hz,
            bcc=self.bcc,
            rms_duration=self.effective_rms_duration_s,
            snr_linear=snr_from_db(self.snr_db if snr_db is None else snr_db),
            carrier_freq=self.carrier_freq_hz,
        )


@dataclass(frozen=True)
class Scenario:
    """One fully specified estimation problem.

    Signal properties, each link's frequency offset included, are held per
    link: indexed by satellite for satellite-receiver and satellite-station
    links, by station for station-receiver links.  All base stations share a
    single receiver-side clock/frequency offset pair because the station
    network is mutually synchronized, so every ``bs_rx_signals`` entry must
    carry the same ``freq_offset``.
    """

    receiver: ReceiverState
    leos: tuple[LeoState, ...]
    bss: tuple[BsState, ...]
    grid: SlotGrid
    leo_rx_signals: tuple[SignalProps, ...]
    bs_rx_signals: tuple[SignalProps, ...]
    leo_bs_signals: tuple[SignalProps, ...]
    case: Case = Case.WITH_BS

    def __post_init__(self):
        object.__setattr__(self, "leos", tuple(self.leos))
        object.__setattr__(self, "bss", tuple(self.bss))
        object.__setattr__(self, "leo_rx_signals", tuple(self.leo_rx_signals))
        object.__setattr__(self, "bs_rx_signals", tuple(self.bs_rx_signals))
        object.__setattr__(self, "leo_bs_signals", tuple(self.leo_bs_signals))
        if len(self.leos) < 1:
            raise ValueError("scenario needs at least one satellite")
        if len(self.leo_rx_signals) != self.n_leo:
            raise ValueError("need one satellite-receiver SignalProps per satellite")
        if len(self.bs_rx_signals) != self.n_bs:
            raise ValueError("need one station-receiver SignalProps per station")
        if len({props.freq_offset for props in self.bs_rx_signals}) > 1:
            raise ValueError("station-receiver links share one frequency offset")
        if len(self.leo_bs_signals) != self.n_leo:
            raise ValueError("need one satellite-station SignalProps per satellite")
        for leo in self.leos:
            if leo.track.shape[0] < self.grid.n_slots:
                raise ValueError("satellite track shorter than the slot grid")

    @property
    def n_leo(self) -> int:
        return len(self.leos)

    @property
    def n_bs(self) -> int:
        return len(self.bss)

    @property
    def n_ant(self) -> int:
        return self.receiver.n_antennas

    @property
    def n_slots(self) -> int:
        return self.grid.n_slots


@dataclass(frozen=True)
class _Scene:
    """What the link pass reads, trial axis first: the receiver's
    ``position``, ``velocity`` and Euler angles ``euler`` (yaw, pitch, roll)
    ``(T, 3)`` and body-frame ``antennas (T, U, 3)``; the satellites' epoch
    positions ``leo_position (T, L, 3)``, speeds ``leo_speed (L,)``, unit
    velocity directions per slot ``leo_track (T, L, K, 3)`` and ephemeris
    offsets ``leo_pos_offset``/``leo_vel_offset (L, 3)``; the station
    positions ``bs_position (T, Q, 3)``; the slot times ``k_times (K,)``; and
    per link kind, each member's signal properties, its frequency offset
    included (a member is a satellite, or a station for station-receiver
    links)."""

    position: np.ndarray
    velocity: np.ndarray
    euler: np.ndarray
    antennas: np.ndarray
    leo_position: np.ndarray
    leo_speed: np.ndarray
    leo_track: np.ndarray
    leo_pos_offset: np.ndarray
    leo_vel_offset: np.ndarray
    bs_position: np.ndarray
    k_times: np.ndarray
    signals: dict[LinkKind, tuple[SignalProps, ...]]


def _sample(config: ScenarioConfig, seeds) -> _Scene:
    """The scene of one trial per seed at ``config``'s counts, every draw of
    every trial in one array pass (draw layout in the module docstring), with
    no ephemeris or frequency offsets and every link of a kind given its
    kind's signal properties.

    Each satellite's track is a base direction tilted independently each slot
    by up to ``leo_dir_perturb_rad``: one Rodrigues rotation per slot about a
    random axis.
    """
    roots = _states(seeds)[:, None]
    n_leo, n_ant, n_slots = config.n_leo, config.n_ant, config.n_slots

    rx = _draws(_children(roots, np.uint64(_TAG_RECEIVER))[:, 0], 7)
    angles = np.stack([
        _uniform(rx[:, 4], -np.pi, np.pi),
        _uniform(rx[:, 5], -0.49 * np.pi, 0.49 * np.pi),
        _uniform(rx[:, 6], -np.pi, np.pi),
    ], axis=-1)

    ant = _draws(_children(roots, np.uint64(_TAG_ANTENNAS))[:, 0], 2 * n_ant)
    radius = config.array_radius_wavelengths * SPEED_OF_LIGHT_M_S / config.carrier_freq_hz

    leo_tags = np.arange(n_leo, dtype=np.uint64) + np.uint64(_TAG_LEO)
    leo = _draws(_children(roots, leo_tags), 4 + 3 * n_slots)
    base = _unit_vectors(leo[..., 2:4])[..., None, :]
    slots = leo[..., 4:].reshape(*leo.shape[:2], n_slots, 3)
    axis = _unit_vectors(slots[..., :2])
    tilt = config.leo_dir_perturb_rad * _uniform(slots[..., 2], 0.0, 1.0)
    c, s = np.cos(tilt)[..., None], np.sin(tilt)[..., None]
    track = c * base + s * np.cross(axis, base) + (1.0 - c) * np.vecdot(axis, base)[..., None] * axis

    bs_tags = np.arange(config.n_bs, dtype=np.uint64) + np.uint64(_TAG_BS)
    bs = _draws(_children(roots, bs_tags), 2)
    kinds = (LinkKind.LEO_RX, LinkKind.BS_RX, LinkKind.LEO_BS)
    members = dict(zip(kinds, (n_leo, config.n_bs, n_leo)))
    snrs_db = (config.snr_db_leo_rx, config.snr_db_bs_rx, config.snr_db_leo_bs)
    return _Scene(
        position=config.receiver_distance_m * _unit_vectors(rx[:, 0:2]),
        velocity=config.receiver_speed_m_s * _unit_vectors(rx[:, 2:4]),
        euler=angles,
        antennas=radius * _unit_vectors(ant.reshape(-1, n_ant, 2)),
        leo_position=config.leo_distance_m * _unit_vectors(leo[..., 0:2]),
        leo_speed=np.full(n_leo, config.leo_speed_m_s, dtype=float),
        leo_track=track / np.linalg.norm(track, axis=-1, keepdims=True),
        leo_pos_offset=np.zeros((n_leo, 3)),
        leo_vel_offset=np.zeros((n_leo, 3)),
        bs_position=config.bs_distance_m * _unit_vectors(bs),
        k_times=SlotGrid(n_slots=n_slots, spacing_s=config.slot_spacing_s).times(),
        signals={
            kind: (config.signal_props(snr_db),) * members[kind]
            for kind, snr_db in zip(kinds, snrs_db)
        },
    )


def random_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Sample a scenario from the reference campaign distribution: the
    one-trial scene of :func:`_sample`, its link signals included, validated
    as a :class:`Scenario`.

    Parameters
    ----------
    config : ScenarioConfig
        Generator knobs (counts, distances, speeds, waveform).
    seed : int
        64-bit stream seed; equal seeds give bit-identical scenarios.

    Returns
    -------
    Scenario
    """
    scene = _sample(config, [seed])
    alpha, psi, phi = (float(angle) for angle in scene.euler[0])
    receiver = ReceiverState(
        position=scene.position[0],
        velocity=scene.velocity[0],
        orientation=EulerAngles(alpha=alpha, psi=psi, phi=phi),
        antenna_offsets=scene.antennas[0],
    )
    leos = tuple(
        LeoState(position=position, speed=config.leo_speed_m_s, track=track)
        for position, track in zip(scene.leo_position[0], scene.leo_track[0])
    )
    bss = tuple(BsState(position=position) for position in scene.bs_position[0])
    return Scenario(
        receiver=receiver,
        leos=leos,
        bss=bss,
        grid=SlotGrid(n_slots=config.n_slots, spacing_s=config.slot_spacing_s),
        leo_rx_signals=scene.signals[LinkKind.LEO_RX],
        bs_rx_signals=scene.signals[LinkKind.BS_RX],
        leo_bs_signals=scene.signals[LinkKind.LEO_BS],
        case=config.case,
    )
