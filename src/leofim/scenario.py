"""Problem instances: one receiver, satellites, base stations, and link budgets.

A :class:`Scenario` is a fully specified estimation problem.  Instances can be
built directly from states, or sampled with :func:`random_scenario` which
reproduces the reference measurement campaign: satellites ~2000 km away moving
at 8 km/s with slot-to-slot direction changes, the receiver within tens of
meters of the origin moving at 25 m/s, and stationary base stations ~100 m out.

Randomness is driven by an explicit SplitMix64 stream so scenarios are
bit-reproducible across platforms and numpy versions.  Each aspect of a
scenario (receiver, antenna array, each satellite, each base station) draws
from its own child stream, and each satellite track is drawn slot by slot, so
sampling is nested: a scenario at smaller counts (satellites, stations,
antennas, slots) is bit for bit a prefix of the larger one.  Growing the array
keeps existing antennas in place, which makes "more antennas never hurt" hold
exactly, and identifiability sweeps sample each trial once, at the grid maxima.
"""

from __future__ import annotations

import enum
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
from .signals import OffsetParams, SignalProps, rect_window_rms_duration, snr_from_db

_MASK64 = (1 << 64) - 1

# Fixed tags separating the per-aspect child streams of a scenario seed.
_TAG_RECEIVER = 0x52435652
_TAG_ANTENNAS = 0x414E5453
_TAG_LEO = 0x4C454F00
_TAG_BS = 0x42530000

# Largest accepted SNR in dB: 10**(dB/10) of a larger one overflows a double.
_MAX_SNR_DB = 3082.0


class SplitMix64:
    """SplitMix64 pseudo-random stream (Steele, Lea & Flood's mixing constants).

    state advance: ``s += 0x9E3779B97F4A7C15``;
    output mix: ``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31``.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

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


def derive_trial_seeds(seed: int, n_trials: int) -> list[int]:
    """Per-trial seeds for a sweep: the first ``n_trials`` outputs of ``seed``'s
    stream, so trial t is paired across sweep points."""
    stream = SplitMix64(seed)
    return [stream.next_u64() for _ in range(n_trials)]


class Case(enum.Enum):
    """Which observations the receiver can use."""

    WITH_BS = "with_bs"
    RECEIVER_ONLY = "receiver_only"


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
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{label} must be positive, got {value}")
        for label in (
            "eff_bandwidth_hz",
            "leo_speed_m_s",
            "receiver_speed_m_s",
            "leo_dir_perturb_rad",
            "array_radius_wavelengths",
        ):
            value = getattr(self, label)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{label} must be >= 0, got {value}")
        if not (np.isfinite(self.bcc) and abs(self.bcc) <= 1.0):
            raise ValueError(f"bcc must lie in [-1, 1], got {self.bcc}")
        if self.rms_duration_s is not None and not (
            np.isfinite(self.rms_duration_s) and self.rms_duration_s > 0.0
        ):
            raise ValueError(f"rms_duration_s must be positive, got {self.rms_duration_s}")
        for label in ("snr_db", "snr_db_leo_rx", "snr_db_bs_rx", "snr_db_leo_bs"):
            value = getattr(self, label)
            if value is not None and not (np.isfinite(value) and value <= _MAX_SNR_DB):
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

    Signal properties and synchronization offsets are held per link: indexed
    by satellite for satellite-receiver and satellite-station links, by
    station for station-receiver links.  All base stations share a single
    receiver-side clock/frequency offset pair (``bs_rx_offset``) because the
    station network is mutually synchronized.
    """

    receiver: ReceiverState
    leos: tuple[LeoState, ...]
    bss: tuple[BsState, ...]
    grid: SlotGrid
    leo_rx_signals: tuple[SignalProps, ...]
    bs_rx_signals: tuple[SignalProps, ...]
    leo_bs_signals: tuple[SignalProps, ...]
    case: Case = Case.WITH_BS
    leo_rx_offsets: tuple[OffsetParams, ...] | None = None
    bs_rx_offset: OffsetParams = OffsetParams()
    leo_bs_offsets: tuple[OffsetParams, ...] | None = None

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
        if len(self.leo_bs_signals) != self.n_leo:
            raise ValueError("need one satellite-station SignalProps per satellite")
        for leo in self.leos:
            if leo.track.shape[0] < self.grid.n_slots:
                raise ValueError("satellite track shorter than the slot grid")
        for name in ("leo_rx_offsets", "leo_bs_offsets"):
            offsets = getattr(self, name)
            offsets = tuple(OffsetParams() for _ in self.leos) if offsets is None else tuple(offsets)
            object.__setattr__(self, name, offsets)
        if len(self.leo_rx_offsets) != self.n_leo or len(self.leo_bs_offsets) != self.n_leo:
            raise ValueError("need one OffsetParams per satellite and link type")

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


def _leo_track(stream: SplitMix64, n_slots: int, perturb_rad: float) -> np.ndarray:
    """Per-slot unit velocity directions: a base direction, independently tilted
    by up to ``perturb_rad`` each slot (one Rodrigues rotation per slot about a
    random axis, all slots in one broadcast)."""
    base = stream.unit_vector()
    axes, angles = [], []
    for _ in range(n_slots):
        axes.append(stream.unit_vector())
        angles.append(perturb_rad * stream.uniform())
    axis = np.asarray(axes)
    c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
    track = c * base + s * np.cross(axis, base) + (1.0 - c) * np.vecdot(axis, base)[:, None] * axis
    return track / np.linalg.norm(track, axis=1, keepdims=True)


def random_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Sample a scenario from the reference campaign distribution.

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
    root = SplitMix64(seed)

    rx_stream = root.child(_TAG_RECEIVER)
    position = config.receiver_distance_m * rx_stream.unit_vector()
    velocity = config.receiver_speed_m_s * rx_stream.unit_vector()
    orientation = EulerAngles(
        alpha=rx_stream.uniform(-np.pi, np.pi),
        psi=rx_stream.uniform(-0.49 * np.pi, 0.49 * np.pi),
        phi=rx_stream.uniform(-np.pi, np.pi),
    )

    ant_stream = root.child(_TAG_ANTENNAS)
    radius = config.array_radius_wavelengths * SPEED_OF_LIGHT_M_S / config.carrier_freq_hz
    offsets = np.asarray([radius * ant_stream.unit_vector() for _ in range(config.n_ant)])
    receiver = ReceiverState(
        position=position,
        velocity=velocity,
        orientation=orientation,
        antenna_offsets=offsets,
    )

    leos = []
    for b in range(config.n_leo):
        leo_stream = root.child(_TAG_LEO + b)
        leos.append(
            LeoState(
                position=config.leo_distance_m * leo_stream.unit_vector(),
                speed=config.leo_speed_m_s,
                track=_leo_track(leo_stream, config.n_slots, config.leo_dir_perturb_rad),
            )
        )

    bss = []
    for q in range(config.n_bs):
        bs_stream = root.child(_TAG_BS + q)
        bss.append(BsState(position=config.bs_distance_m * bs_stream.unit_vector()))

    leo_rx_props = config.signal_props(config.snr_db_leo_rx)
    bs_rx_props = config.signal_props(config.snr_db_bs_rx)
    leo_bs_props = config.signal_props(config.snr_db_leo_bs)
    return Scenario(
        receiver=receiver,
        leos=tuple(leos),
        bss=tuple(bss),
        grid=SlotGrid(n_slots=config.n_slots, spacing_s=config.slot_spacing_s),
        leo_rx_signals=tuple(leo_rx_props for _ in range(config.n_leo)),
        bs_rx_signals=tuple(bs_rx_props for _ in range(config.n_bs)),
        leo_bs_signals=tuple(leo_bs_props for _ in range(config.n_leo)),
        case=config.case,
    )
