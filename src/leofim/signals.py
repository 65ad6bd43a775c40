"""Waveform summary statistics and link-budget quantities.

A transmitted pulse enters the bounds only through a handful of moments: its
effective (RMS) bandwidth, its bandwidth-duration cross-correlation, its RMS
time duration, and the post-processing SNR of the link.  Delay information
scales with the squared effective frequency moment ``omega`` and Doppler
information with ``carrier_freq**2 * rms_duration**2``.  One
:class:`SignalProps` describes one link, its receiver-side frequency offset
included: that offset shifts the effective carrier, and so ``omega``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def snr_from_db(snr_db: float) -> float:
    """Convert an SNR from dB to linear scale."""
    return float(10.0 ** (snr_db / 10.0))


def rect_window_rms_duration(duration_s: float) -> float:
    """RMS time duration of a rectangular envelope supported on [0, T].

    Args:
        duration_s: Window length T in seconds.

    Returns:
        ``T * sqrt(2/3)``, the RMS duration under this module's convention
        (second moment carries a factor 2).
    """
    if duration_s <= 0.0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    return duration_s * float(np.sqrt(2.0 / 3.0))


def effective_frequency(carrier_freq: float, nu: float, freq_offset: float) -> float:
    """Doppler-shifted carrier seen by the receiver, plus its clock skew.

    Args:
        carrier_freq: Nominal carrier in Hz.
        nu: Dimensionless Doppler shift of the link.
        freq_offset: Receiver-side frequency offset in Hz.

    Returns:
        ``carrier_freq * (1 - nu) + freq_offset`` in Hz.
    """
    return carrier_freq * (1.0 - nu) + freq_offset


def _square(value: float) -> np.float64:
    """``value**2`` as a numpy scalar power: the libm ``pow`` of Python's float
    power, so the same bits, but an overflow follows ``np.errstate`` (a CLI
    command's raises ``FloatingPointError``) instead of raising
    ``OverflowError``."""
    return np.float64(value) ** 2


def omega(eff_bandwidth: float, bcc: float, eff_freq: float) -> float:
    """Squared effective frequency moment governing delay information.

    Args:
        eff_bandwidth: RMS signal bandwidth alpha_1 in Hz.
        bcc: Bandwidth cross-correlation coefficient alpha_2, in [-1, 1].
        eff_freq: Effective carrier frequency of the link in Hz.

    Returns:
        ``eff_bandwidth**2 + 2*eff_freq*eff_bandwidth*bcc + eff_freq**2``,
        which is non-negative for any |bcc| <= 1 (it equals
        ``(eff_bandwidth*bcc + eff_freq)**2 + eff_bandwidth**2*(1 - bcc**2)``).
    """
    return _square(eff_bandwidth) + 2.0 * eff_freq * eff_bandwidth * bcc + eff_freq**2


@dataclass(frozen=True)
class SignalProps:
    """Waveform moments, SNR and receiver-side frequency offset of one link.

    ``snr_linear`` is either a scalar applied to every observation of the link
    or an array broadcastable to the link's (element, slot) observation grid,
    for per-observation SNR control.  The waveform moments are per-link
    scalars: the same pulse is transmitted in every slot.  ``freq_offset``
    (Hz) shifts the effective frequency and so the delay weight; the clock
    bias is a nuisance whose information, not its value, enters the bounds,
    so it is not held.
    """

    eff_bandwidth: float
    bcc: float
    rms_duration: float
    snr_linear: float | np.ndarray
    carrier_freq: float
    freq_offset: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eff_bandwidth) and self.eff_bandwidth >= 0.0):
            raise ValueError(f"eff_bandwidth must be >= 0, got {self.eff_bandwidth}")
        if not (math.isfinite(self.bcc) and abs(self.bcc) <= 1.0):
            raise ValueError(f"bcc must lie in [-1, 1], got {self.bcc}")
        if not (math.isfinite(self.rms_duration) and self.rms_duration > 0.0):
            raise ValueError(f"rms_duration must be > 0, got {self.rms_duration}")
        if not (math.isfinite(self.carrier_freq) and self.carrier_freq > 0.0):
            raise ValueError(f"carrier_freq must be > 0, got {self.carrier_freq}")
        if not math.isfinite(self.freq_offset):
            raise ValueError("freq_offset must be finite")
        snr = self.snr_linear
        if isinstance(snr, (float, int, np.number)):  # a scalar, checked without an array
            valid = math.isfinite(snr) and snr >= 0.0
        else:
            snr = np.asarray(snr, dtype=float)
            valid = np.all(np.isfinite(snr)) and np.all(snr >= 0.0)
        if not valid:
            raise ValueError("snr_linear entries must be finite and >= 0")

    def snr_grid(self, shape: tuple[int, ...]) -> np.ndarray:
        """SNR broadcast to one value per observation of the given grid shape."""
        return np.broadcast_to(np.asarray(self.snr_linear, dtype=float), shape)
