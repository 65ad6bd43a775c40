"""Fisher information of the per-link channel parameters.

For every link the observable parameter vector is ordered as

    [delays (element-major, slot-minor), Doppler shifts, gain magnitude,
     clock offset, frequency offset]

with one Doppler per slot for links received by the antenna array (the shift
is common to all antennas) and one per (station, slot) for satellite-station
links.  Delay rows carry weight ``snr * omega``; Doppler rows carry
``snr * carrier**2 * rms_duration**2 / 2``.  A link's clock offset enters every
delay observation and its frequency offset every Doppler observation, so their
information accumulates across the link; gains are uncoupled from everything.
Gain magnitudes are fixed at 1: a gain's value moves only its own diagonal
entry, which the nuisance elimination discards.

The assembled multi-link matrix is block diagonal across links, with one
exception: all station-receiver links share a single receiver-side
(clock, frequency) offset pair, so their per-link offset rows accumulate into
one shared coordinate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import LinkKind, LinkObservables, link_observables
from .scenario import Scenario
from .signals import _square

_GAIN_INFO = 1.0 / (4.0 * np.pi**2)
"""Gain information per unit SNR: ``1 / (4 pi^2 |beta|^2)`` at the unit gain
magnitude every link is modeled with."""


@dataclass(frozen=True)
class ChannelLayout:
    """Index map of one link's parameter vector.

    ``n_rows`` counts receive elements (antennas, or stations for the
    satellite-station link); delays occupy a row-major (row, slot) grid.
    ``doppler_per_row`` distinguishes the per-(station, slot) Doppler grid of
    satellite-station links from the per-slot Doppler of array links.
    """

    n_rows: int
    n_slots: int
    doppler_per_row: bool = False

    @property
    def n_delays(self) -> int:
        return self.n_rows * self.n_slots

    @property
    def n_dopplers(self) -> int:
        return self.n_rows * self.n_slots if self.doppler_per_row else self.n_slots

    @property
    def delays(self) -> slice:
        return slice(0, self.n_delays)

    @property
    def dopplers(self) -> slice:
        return slice(self.n_delays, self.n_delays + self.n_dopplers)

    @property
    def gain(self) -> int:
        return self.n_delays + self.n_dopplers

    @property
    def time_offset(self) -> int:
        return self.gain + 1

    @property
    def freq_offset(self) -> int:
        return self.time_offset + 1

    @property
    def dim(self) -> int:
        return self.freq_offset + 1


@dataclass(frozen=True)
class LinkFim:
    """Fisher information of one link's channel parameters, with the link's
    observables and Jacobians so later stages need not re-evaluate them."""

    matrix: np.ndarray
    layout: ChannelLayout
    obs: LinkObservables


def _running_total(values: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, added one term after another from zero in
    index order (``np.sum`` adds pairwise, which differs in the last bits)."""
    return np.add.accumulate(np.concatenate([np.zeros((1, *values.shape[1:])), values]))[-1]


def _fill_link_fim(layout: ChannelLayout, obs: LinkObservables) -> np.ndarray:
    """Common fill for all link kinds, written block by block.

    Each delay carries ``snr * omega`` on its diagonal and its negative
    against the clock offset; each Doppler carries its weight on its diagonal
    and its coupling to the frequency offset.  An entry shared by several
    observations (the offset and gain totals, an array link's per-slot
    Doppler) is their running total in row-major observation order.
    """
    fim = np.zeros((layout.dim, layout.dim))
    snr = obs.snr
    delays, dopplers = layout.delays, layout.dopplers
    time, freq, gain = layout.time_offset, layout.freq_offset, layout.gain
    dop_weight = 0.5 * _square(obs.carrier_freq) * _square(obs.rms_duration)
    cross_weight = -0.5 * obs.carrier_freq * _square(obs.rms_duration)
    eps_weight = 0.5 * _square(obs.rms_duration)
    # Column j holds the observations Doppler j sums: every antenna for an
    # array link's per-slot shift, one (station, slot) for a station link.
    by_doppler = snr.reshape(1, -1) if layout.doppler_per_row else snr

    sw = (snr * obs.omega).ravel()
    fim[delays, delays] = np.diag(sw)
    fim[delays, time] = fim[time, delays] = -sw
    fim[time, time] = _running_total(sw)
    fim[dopplers, dopplers] = np.diag(_running_total(by_doppler * dop_weight))
    fim[dopplers, freq] = fim[freq, dopplers] = _running_total(by_doppler * cross_weight)
    fim[freq, freq] = _running_total(snr.ravel() * eps_weight)
    fim[gain, gain] = _running_total(snr.ravel() * _GAIN_INFO)
    return fim


def link_fim(obs: LinkObservables) -> LinkFim:
    """Channel FIM of one link from its observables.

    For a station-receiver link the trailing (clock, frequency) offset
    coordinates are this link's view of the offsets shared by the whole
    station network; the assembler accumulates them into one global pair.
    """
    n_rows, n_slots = obs.snr.shape
    layout = ChannelLayout(n_rows=n_rows, n_slots=n_slots, doppler_per_row=obs.per_row_doppler)
    return LinkFim(matrix=_fill_link_fim(layout, obs), layout=layout, obs=obs)


@dataclass(frozen=True)
class LinkSection:
    """Placement of one link inside the assembled parameter vector."""

    fim: LinkFim
    offset: int


@dataclass(frozen=True)
class GlobalChannelLayout:
    """Index map of the assembled multi-link channel parameter vector.

    Sections appear in assembly order: satellite-receiver links, then
    station-receiver links followed by their single shared offset pair, then
    (with station observations) satellite-station links.  For station-receiver
    sections the per-link offset columns do not own global coordinates; they
    resolve to ``shared_bs_offsets``.  ``nuisance_cols`` lists, in ascending
    order, every column that is not a delay or a Doppler shift: each link's
    gain, each non-station link's clock and frequency offsets, and the shared
    station pair.
    """

    sections: tuple[LinkSection, ...]
    shared_bs_offsets: tuple[int, int] | None
    dim: int
    nuisance_cols: tuple[int, ...]


def assemble_channel_fim(scenario: Scenario) -> tuple[np.ndarray, GlobalChannelLayout]:
    """Assemble the channel FIM over every link the scenario's case observes.

    Returns the symmetric matrix and its layout.  Distinct links occupy
    disjoint blocks (their cross-information is exactly zero); the shared
    station-network offsets are the single exception, accumulating every
    station-receiver link's offset information on one coordinate pair, which
    follows the last station-receiver link.
    """
    links = link_observables(scenario, scenario.case)
    stations = [n for n, obs in enumerate(links) if obs.kind is LinkKind.BS_RX]

    sections: list[LinkSection] = []
    nuisance: list[int] = []
    offset = 0
    shared: tuple[int, int] | None = None
    for n, obs in enumerate(links):
        fim = link_fim(obs)
        sections.append(LinkSection(fim=fim, offset=offset))
        lay = fim.layout
        nuisance.append(offset + lay.gain)
        if obs.kind is not LinkKind.BS_RX:
            nuisance += [offset + lay.time_offset, offset + lay.freq_offset]
            offset += lay.dim
            continue
        offset += lay.dim - 2  # shared offsets placed once, below
        if n == stations[-1]:
            shared = (offset, offset + 1)
            nuisance += shared
            offset += 2

    layout = GlobalChannelLayout(
        sections=tuple(sections),
        shared_bs_offsets=shared,
        dim=offset,
        nuisance_cols=tuple(nuisance),
    )

    matrix = np.zeros((offset, offset))
    for sec in layout.sections:
        fim = sec.fim.matrix
        n = fim.shape[0]
        if sec.fim.obs.kind is not LinkKind.BS_RX:
            block = slice(sec.offset, sec.offset + n)
            matrix[block, block] += fim
            continue
        # A station link's own coordinates, then its (clock, frequency) pair,
        # the last two local coordinates, on the shared global pair.
        n -= 2
        parts = (
            (slice(sec.offset, sec.offset + n), slice(0, n)),
            (slice(shared[0], shared[0] + 2), slice(n, n + 2)),
        )
        for rows, local_rows in parts:
            for cols, local_cols in parts:
                matrix[rows, cols] += fim[local_rows, local_cols]
    return matrix, layout
