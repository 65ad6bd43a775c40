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

The assembled multi-link matrix is block diagonal across links, with one
exception: all station-receiver links share a single receiver-side
(clock, frequency) offset pair, so their per-link offset rows accumulate into
one shared coordinate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import (
    LinkKind,
    LinkObservables,
    bs_rx_observables,
    leo_bs_observables,
    leo_rx_observables,
    link_observables,
)
from .scenario import Case, Scenario

TWO_PI_SQ = 2.0 * np.pi**2


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

    def delay_index(self, row: int, k: int) -> int:
        """Position of the (row, slot) delay within the link vector
        (elementwise for index arrays)."""
        return row * self.n_slots + k

    def doppler_index(self, k: int, row: int = 0) -> int:
        """Position of the slot-``k`` Doppler (of ``row`` when per-row;
        elementwise for index arrays)."""
        base = self.n_delays
        return base + (row * self.n_slots + k if self.doppler_per_row else k)


@dataclass(frozen=True)
class LinkFim:
    """Fisher information of one link's channel parameters, with the link's
    observables and Jacobians so later stages need not re-evaluate them."""

    matrix: np.ndarray
    layout: ChannelLayout
    obs: LinkObservables

    @property
    def link_kind(self) -> LinkKind:
        return self.obs.kind

    @property
    def index(self) -> int:
        return self.obs.index


def _fill_link_fim(layout: ChannelLayout, obs: LinkObservables) -> np.ndarray:
    """Common fill for all link kinds.

    Every observation (row, slot) adds its delay, Doppler and gain terms to
    the matrix; entries shared by several observations (the offsets, a
    per-slot Doppler, the gain) accumulate in row-major observation
    order, which ``np.add.at`` preserves.
    """
    fim = np.zeros((layout.dim, layout.dim))
    snr = obs.snr
    w = obs.omega if obs.omega.ndim == 2 else obs.omega[None, :]
    dop_weight = 0.5 * obs.carrier_freq**2 * obs.rms_duration**2
    cross_weight = -0.5 * obs.carrier_freq * obs.rms_duration**2
    eps_weight = 0.5 * obs.rms_duration**2
    gain_info = 1.0 / (2.0 * TWO_PI_SQ * obs.gain**2)

    rows, ks = np.indices(snr.shape).reshape(2, -1)
    tau = layout.delay_index(rows, ks)
    nu = layout.doppler_index(ks, rows)
    delta = np.full_like(tau, layout.time_offset)
    eps = np.full_like(tau, layout.freq_offset)
    gain = np.full_like(tau, layout.gain)
    s = snr.ravel()
    sw = (snr * w).ravel()
    neg_sw = (-snr * w).ravel()
    cross = s * cross_weight
    updates = [
        (tau, tau, sw),
        (tau, delta, neg_sw),
        (delta, tau, neg_sw),
        (delta, delta, sw),
        (nu, nu, s * dop_weight),
        (nu, eps, cross),
        (eps, nu, cross),
        (eps, eps, s * eps_weight),
        (gain, gain, s * gain_info),
    ]
    i, j, values = (np.stack(part, axis=1).ravel() for part in zip(*updates))
    np.add.at(fim, (i, j), values)
    return fim


def _link_fim(obs: LinkObservables) -> LinkFim:
    n_rows, n_slots = obs.snr.shape
    layout = ChannelLayout(n_rows=n_rows, n_slots=n_slots, doppler_per_row=obs.per_row_doppler)
    return LinkFim(matrix=_fill_link_fim(layout, obs), layout=layout, obs=obs)


def link_fim_leo_rx(scenario: Scenario, b: int) -> LinkFim:
    """Channel FIM of satellite ``b``'s downlink to the receiver."""
    return _link_fim(leo_rx_observables(scenario, b))


def link_fim_bs_rx(scenario: Scenario, q: int) -> LinkFim:
    """Channel FIM of station ``q``'s link to the receiver.

    The trailing (clock, frequency) offset coordinates are this link's view of
    the offsets shared by the whole station network; the assembler accumulates
    them into one global pair.
    """
    return _link_fim(bs_rx_observables(scenario, q))


def link_fim_leo_bs(scenario: Scenario, b: int) -> LinkFim:
    """Channel FIM of satellite ``b``'s links to all base stations."""
    return _link_fim(leo_bs_observables(scenario, b))


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
    sections the per-link offset columns do not own global coordinates;
    ``delta_index`` of those sections resolves to the shared pair.
    """

    sections: tuple[LinkSection, ...]
    shared_bs_offsets: tuple[int, int] | None
    dim: int
    case: Case

    def section(self, kind: LinkKind, index: int) -> LinkSection:
        for sec in self.sections:
            if sec.fim.link_kind is kind and sec.fim.index == index:
                return sec
        raise KeyError(f"no section for {kind} #{index}")

    def delay_indices(self, sec: LinkSection) -> np.ndarray:
        lay = sec.fim.layout
        return sec.offset + np.arange(lay.delays.start, lay.delays.stop)

    def doppler_indices(self, sec: LinkSection) -> np.ndarray:
        lay = sec.fim.layout
        return sec.offset + np.arange(lay.dopplers.start, lay.dopplers.stop)

    def delta_index(self, sec: LinkSection) -> int:
        if sec.fim.link_kind is LinkKind.BS_RX:
            assert self.shared_bs_offsets is not None
            return self.shared_bs_offsets[0]
        return sec.offset + sec.fim.layout.time_offset


def assemble_channel_fim(
    scenario: Scenario, case: Case | None = None
) -> tuple[np.ndarray, GlobalChannelLayout]:
    """Assemble the channel FIM over every link the case observes.

    Returns the symmetric matrix and its layout.  Distinct links occupy
    disjoint blocks (their cross-information is exactly zero); the shared
    station-network offsets are the single exception, accumulating every
    station-receiver link's offset information on one coordinate pair.
    """
    case = scenario.case if case is None else case
    link_fims = [_link_fim(obs) for obs in link_observables(scenario, case)]

    sections: list[LinkSection] = []
    offset = 0
    shared: tuple[int, int] | None = None
    for fim in link_fims:
        if fim.link_kind is LinkKind.BS_RX:
            sections.append(LinkSection(fim=fim, offset=offset))
            offset += fim.layout.dim - 2  # shared offsets placed once, below
            if fim.index == scenario.n_bs - 1:
                shared = (offset, offset + 1)
                offset += 2
        else:
            sections.append(LinkSection(fim=fim, offset=offset))
            offset += fim.layout.dim

    layout = GlobalChannelLayout(
        sections=tuple(sections), shared_bs_offsets=shared, dim=offset, case=case
    )

    matrix = np.zeros((offset, offset))
    for sec in layout.sections:
        fim = sec.fim.matrix
        n = fim.shape[0]
        if sec.fim.link_kind is not LinkKind.BS_RX:
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
