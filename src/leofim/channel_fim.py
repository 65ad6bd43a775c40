"""The dense oracle: ``J_eta -> Upsilon -> J_kappa -> Schur complement``.

The assembled channel FIM ``J_eta`` (:func:`assemble_channel_fim`) maps
through ``Upsilon`` (:func:`build_transformation_matrix`, whose delay and
Doppler columns hold the partials :func:`.location_fim.kappa1_blocks` places)
to ``J_kappa = Upsilon @ J_eta @ Upsilon.T`` (:func:`transform_fim`), and
:func:`efim_schur_route` eliminates its nuisance block.  Production takes the
factor route in :mod:`.location_fim` and never imports this module; within
the package only ``__init__`` does, to re-export its names.  The tests,
``tools/bitexact_corpus.py`` and the bench trace (``benches/tracing.py``) call
it; it stays in the library until that trace stops, then moves out whole.

A link is member ``m`` of its kind's one-trial batch
(:func:`.links.link_observables`), read at ``[0, m]``: the oracle takes the
batch's SNR, ``omega``, signal properties and Jacobians, and forms its
Doppler and offset weights itself.  For every link the observable parameter
vector is ordered as

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

from .linalg import NumericalError, _finite, sym
from .links import LinkKind, _Batch, link_observables
from .location_fim import Efim, LocationLayout, kappa1_blocks
from .scenario import Case, Scenario
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
    """Fisher information of one link's channel parameters, with the link
    (member ``member`` of ``batch``, trial 0) so later stages read its
    observables and Jacobians without re-evaluating them."""

    matrix: np.ndarray
    layout: ChannelLayout
    batch: _Batch
    member: int


def _running_total(values: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, added one term after another from zero in
    index order (``np.sum`` adds pairwise, which differs in the last bits)."""
    return np.add.accumulate(np.concatenate([np.zeros((1, *values.shape[1:])), values]))[-1]


def _fill_link_fim(layout: ChannelLayout, batch: _Batch, member: int) -> np.ndarray:
    """Common fill for all link kinds, written block by block.

    Each delay carries ``snr * omega`` on its diagonal and its negative
    against the clock offset; each Doppler carries its weight on its diagonal
    and its coupling to the frequency offset.  An entry shared by several
    observations (the offset and gain totals, an array link's per-slot
    Doppler) is their running total in row-major observation order.
    """
    fim = np.zeros((layout.dim, layout.dim))
    snr, props = batch.snr[member], batch.signals[member]
    delays, dopplers = layout.delays, layout.dopplers
    time, freq, gain = layout.time_offset, layout.freq_offset, layout.gain
    dop_weight = 0.5 * _square(props.carrier_freq) * _square(props.rms_duration)
    cross_weight = -0.5 * props.carrier_freq * _square(props.rms_duration)
    eps_weight = 0.5 * _square(props.rms_duration)
    # Column j holds the observations Doppler j sums: every antenna for an
    # array link's per-slot shift, one (station, slot) for a station link.
    by_doppler = snr.reshape(1, -1) if layout.doppler_per_row else snr

    sw = (snr * batch.omega[0, member]).ravel()
    fim[delays, delays] = np.diag(sw)
    fim[delays, time] = fim[time, delays] = -sw
    fim[time, time] = _running_total(sw)
    fim[dopplers, dopplers] = np.diag(_running_total(by_doppler * dop_weight))
    fim[dopplers, freq] = fim[freq, dopplers] = _running_total(by_doppler * cross_weight)
    fim[freq, freq] = _running_total(snr.ravel() * eps_weight)
    fim[gain, gain] = _running_total(snr.ravel() * _GAIN_INFO)
    return fim


def link_fim(batch: _Batch, member: int) -> LinkFim:
    """Channel FIM of one link, member ``member`` of a one-trial ``batch``.

    For a station-receiver link the trailing (clock, frequency) offset
    coordinates are this link's view of the offsets shared by the whole
    station network; the assembler accumulates them into one global pair.
    """
    n_rows, n_slots = batch.snr[member].shape
    per_row = batch.kind is LinkKind.LEO_BS
    layout = ChannelLayout(n_rows=n_rows, n_slots=n_slots, doppler_per_row=per_row)
    matrix = _fill_link_fim(layout, batch, member)
    return LinkFim(matrix=matrix, layout=layout, batch=batch, member=member)


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


@np.errstate(over="ignore", invalid="ignore")  # named by ``_finite``
def assemble_channel_fim(scenario: Scenario) -> tuple[np.ndarray, GlobalChannelLayout]:
    """Assemble the channel FIM over every link the scenario's case observes.

    Returns the symmetric matrix and its layout.  Distinct links occupy
    disjoint blocks (their cross-information is exactly zero); the shared
    station-network offsets are the single exception, accumulating every
    station-receiver link's offset information on one coordinate pair, which
    follows the last station-receiver link.

    Raises
    ------
    NumericalError
        If an entry overflows a double (or is NaN), as when a link's weights
        lie beyond double range; numpy's warnings are ignored, so this is
        all that is reported.
    """
    sections: list[LinkSection] = []
    nuisance: list[int] = []
    offset = 0
    shared: tuple[int, int] | None = None
    for batch in link_observables(scenario):
        for m in range(len(batch.signals)):
            fim = link_fim(batch, m)
            sections.append(LinkSection(fim=fim, offset=offset))
            lay = fim.layout
            nuisance.append(offset + lay.gain)
            if batch.kind is not LinkKind.BS_RX:
                nuisance += [offset + lay.time_offset, offset + lay.freq_offset]
                offset += lay.dim
                continue
            offset += lay.dim - 2  # shared offsets placed once, below
            if m == len(batch.signals) - 1:
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
        if sec.fim.batch.kind is not LinkKind.BS_RX:
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
    return _finite(matrix), layout


@dataclass(frozen=True)
class TransformationMatrix:
    """``Upsilon`` with the layout of its location-parameter side."""

    matrix: np.ndarray
    location_layout: LocationLayout


def _place_link(upsilon: np.ndarray, loc: LocationLayout, sec: LinkSection) -> None:
    """Write one link's partials into its delay and Doppler columns."""
    lay, m = sec.fim.layout, sec.fim.member
    delays = slice(sec.offset + lay.delays.start, sec.offset + lay.delays.stop)
    dopplers = slice(sec.offset + lay.dopplers.start, sec.offset + lay.dopplers.stop)
    for rows, dtau, dnu, put in kappa1_blocks(loc, sec.fim.batch, m):
        put(upsilon[rows, delays], dtau[0, m].reshape(-1, 3).T)
        if dnu is not None:
            put(upsilon[rows, dopplers], dnu[0, m].reshape(-1, 3).T)


def build_transformation_matrix(
    scenario: Scenario, *, glob: GlobalChannelLayout
) -> TransformationMatrix:
    """Build ``Upsilon`` for a scenario from its assembled channel layout.

    Every delay/Doppler column carries that observable's partials with respect
    to the kappa1 blocks it depends on; the gain and offset columns
    (``glob.nuisance_cols``) are unit selections of the kappa2 rows, in order.
    The link observables and Jacobians come from ``glob``'s sections, so
    ``glob`` must be the scenario's own layout.
    """
    loc = LocationLayout(n_leo=scenario.n_leo)
    cols = glob.nuisance_cols

    upsilon = np.zeros((loc.dim_interest + len(cols), glob.dim))
    for sec in glob.sections:
        _place_link(upsilon, loc, sec)
    upsilon[loc.dim_interest + np.arange(len(cols)), list(cols)] = 1.0
    return TransformationMatrix(matrix=upsilon, location_layout=loc)


def transform_fim(j_eta: np.ndarray, upsilon: TransformationMatrix) -> np.ndarray:
    """Map a channel FIM to the location parameters: ``U @ J @ U.T``."""
    u = upsilon.matrix
    if u.shape[1] != j_eta.shape[0] or j_eta.shape[0] != j_eta.shape[1]:
        raise ValueError(
            f"dimension mismatch: Upsilon {u.shape} against J_eta {j_eta.shape}"
        )
    return sym(u @ j_eta @ u.T)


def efim_schur_route(
    j_kappa: np.ndarray,
    layout: LocationLayout,
    case: Case = Case.WITH_BS,
) -> Efim:
    """EFIM by the oracle route: Schur complement of the nuisance block of
    the location-parameter FIM.

    No observation carries two nuisance coordinates (a gain pairs only with
    itself, a clock offset only with delays, a frequency offset only with
    Dopplers).  With ``J_kappa = [[J11, J12], [J12^T, J22]]`` split at the
    interest/nuisance boundary, ``J22 = diag(c_i)`` and the complement is
    ``J11 - sum_i b_i c_i^-1 b_i^T`` over the columns ``b_i`` of ``J12`` that
    are nonzero; an uncoupled column contributes exactly nothing.  All
    ``c_i^-1`` are formed at once in closed form and the terms accumulate in
    column order.

    Raises
    ------
    ValueError
        If ``j_kappa`` is not square, is smaller than the layout's interest
        block, or its nuisance block has an off-diagonal nonzero.
    NumericalError
        If a coupled nuisance coordinate has no positive information
        ``c_i``, which a PSD ``J_kappa`` cannot produce.
    """
    n1 = layout.dim_interest
    if j_kappa.ndim != 2 or j_kappa.shape[0] != j_kappa.shape[1] or len(j_kappa) < n1:
        raise ValueError(f"J_kappa shape {j_kappa.shape} is not square with at least {n1} rows")
    j11 = j_kappa[:n1, :n1]
    j12 = j_kappa[:n1, n1:]
    j22 = j_kappa[n1:, n1:]
    if np.count_nonzero(j22) > np.count_nonzero(np.diag(j22)):
        raise ValueError("nuisance block of J_kappa is not diagonal")

    coupled = np.flatnonzero(np.any(j12 != 0.0, axis=0))
    c = np.diag(j22)[coupled]
    if not np.all(c > 0.0):
        raise NumericalError("a coupled nuisance coordinate carries no information")
    # Exactly what ``invert_psd`` evaluates on a 1x1 block (balance by 1/sqrt(c),
    # invert, unbalance); ``1/c`` differs in the last bit, and the tests read
    # last-ULP rounding noise of numerically singular EFIMs.
    s = 1.0 / np.sqrt(c)
    c_inv = ((1.0 / ((c * s) * s)) * s) * s
    loss = np.zeros_like(j11)
    for i, ci in zip(coupled, c_inv):
        loss += np.outer(j12[:, i] * ci, j12[:, i])
    return Efim(matrix=sym(j11 - loss), layout=layout, case=case)
