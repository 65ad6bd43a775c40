"""Location parameters, their Fisher information, and the EFIM.

``kappa = [kappa1; kappa2]``.  ``kappa1`` holds the receiver position,
velocity and orientation (3 each), then every satellite's position offset and
every satellite's velocity offset (3 each), indexed by :class:`LocationLayout`;
``kappa2`` holds the per-link gains and synchronization offsets, whose columns
belong to the assembled channel layout (``GlobalChannelLayout.nuisance_cols``).
:func:`kappa1_blocks` alone maps a link's delay and Doppler partials (see
``links``) to kappa1 blocks with their signs, for every route.  Delays are
differentiated through the full position dependence (a velocity perturbs
slot-k positions by ``k*dt``); Doppler shifts treat the propagation direction
as a function of position-type parameters only, so velocity partials act on
the relative velocity at a frozen direction.  Every information matrix,
finite-difference check and EFIM route shares this convention.

Two routes here produce the equivalent FIM (EFIM) of the interest parameters:

* the **factor route** (production, :func:`compute_efim`): each link's delay
  and Doppler observations become dense Jacobian rows in interest
  coordinates; every clock or frequency offset is eliminated by centering its
  rows at their weighted mean (the station network's shared offsets pool
  their rows first), and the EFIM is the Gram matrix ``F^T F`` of the stacked
  centered rows scaled by ``sqrt(w)``.  No nuisance FIM and no information
  difference is formed, so no digit is lost to cancellation.  The route runs
  on a leading trial axis (:func:`_efims`): the sweeps sample and link the
  trials of one configuration family together, read the link pass's
  batches as they are, cut every sub-count's rows from one build per link
  kind and trial chunking and form each kind's Grams (one offset group per
  satellite) in one call for all trials; :func:`compute_efim` is the
  one-trial, one-count case;
* the **closed-form route** (:func:`efim_lemma_route`): from the same rows and
  weights (:func:`_groups`), the interest FIM minus the rank-one information
  loss ``m m^T / n`` of every offset group's weighted moment ``m`` and
  normalizer ``n``; no row is centered.

The **Schur route** (:func:`.channel_fim.efim_schur_route`), the dense
oracle, eliminates the nuisance block of the transformed channel FIM; that
module imports this one, never the reverse.  Centering a group of rows is
exactly its rank-one loss, so all three compute the same quantity through
different structure; disagreement localizes transcription errors, and the
tests check them against each other.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, _finite, sym
from .links import LinkKind, _Batch, link_observables
from .scenario import Case, Scenario


@dataclass(frozen=True)
class LocationLayout:
    """Index map of the interest block ``kappa1`` of the location-parameter
    vector ``kappa``, of dimension ``9 + 6*n_leo``.  The nuisance block
    ``kappa2`` follows it, one coordinate per channel gain/offset; its columns
    belong to the assembled channel layout (``glob.nuisance_cols``).
    """

    n_leo: int

    @property
    def position(self) -> slice:
        return slice(0, 3)

    @property
    def velocity(self) -> slice:
        return slice(3, 6)

    @property
    def orientation(self) -> slice:
        return slice(6, 9)

    def pos_offset(self, b: int) -> slice:
        if not 0 <= b < self.n_leo:
            raise ValueError(f"satellite index {b} outside [0, {self.n_leo})")
        return slice(9 + 3 * b, 12 + 3 * b)

    def vel_offset(self, b: int) -> slice:
        if not 0 <= b < self.n_leo:
            raise ValueError(f"satellite index {b} outside [0, {self.n_leo})")
        start = 9 + 3 * self.n_leo + 3 * b
        return slice(start, start + 3)

    @property
    def dim_interest(self) -> int:
        return 9 + 6 * self.n_leo

    def interest_blocks(self) -> list[tuple[str, slice]]:
        """Named 3x3 interest blocks in layout order."""
        blocks = [
            ("position", self.position),
            ("velocity", self.velocity),
            ("orientation", self.orientation),
        ]
        blocks += [(f"pos_offset_{b}", self.pos_offset(b)) for b in range(self.n_leo)]
        blocks += [(f"vel_offset_{b}", self.vel_offset(b)) for b in range(self.n_leo)]
        return blocks


def _copy(dst: np.ndarray, src: np.ndarray) -> None:
    dst[...] = src


def _copy_negated(dst: np.ndarray, src: np.ndarray) -> None:
    np.negative(src, out=dst)


def kappa1_blocks(
    layout: LocationLayout, batch: _Batch, index: int
) -> list[tuple[slice, np.ndarray, np.ndarray | None, Callable[..., None]]]:
    """(kappa1 slice, delay partials, Doppler partials, ``put``) per block a
    link of ``batch`` informs; ``put(dst, src)`` writes ``src`` into ``dst``
    with the block's sign.  The partials are the batch's whole partial
    arrays; a caller slices out its link's ``[trial, member]``.

    Links received by the array inform the receiver position, velocity and
    orientation (orientation has no Doppler partials: shifts are measured at
    the array reference point).  Links transmitted by satellite ``index``
    inform its position and velocity offsets with the negated receiving-end
    partials: the link sees the ends' difference only.  A station-receiver
    link informs no satellite's blocks and ignores ``index``.
    """
    blocks = []
    if batch.kind is not LinkKind.LEO_BS:
        blocks += [
            (layout.position, batch.dtau_dp, batch.dnu_dp, _copy),
            (layout.velocity, batch.dtau_dv, batch.dnu_dv, _copy),
            (layout.orientation, batch.dtau_dphi, None, _copy),
        ]
    if batch.kind is not LinkKind.BS_RX:
        blocks += [
            (layout.pos_offset(index), batch.dtau_dp, batch.dnu_dp, _copy_negated),
            (layout.vel_offset(index), batch.dtau_dv, batch.dnu_dv, _copy_negated),
        ]
    return blocks


@dataclass(frozen=True)
class InterestFim:
    """FIM of the interest parameters before accounting for nuisance."""

    matrix: np.ndarray
    layout: LocationLayout


@dataclass(frozen=True)
class Efim:
    """Equivalent FIM of the interest parameters."""

    matrix: np.ndarray
    layout: LocationLayout
    case: Case


@np.errstate(over="ignore", invalid="ignore")  # its callers name non-finite results
def _closed_form(layout: LocationLayout, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Interest FIM ``sum g^T diag(w) g`` and information loss of a scenario:
    each offset group of its one link pass, read as :func:`_efims` reads it
    (:func:`_groups`), loses ``m m^T / n`` with ``m = w @ g`` and ``n = sum
    w``, and none if ``n <= 0`` (``m`` is zero too).  Station rows scaled by
    ``f_c / f_1`` and weighted ``f_1^2 w_eps`` lose what pooling the
    stations' ``m = (f_c w_eps) @ g_nu`` and ``n = sum w_eps`` loses."""
    dim = layout.dim_interest
    interest, loss = np.zeros((dim, dim)), np.zeros((dim, dim))
    count = (scenario.n_bs, scenario.n_ant, scenario.n_slots)
    for batch in link_observables(scenario):
        for g, w in _groups(batch, layout, _key(batch.kind, layout.n_leo, *count), slice(None)):
            g, w = g[0], w[0]
            interest += (g.mT @ (w[..., None] * g)).sum(axis=0)
            m, n = (w[:, None, :] @ g)[:, 0], w.sum(axis=-1)
            m, n = m[n > 0.0], n[n > 0.0]
            loss += (m[:, :, None] * m[:, None, :] / n[:, None, None]).sum(axis=0)
    return sym(interest), loss


def assemble_interest_fim(scenario: Scenario) -> InterestFim:
    """Closed-form FIM of the interest parameters.

    Receiver blocks (position / velocity / orientation and their couplings)
    sum delay and Doppler quadratic forms over the satellite-receiver links
    (indices b, u, k) and station-receiver links (q, u, k).  Offset blocks of
    satellite b add that satellite's receiver link and — with station
    observations — its station links (q, k).  Offsets of distinct satellites
    never couple, and station links never touch receiver blocks' offsets.
    """
    layout = LocationLayout(n_leo=scenario.n_leo)
    interest, _ = _closed_form(layout, scenario)
    return InterestFim(matrix=_finite(interest), layout=layout)


def efim_lemma_route(scenario: Scenario) -> Efim:
    """EFIM by the closed-form route: interest FIM minus information loss.

    Every offset group's rows and weights are built once, from one link
    pass, and shared by the interest and loss terms.
    """
    layout = LocationLayout(n_leo=scenario.n_leo)
    interest, loss = _closed_form(layout, scenario)
    with np.errstate(over="ignore", invalid="ignore"):  # named by ``_finite``
        matrix = sym(interest - loss)
    return Efim(matrix=_finite(matrix), layout=layout, case=scenario.case)


def compute_efim(scenario: Scenario) -> Efim:
    """The EFIM of a scenario by the factor route (:func:`_efims`): one
    trial, one cell."""
    layout = LocationLayout(n_leo=scenario.n_leo)
    batches = link_observables(scenario)
    matrix = _efims(batches, layout, [(scenario.n_bs, scenario.n_ant, scenario.n_slots)])[0, 0]
    return Efim(matrix=_finite(matrix), layout=layout, case=scenario.case)


def _centered_gram(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``F^T F (..., dim, dim)`` per offset group of rows ``F = sqrt(w) (g -
    g_bar)``, with ``g_bar`` the ``w``-weighted mean row.

    ``g (..., n, dim)`` is overwritten; ``w (..., n)`` broadcasts against its
    leading axes.  Weights are non-negative, so a group whose weights sum to
    zero keeps its rows (its mean ``w @ g`` is zero, and is not divided),
    scales every row to zero and has a zero Gram: it is informed by nothing.
    A sum that overflows a double, or is NaN, raises :class:`NumericalError`:
    dividing by it would silently drop the mean.  ``g.mT @ g`` is one BLAS
    ``syrk`` per matrix, mirrored, so every Gram is exactly symmetric.
    """
    total = w.sum(axis=-1)[..., None, None]
    if not total.max(initial=0.0) < np.inf:
        raise NumericalError("an offset group's weights sum beyond double range")
    mean = w[..., None, :] @ g
    g -= np.divide(mean, total, out=mean, where=total > 0.0)
    g *= np.sqrt(w)[..., None]
    return g.mT @ g


def _key(kind: LinkKind, n_leo: int, n_bs: int, n_ant: int, n_slots: int) -> tuple[int, int, int]:
    """The members, rows and slots of a ``kind`` batch that a sub-count keeps."""
    members = n_bs if kind is LinkKind.BS_RX else n_leo
    return members, n_bs if kind is LinkKind.LEO_BS else n_ant, n_slots


def _shape(kind: LinkKind, key: tuple[int, int, int], rows: int) -> tuple[int, int]:
    """``(groups, n)``: ``key``'s offset groups and the rows of each on a
    grid of ``rows`` rows (explicit: a key may keep no rows)."""
    members, _, slots = key
    return (1, members * rows * slots) if kind is LinkKind.BS_RX else (members, rows * slots)


def _groups(
    batch: _Batch, layout: LocationLayout, key: tuple[int, int, int], trials: slice
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``[(g_tau, w_tau), (g_nu, w_nu)]`` of ``trials`` on the first ``key``
    members, rows and slots of ``batch``: the delay and Doppler groups' rows
    ``(T, groups, n, dim)`` in interest coordinates, zero outside the blocks
    they inform, flat in grid order, and their weights ``(T, groups, n)``:
    ``snr * omega`` per delay, :func:`_doppler_weights` per Doppler shift.
    :func:`kappa1_blocks` places the batch's Jacobians, one satellite at a
    time; each station's Doppler rows are its partials scaled by ``f_c /
    f_1`` (see :func:`_efims`).

    Raises
    ------
    NumericalError
        If a weight overflows a double (or is NaN): its rows would carry no
        defined information.  Both callers, :func:`_efims` and
        :func:`_closed_form`, ignore numpy's overflow warnings, so this is
        all that is reported.
    """
    members, rows, slots = key
    omega = batch.omega[trials, :members, :rows, :slots]
    n_trials = len(omega)
    w_tau = batch.snr[:members, :rows, :slots] * omega
    w_nu = _doppler_weights(batch, key, n_trials)
    for w, name in (
        (w_tau, "delay weight snr * omega"),
        (w_nu, "Doppler weight snr * f_c^2 * a_o^2 / 2"),
    ):
        if not w.max(initial=0.0) < np.inf:
            raise NumericalError(f"a {batch.kind.value} link's {name} overflows a double")
    w_tau = w_tau.reshape(n_trials, *_shape(batch.kind, key, rows))
    g_tau = np.zeros((*w_tau.shape, layout.dim_interest))
    g_nu = np.zeros((n_trials, *w_nu.shape[1:], layout.dim_interest))
    # Each satellite's rows go to its own group and offset blocks; the stations' to one group.
    stations = batch.kind is LinkKind.BS_RX
    if stations:
        carriers = np.array([props.carrier_freq for props in batch.signals[:members]])
        scale = (carriers / batch.signals[0].carrier_freq).reshape(-1, 1, 1, 1)
    for group, member in enumerate([slice(members)] if stations else range(members)):
        partials = (trials, member, slice(rows), slice(slots))
        for cols, dtau, dnu, put in kappa1_blocks(layout, batch, group):
            put(g_tau[:, group, :, cols], dtau[partials].reshape(n_trials, -1, 3))
            if dnu is not None:
                dnu = dnu[partials] * scale if stations else dnu[partials]
                put(g_nu[:, group, :, cols], dnu.reshape(n_trials, -1, 3))
    return [(g_tau, w_tau), (g_nu, w_nu)]


def _doppler_weights(batch: _Batch, key: tuple[int, int, int], n_trials: int) -> np.ndarray:
    """``w_nu (T, groups, n)`` of ``batch`` at ``key``, ``snr * f_c^2 * a_o^2
    / 2`` per Doppler shift, the same in every trial but stacked, so every
    Gram operand is a C-contiguous stack: an array link sums SNR over the
    antennas it keeps, and every station is weighted by the first station's
    ``f_1^2``."""
    members, rows, slots = key
    snr = batch.snr[:members, :rows, :slots]
    snr_dop = snr if batch.kind is LinkKind.LEO_BS else snr.sum(axis=1, keepdims=True)
    carrier_sq = batch.carrier_sq[:1 if batch.kind is LinkKind.BS_RX else members]
    w_nu = snr_dop * carrier_sq * batch.half_ao2[:members]
    shape = _shape(batch.kind, key, snr_dop.shape[1])
    return np.repeat(w_nu.reshape(1, *shape), n_trials, axis=0)


def _cut(
    batch: _Batch, groups: list, built: tuple, key: tuple
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`_groups` at ``key``, cut from the ``groups`` of the same trials
    at a ``built`` key that holds it as fresh C-contiguous copies: the Gram
    centers rows in place, and a strided operand takes ``matmul`` off BLAS,
    which changes the last bit.  An array link's Doppler grid has one row."""
    (g_tau, w_tau), (g_nu, _) = groups
    (members, rows, slots), n, dim = built, len(w_tau), g_tau.shape[-1]
    grid = (slice(None), *map(slice, key))
    nu_rows = rows if batch.kind is LinkKind.LEO_BS else 1
    w_nu = _doppler_weights(batch, key, n)
    tau = (n, *_shape(batch.kind, key, key[1]))
    w_tau = w_tau.reshape(n, members, rows, slots)[grid].copy().reshape(tau)
    g_tau = g_tau.reshape(n, members, rows, slots, dim)[grid].copy().reshape(*w_tau.shape, dim)
    g_nu = g_nu.reshape(n, members, nu_rows, slots, dim)[grid].copy()
    return [(g_tau, w_tau), (g_nu.reshape(n, *w_nu.shape[1:], dim), w_nu)]


# About how many bytes of dense rows one batch builds at once.
_ROW_BYTES = 1 << 19


@np.errstate(over="ignore", invalid="ignore")  # the verdict names non-finite information
def _efims(
    batches: list[_Batch], layout: LocationLayout, counts: list[tuple[int, int, int]]
) -> np.ndarray:
    """The factor route: the EFIMs ``(cells, T, dim, dim)`` at ``layout``'s
    satellite count of every stacked trial at each cell's ``(n_bs, n_ant,
    n_slots)``, from a link pass's ``batches`` (:func:`.links._link_pass`).

    Each offset group (a link's delay rows with ``w_tau``, its Doppler rows
    with ``w_nu``; the station-receiver links pool theirs into one pair) is
    centered at its weighted mean row and scaled by ``sqrt(w)``, and the EFIM
    is the sum of the groups' Grams ``F_g^T F_g``.  That equals the interest
    FIM minus every rank-one offset loss (:func:`_closed_form`) without
    forming the difference: a satellite's Doppler group is weighted ``f_c^2
    w_eps``, and the station group ``f_1^2 w_eps``, with ``f_1`` the first
    station's carrier and each station's rows scaled by ``f_c / f_1``
    (exactly 1 for a shared carrier).

    A batch is read as it is: each satellite of a satellite link kind is its
    own offset group (its link has its own offset pair), and the stations'
    links, which share one pair, fold into a single group.  A sub-count's
    rows and weights are built (:func:`_groups`) from views of the batch's
    arrays, never a copy of the batch, and the station rule is applied where
    the rows are written and weighted.  Sampling is nested (see
    :mod:`.scenario`), so a sub-count's links are the first elements and
    slots of the batches' links (a satellite batch keeps ``layout.n_leo``
    members), and every trial of a family has the same shapes.  Within a
    batch each distinct sub-count's Grams ``(T, groups, dim, dim)`` come from
    one stacked call per side, one contiguous BLAS product per (trial,
    group), and are added to every cell that keeps it, each group's delay
    then Doppler Gram, so each cell sums its groups in the same order as a
    scenario sampled at its own counts: bit for bit its EFIM.  Trials are
    taken a few at a time where one trial's rows are large, which bounds the
    dense rows one build holds (``_ROW_BYTES``, all its members counted).  A
    sub-count's rows are copies cut (:func:`_cut`) from the build at the
    largest sub-count with the same trial chunks that holds it, and each
    build is centered last.  Every Gram is exactly symmetric
    (:func:`_centered_gram`), and so are their sums: the EFIMs need no
    symmetrization pass.
    """
    dim = layout.dim_interest
    n_trials = batches[0].omega.shape[0]
    out = np.zeros((len(counts), n_trials, dim, dim))
    # Link order, the station batch last: the order a cell sums its groups in.
    for batch in sorted(batches, key=lambda b: b.kind is LinkKind.BS_RX):
        cells_by_key: dict[tuple[int, int, int], list[int]] = {}
        for cell, sub_count in enumerate(counts):
            cells_by_key.setdefault(_key(batch.kind, layout.n_leo, *sub_count), []).append(cell)
        # Per chunking, the largest key holding a key is built, and centered last.
        builds: dict[tuple[int, tuple[int, int, int]], list] = {}
        for key in sorted(cells_by_key, key=lambda k: (math.prod(k), k), reverse=True):
            step = min(n_trials, max(1, _ROW_BYTES // (8 * dim * max(1, math.prod(key)))))
            held = (b for s, b in builds if s == step and all(n <= m for n, m in zip(key, b)))
            builds.setdefault((step, next(held, key)), []).insert(0, key)
        for (step, built), keys in builds.items():
            for start in range(0, n_trials, step):
                trials = slice(start, start + step)
                rows = _groups(batch, layout, built, trials)
                for key in keys:
                    tau, nu = (_centered_gram(g, w) for g, w in (
                        rows if key == built else _cut(batch, rows, built, key)
                    ))
                    for cell in cells_by_key[key]:
                        total = out[cell, trials]
                        for group in range(tau.shape[1]):
                            total += tau[:, group]
                            total += nu[:, group]
                del rows, tau, nu  # before the next build: one build's rows alive at a time
    return out
