"""Fisher information of the location parameters, and the EFIM.

Three routes produce the equivalent FIM (EFIM) of the interest parameters:

* the **factor route** (production, :func:`compute_efim`): each link's delay
  and Doppler observations become dense Jacobian rows in interest
  coordinates; every clock or frequency offset is eliminated by centering its
  rows at their weighted mean (the station network's shared offsets pool
  their rows first), and the EFIM is the Gram matrix ``F^T F`` of the stacked
  centered rows scaled by ``sqrt(w)``.  No nuisance FIM and no information
  difference is formed, so no digit is lost to cancellation.  The route runs
  on a leading trial axis (:func:`_efims`): the sweeps sample and link the
  trials of one configuration family together and build each group's Gram
  once for all of them and every sub-count that slices it; :func:`compute_efim` is the one-trial,
  one-count case;
* the **Schur route** (the oracle, :func:`efim_schur_route`): the assembled
  channel FIM is mapped through the transformation matrix and the nuisance
  coordinates (gains and offsets of every link) are marginalized by a Schur
  complement; no observation carries two nuisance coordinates, so the
  nuisance block is diagonal and is eliminated one coordinate at a time;
* the **closed-form route** (:func:`efim_lemma_route`): from the same rows,
  the interest FIM minus the rank-one information loss ``m m^T / n`` of every
  offset's weighted moment ``m`` and normalizer ``n``.

Centering a group of rows is exactly its rank-one loss, so all three compute
the same quantity through different structure; disagreement localizes
transcription errors, and the tests check them against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, sym
from .links import (
    LinkJacobians,
    LinkKind,
    LinkObservables,
    _Batch,
    _kinds,
    _link_pass,
    _scene,
    link_observables,
)
from .scenario import Case, Scenario
from .signals import _square
from .transform import LocationLayout, kappa1_blocks


@dataclass(frozen=True)
class InterestFim:
    """FIM of the interest parameters before accounting for nuisance."""

    matrix: np.ndarray
    layout: LocationLayout


@dataclass(frozen=True)
class LossMatrix:
    """Information lost to the unknown per-link gains and offsets."""

    matrix: np.ndarray
    layout: LocationLayout


@dataclass(frozen=True)
class Efim:
    """Equivalent FIM of the interest parameters."""

    matrix: np.ndarray
    layout: LocationLayout
    case: Case


def _link_weights(obs: LinkObservables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delay, Doppler and frequency-offset weights of one link, flat.

    Returns ``(w_tau, w_nu, w_eps)``: the delay weight ``snr * omega`` per
    observation, and the Doppler / offset weights ``snr_k * f_c^2 * a_o^2 / 2``
    and ``snr_k * a_o^2 / 2`` per Doppler observation (for array links
    ``snr_k`` sums the slot's SNR over the antennas, since the shift is
    common to the array).
    """
    snr = obs.snr
    w_tau = snr * obs.omega
    snr_dop = snr if obs.per_row_doppler else snr.sum(axis=0)
    half_ao2 = 0.5 * _square(obs.rms_duration)
    w_nu = snr_dop * _square(obs.carrier_freq) * half_ao2
    w_eps = snr_dop * half_ao2
    return w_tau.ravel(), w_nu.ravel(), w_eps.ravel()


def _rows(layout: LocationLayout, obs: LinkObservables) -> tuple[np.ndarray, np.ndarray]:
    """One link's Jacobian rows in interest coordinates.

    Returns ``g_tau (n_delays, dim_interest)`` and ``g_nu (n_dopplers,
    dim_interest)``: row ``i`` is the gradient of observation ``i`` with
    respect to kappa1, zero outside the blocks the link informs.
    """
    g_tau = np.zeros((obs.snr.size, layout.dim_interest))
    g_nu = np.zeros((obs.omega.size, layout.dim_interest))
    for cols, dtau, dnu, put in kappa1_blocks(layout, obs):
        put(g_tau[:, cols], dtau.reshape(-1, 3))
        if dnu is not None:
            put(g_nu[:, cols], dnu.reshape(-1, 3))
    return g_tau, g_nu


def _closed_form(
    layout: LocationLayout, links: list[LinkObservables]
) -> tuple[np.ndarray, np.ndarray]:
    """Interest FIM ``sum g^T diag(w) g`` and information loss, in one pass.

    Each clock offset loses ``m m^T / n`` with ``m = w_tau @ g_tau``,
    ``n = sum w_tau``; each frequency offset with ``m = (f_c w_eps) @ g_nu``,
    ``n = sum w_eps``.  Station-receiver links share one offset pair and pool
    ``m`` and ``n`` first.  An offset with ``n <= 0`` is unobserved (``m`` is
    zero too) and loses nothing.
    """
    dim = layout.dim_interest
    interest = np.zeros((dim, dim))
    loss = np.zeros((dim, dim))
    shared = [(np.zeros(dim), 0.0)] * 2
    offsets = []
    for obs in links:
        w_tau, w_nu, w_eps = _link_weights(obs)
        g_tau, g_nu = _rows(layout, obs)
        interest += g_tau.T @ (w_tau[:, None] * g_tau) + g_nu.T @ (w_nu[:, None] * g_nu)
        pair = [(w_tau @ g_tau, w_tau.sum()), ((obs.carrier_freq * w_eps) @ g_nu, w_eps.sum())]
        if obs.kind is LinkKind.BS_RX:
            shared = [(m + m_s, n + n_s) for (m, n), (m_s, n_s) in zip(pair, shared)]
        else:
            offsets += pair
    for m, n in offsets + shared:
        if n > 0.0:
            loss += np.outer(m, m) / n
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
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    interest, _ = _closed_form(layout, link_observables(scenario, scenario.case))
    return InterestFim(matrix=interest, layout=layout)


def assemble_information_loss(scenario: Scenario) -> LossMatrix:
    """Information lost to the per-link clock and frequency offsets.

    Each link's unknown clock offset removes the rank-one component
    ``(sum w_tau dtau)(sum w_tau dtau)^T / (sum w_tau)`` from the blocks its
    delays inform; the frequency offset does the same on the Doppler side with
    carrier-weighted moments.  All station-receiver links share one offset
    pair, so their moments and normalizers accumulate over stations before the
    outer product is formed — which is what creates the printed cross-station
    coupling terms.  Gains are information-orthogonal and lose nothing.
    """
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    _, loss = _closed_form(layout, link_observables(scenario, scenario.case))
    return LossMatrix(matrix=loss, layout=layout)


def efim_lemma_route(scenario: Scenario) -> Efim:
    """EFIM by the closed-form route: interest FIM minus information loss.

    Every link's observables and Jacobian rows are evaluated once and shared
    by the interest and loss terms.
    """
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    interest, loss = _closed_form(layout, link_observables(scenario, scenario.case))
    return Efim(matrix=sym(interest - loss), layout=layout, case=scenario.case)


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
        If ``j_kappa`` does not match the layout, or its nuisance block has an
        off-diagonal nonzero.
    NumericalError
        If a coupled nuisance coordinate has no positive information
        ``c_i``, which a PSD ``J_kappa`` cannot produce.
    """
    dim = layout.dim
    if j_kappa.shape != (dim, dim):
        raise ValueError(f"J_kappa shape {j_kappa.shape} does not match layout dim {dim}")
    n1 = layout.dim_interest
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


def compute_efim(scenario: Scenario) -> Efim:
    """The EFIM of a scenario by the factor route (:func:`_efims`): one
    trial, one cell."""
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    scene = _scene(scenario, range(scenario.n_leo), range(scenario.n_bs))
    pools = _pools(_link_pass(scene, _kinds(scenario.case)))
    matrix = _efims(pools, layout, [(scenario.n_bs, scenario.n_ant, scenario.n_slots)])[0, 0]
    return Efim(matrix=matrix, layout=layout, case=scenario.case)


def _centered_gram(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``F^T F (T, dim, dim)`` per trial of one offset group's rows ``F =
    sqrt(w) (g - g_bar)``, with ``g_bar`` the ``w``-weighted mean row.

    ``g (T, n, dim)`` is overwritten; ``w`` is ``(T, n)``, or ``(1, n)`` when
    it holds in every trial.  Weights are non-negative, so a trial whose
    weights sum to zero has every row scaled to zero and a zero Gram: it is
    informed by nothing.  A sum that overflows a double raises
    :class:`NumericalError`: dividing by it would silently drop the mean.
    """
    total = w.sum(axis=-1)
    if not np.isfinite(total).all():
        raise NumericalError("an offset group's weights sum beyond double range")
    g -= (w[:, None, :] @ g) / np.where(total > 0.0, total, 1.0)[:, None, None]
    g *= np.sqrt(w)[:, :, None]
    return g.mT @ g


@dataclass(frozen=True)
class _Pool:
    """One offset pair's observations over a leading trial axis: one link's,
    or the station-receiver links' pooled along a station axis.
    :func:`.kappa1_blocks` reads its ``jacobians`` and ``index`` as a link's.

    A pool views its link kind's :class:`.links._Batch` on the members it
    pools, so its arrays lie on the grid ``(members, rows, slots)`` after the
    trial axis.  Only its Doppler Jacobians, which have no antenna axis, are
    copies: each member's scaled by ``f_c / f_1`` (see :func:`_efims`).
    ``carrier_sq = f_1^2`` and ``half_ao2 (members, 1, 1)`` come from the
    members' signals, and ``snr``, like them, holds in every trial.
    """

    kind: LinkKind
    index: int
    jacobians: LinkJacobians
    omega: np.ndarray
    snr: np.ndarray
    carrier_sq: float
    half_ao2: np.ndarray

    @classmethod
    def of(cls, batch: _Batch, index: int, members: slice) -> "_Pool":
        """The pool of ``batch``'s ``members``, the first of them ``index``."""
        signals = batch.signals[members]
        f_1 = signals[0].carrier_freq
        scale = np.array([props.carrier_freq / f_1 for props in signals]).reshape(-1, 1, 1, 1)
        jac = batch.jacobians
        return cls(
            kind=batch.kind,
            index=index,
            jacobians=LinkJacobians(
                dtau_dp=jac.dtau_dp[:, members],
                dtau_dv=jac.dtau_dv[:, members],
                dtau_dphi=None if jac.dtau_dphi is None else jac.dtau_dphi[:, members],
                dnu_dp=jac.dnu_dp[:, members] * scale,
                dnu_dv=jac.dnu_dv[:, members] * scale,
            ),
            omega=batch.omega[:, members],
            snr=batch.snr[members],
            carrier_sq=_square(f_1),
            half_ao2=np.array([0.5 * _square(p.rms_duration) for p in signals]).reshape(-1, 1, 1),
        )

    def key(self, n_bs: int, n_ant: int, n_slots: int) -> tuple[int, int, int]:
        """The members, rows and slots a sub-count keeps."""
        members = n_bs if self.kind is LinkKind.BS_RX else 1
        return members, n_bs if self.kind is LinkKind.LEO_BS else n_ant, n_slots

    def groups(
        self, layout: LocationLayout, key: tuple[int, int, int], trials: slice
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``[(g_tau, w_tau), (g_nu, w_nu)]`` of ``trials`` on the first
        ``key`` members, rows and slots: the delay and Doppler groups' rows
        ``(T, n, dim)`` in interest coordinates, zero outside the blocks they
        inform, flat in grid order, and their weights (see
        :func:`_link_weights`) ``(T, n)``, or ``(1, n)`` for the Doppler
        weights, which hold in every trial."""
        grid = tuple(slice(n) for n in key)
        stacked = (trials, *grid)
        omega = self.omega[stacked]
        n_trials = omega.shape[0]
        snr = self.snr[grid]
        w_tau = (snr * omega).reshape(n_trials, -1)
        snr_dop = snr if self.kind is LinkKind.LEO_BS else snr.sum(axis=1, keepdims=True)
        w_nu = (snr_dop * self.carrier_sq * self.half_ao2[grid[0]]).reshape(1, -1)
        g_tau = np.zeros((n_trials, w_tau.shape[1], layout.dim_interest))
        g_nu = np.zeros((n_trials, w_nu.shape[1], layout.dim_interest))
        for cols, dtau, dnu, put in kappa1_blocks(layout, self):
            put(g_tau[..., cols], dtau[stacked].reshape(n_trials, -1, 3))
            if dnu is not None:
                put(g_nu[..., cols], dnu[stacked].reshape(n_trials, -1, 3))
        return [(g_tau, w_tau), (g_nu, w_nu)]


def _pools(batches: list[_Batch]) -> list[_Pool]:
    """The offset pools of a link pass's batches: one per satellite link, in
    link order, then the station-receiver links' one pool."""
    pools, stations = [], []
    for batch in batches:
        if batch.kind is LinkKind.BS_RX:
            stations.append(_Pool.of(batch, 0, slice(None)))
        else:
            pools += [_Pool.of(batch, b, slice(b, b + 1)) for b in range(len(batch.signals))]
    return pools + stations


# About how many bytes of dense rows one offset group builds at once.
_ROW_BYTES = 1 << 19


def _efims(
    pools: list[_Pool], layout: LocationLayout, counts: list[tuple[int, int, int]]
) -> np.ndarray:
    """The factor route: the EFIMs ``(cells, T, dim, dim)`` at ``layout``'s
    satellite count of every stacked trial at each cell's ``(n_bs, n_ant,
    n_slots)``.

    Each offset group (a link's delay rows with ``w_tau``, its Doppler rows
    with ``w_nu``; the station-receiver links pool theirs into one pair) is
    centered at its weighted mean row and scaled by ``sqrt(w)``, and the EFIM
    is the sum of the groups' Grams ``F_g^T F_g``.  That equals the interest
    FIM minus every rank-one offset loss (:func:`_closed_form`) without
    forming the difference: a Doppler group is weighted ``f_1^2 w_eps``, with
    ``f_1`` its first member's carrier, and each member's rows are scaled by
    ``f_c / f_1`` (exactly 1 for a shared carrier).

    Sampling is nested (see :mod:`.scenario`), so a sub-count's links are the
    first elements and slots of the pools' links, and every trial of a family
    has the same shapes.  Pools of satellites beyond ``layout.n_leo`` are
    skipped; the rest go in link order, the station pool last.  Within a pool
    each distinct sub-count's Grams are built once for all trials and added
    to every cell that keeps it, so each cell sums its groups in the same
    order as a scenario sampled at its own counts: bit for bit its EFIM.
    Trials are taken a few at a time where one trial's rows are large, which
    bounds the dense rows held at once.
    """
    dim = layout.dim_interest
    n_trials = pools[0].omega.shape[0]
    out = np.zeros((len(counts), n_trials, dim, dim))
    for pool in pools:
        if pool.kind is not LinkKind.BS_RX and pool.index >= layout.n_leo:
            continue
        cells_by_key: dict[tuple[int, int, int], list[int]] = {}
        for cell, sub_count in enumerate(counts):
            cells_by_key.setdefault(pool.key(*sub_count), []).append(cell)
        for key, cells in cells_by_key.items():
            step = max(1, _ROW_BYTES // (8 * dim * max(1, math.prod(key))))
            for start in range(0, n_trials, step):
                trials = slice(start, start + step)
                for g, w in pool.groups(layout, key, trials):
                    gram = _centered_gram(g, w)
                    for cell in cells:
                        out[cell, trials] += gram
    return sym(out)
