"""Fisher information of the location parameters, and the EFIM.

Three routes produce the equivalent FIM (EFIM) of the interest parameters:

* the **factor route** (production, :func:`compute_efim`): each link's delay
  and Doppler observations become dense Jacobian rows in interest
  coordinates; every clock or frequency offset is eliminated by centering its
  rows at their weighted mean (the station network's shared offsets pool
  their rows first), and the EFIM is the Gram matrix ``F^T F`` of the stacked
  centered rows scaled by ``sqrt(w)``.  No nuisance FIM and no information
  difference is formed, so no digit is lost to cancellation;
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

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, sym
from .links import LinkKind, LinkObservables, link_observables
from .scenario import Case, Scenario
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


def _link_weights(
    obs: LinkObservables, n_rows: int | None = None, n_slots: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delay, Doppler and frequency-offset weights of one link, flat, on its
    first ``n_rows`` elements and ``n_slots`` slots (all by default).

    Returns ``(w_tau, w_nu, w_eps)``: the delay weight ``snr * omega`` per
    observation, and the Doppler / offset weights ``snr_k * f_c^2 * a_o^2 / 2``
    and ``snr_k * a_o^2 / 2`` per Doppler observation (for array links
    ``snr_k`` sums the slot's SNR over the kept antennas, since the shift is
    common to the array).
    """
    grid = np.s_[:n_rows, :n_slots]
    snr = obs.snr[grid]
    w_tau = snr * obs.omega[grid if obs.per_row_doppler else np.s_[:n_slots]]
    snr_dop = snr if obs.per_row_doppler else snr.sum(axis=0)
    half_ao2 = 0.5 * obs.rms_duration**2
    w_nu = snr_dop * obs.carrier_freq**2 * half_ao2
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
    for cols, dtau, dnu in kappa1_blocks(layout, obs):
        g_tau[:, cols] = dtau.reshape(-1, 3)
        if dnu is not None:
            g_nu[:, cols] = dnu.reshape(-1, 3)
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
    """The EFIM of a scenario by the factor route (:class:`_GroupGrams`)."""
    grams = _GroupGrams(link_observables(scenario, scenario.case), scenario.n_leo, scenario.case)
    return grams.efim(scenario.n_bs, scenario.n_ant, scenario.n_slots)


def _centered_gram(g: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """``F^T F`` of one offset group's rows ``F = sqrt(w) (g - g_bar)``, with
    ``g_bar`` the ``w``-weighted mean row; ``None`` if the weights sum to
    ``<= 0``, which informs nothing."""
    total = w.sum()
    if not total > 0.0:
        return None
    f = np.sqrt(w)[:, None] * (g - (w @ g) / total)
    return f.T @ f


def _sliced_groups(
    obs: LinkObservables, g_tau: np.ndarray, g_nu: np.ndarray, n_rows: int, n_slots: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``((g_tau, w_tau), (g_nu, w_nu))``, rows flat, of a link on its first
    ``n_rows`` elements and ``n_slots`` slots, from its rows shaped like its
    ``snr`` (delays) and ``omega`` (Dopplers) grids."""
    grid = np.s_[:n_rows, :n_slots]
    doppler = grid if obs.per_row_doppler else np.s_[:n_slots]
    w_tau, w_nu, _ = _link_weights(obs, n_rows, n_slots)
    dim = g_tau.shape[-1]
    return (g_tau[grid].reshape(-1, dim), w_tau), (g_nu[doppler].reshape(-1, dim), w_nu)


def _joined(arrays: tuple[np.ndarray, ...]) -> np.ndarray:
    """A pool's parts as one array, copied only when there are several."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _GroupGrams:
    """The factor route over one scenario's links at ``n_leo`` satellites,
    for every sub-count of stations, antennas and slots.

    Each offset group (a link's delay rows with ``w_tau``, its Doppler rows
    with ``w_nu``; the station-receiver links pool theirs into one pair) is
    centered at its weighted mean row and scaled by ``sqrt(w)``, and the EFIM
    is the sum of the groups' Grams ``F_g^T F_g``.  That equals the interest
    FIM minus every rank-one offset loss, because ``w_nu = f_c^2 w_eps``,
    without forming the difference.

    Sampling is nested (see :mod:`.scenario`), so a sub-count's links are the
    first elements and slots of these links.  Rows are built once per link,
    shaped like its observation grids (``links`` and ``stations`` hold
    ``(obs, g_tau, g_nu)``); a sub-count slices them and its weights, and each
    group's Gram is built once per sub-count that slices it.  The sum is bit
    for bit the EFIM of the scenario sampled at that sub-count.
    """

    def __init__(self, links: list[LinkObservables], n_leo: int, case: Case):
        self.layout = LocationLayout(n_leo=n_leo, kappa2_channel_cols=())
        self.case = case
        self.links: list[tuple[LinkObservables, np.ndarray, np.ndarray]] = []
        self.stations: list[tuple[LinkObservables, np.ndarray, np.ndarray]] = []
        dim = self.layout.dim_interest
        for obs in links:
            if obs.kind is not LinkKind.BS_RX and obs.index >= n_leo:
                continue
            g_tau, g_nu = _rows(self.layout, obs)
            # Explicit widths: a link to zero stations has no rows to infer them from.
            rows = (obs, g_tau.reshape(*obs.snr.shape, dim), g_nu.reshape(*obs.omega.shape, dim))
            (self.stations if obs.kind is LinkKind.BS_RX else self.links).append(rows)
        self._memo: dict[tuple, list[np.ndarray]] = {}

    def efim(self, n_bs: int, n_ant: int, n_slots: int) -> Efim:
        """The EFIM at ``n_bs`` stations, ``n_ant`` antennas and ``n_slots``
        slots: the group Grams summed in link order, the station pool last."""
        pools = [
            ((obs.kind, obs.index), [(obs, *grids)], n_bs if obs.per_row_doppler else n_ant)
            for obs, *grids in self.links
        ]
        pools.append(((LinkKind.BS_RX, n_bs), self.stations[:n_bs], n_ant))
        dim = self.layout.dim_interest
        gram = np.zeros((dim, dim))
        for pool, members, n_rows in pools:
            key = (*pool, n_rows, n_slots)
            if key not in self._memo:
                sliced = [_sliced_groups(*rows, n_rows, n_slots) for rows in members]
                # The members' delay groups pool into one, their Doppler groups
                # into another; a pool without members has no groups.
                parts = (_centered_gram(*map(_joined, zip(*group))) for group in zip(*sliced))
                self._memo[key] = [part for part in parts if part is not None]
            for part in self._memo[key]:
                gram += part
        return Efim(matrix=sym(gram), layout=self.layout, case=self.case)
