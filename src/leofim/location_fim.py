"""Fisher information of the location parameters, and the EFIM.

Two independent routes produce the equivalent FIM (EFIM) of the interest
parameters:

* the **closed-form route**: each link's delay and Doppler observations
  become dense Jacobian rows in interest coordinates; their weighted Gram
  matrix is the interest FIM, and every clock or frequency offset costs the
  rank-one information loss ``m m^T / n`` of its weighted moment ``m`` and
  normalizer ``n`` (the station network's shared offsets pool theirs first);
* the **Schur route**: the assembled channel FIM is mapped through the
  transformation matrix and the nuisance coordinates (gains and offsets of
  every link) are marginalized by a Schur complement; no observation carries
  two nuisance coordinates, so the nuisance block is diagonal and is
  eliminated one coordinate at a time.

They compute the same quantity through different structure, so disagreement
localizes transcription errors; both are exposed and tested against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_fim import _assemble
from .linalg import NumericalError, sym
from .links import LinkKind, LinkObservables, link_observables
from .scenario import Case, Scenario
from .transform import LocationLayout, _transformation, kappa1_blocks, transform_fim


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
    ``snr_k`` sums the slot's SNR over antennas, since the shift is common to
    the array).
    """
    w_tau = obs.snr * obs.omega
    snr_dop = obs.snr if obs.per_row_doppler else obs.snr.sum(axis=0)
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
    """EFIM by the generic route: Schur complement of the nuisance block of
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
    """The EFIM of a scenario by the Schur route (:func:`efim_schur_route`)."""
    return _schur_efim(link_observables(scenario, scenario.case), scenario.n_leo, scenario.case)


def _schur_efim(links: list[LinkObservables], n_leo: int, case: Case) -> Efim:
    """The Schur route from a link list in assembly order: channel FIM,
    ``Upsilon``, ``J_kappa``, then the nuisance elimination."""
    j_eta, glob = _assemble(links)
    upsilon = _transformation(glob, n_leo)
    j_kappa = transform_fim(j_eta, upsilon)
    return efim_schur_route(j_kappa, upsilon.location_layout, case)
