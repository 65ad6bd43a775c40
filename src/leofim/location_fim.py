"""Fisher information of the location parameters, and the EFIM.

Two independent routes produce the equivalent FIM (EFIM) of the interest
parameters:

* the **closed-form route**: per-block formulas for the interest FIM plus
  rank-one information-loss terms per link, built from each link's delay and
  Doppler weights and the per-link offset normalizers;
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

import enum
from dataclasses import dataclass

import numpy as np

from .channel_fim import assemble_channel_fim
from .linalg import invert_psd, sym
from .links import LinkKind, LinkObservables, link_observables
from .scenario import Case, Scenario
from .transform import (
    LocationLayout,
    build_transformation_matrix,
    kappa1_blocks,
    transform_fim,
)


class EfimRoute(enum.Enum):
    LEMMA = "LemmaRoute"
    SCHUR = "SchurRoute"


@dataclass(frozen=True)
class InterestFim:
    """FIM of the interest parameters before accounting for nuisance."""

    matrix: np.ndarray
    layout: LocationLayout
    case: Case


@dataclass(frozen=True)
class LossMatrix:
    """Information lost to the unknown per-link gains and offsets."""

    matrix: np.ndarray
    layout: LocationLayout
    case: Case


@dataclass(frozen=True)
class Efim:
    """Equivalent FIM of the interest parameters."""

    matrix: np.ndarray
    layout: LocationLayout
    route: EfimRoute
    case: Case


def _delay_quad(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_obs w_obs * x_obs y_obs^T`` over an (element, slot) grid."""
    return np.einsum("uk,uki,ukj->ij", w, x, y)


def _doppler_quad(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_k w_k * x_k y_k^T`` over per-slot Doppler observations."""
    return np.einsum("k,ki,kj->ij", w, x, y)


def _link_weights(obs: LinkObservables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delay, Doppler and frequency-offset weights of one link.

    Returns ``(w_tau, w_nu, w_eps)``: the delay weight ``snr * omega`` per
    observation, and the Doppler / offset weights ``snr_k * f_c^2 * a_o^2 / 2``
    and ``snr_k * a_o^2 / 2`` per Doppler observation (for array links
    ``snr_k`` sums the slot's SNR over antennas, since the shift is common to
    the array).
    """
    if obs.per_row_doppler:
        w_tau = obs.snr * obs.omega
        snr_dop = obs.snr
    else:
        w_tau = obs.snr * obs.omega[None, :]
        snr_dop = obs.snr.sum(axis=0)
    half_ao2 = 0.5 * obs.rms_duration**2
    w_nu = snr_dop * obs.carrier_freq**2 * half_ao2
    w_eps = snr_dop * half_ao2
    return w_tau, w_nu, w_eps


def _interest_matrix(layout: LocationLayout, links: list[LinkObservables]) -> np.ndarray:
    """Sum every link's delay and Doppler quadratic forms over the block pairs
    it informs."""
    matrix = np.zeros((layout.dim_interest, layout.dim_interest))
    for obs in links:
        w_tau, w_nu, _ = _link_weights(obs)
        dop_quad = _delay_quad if obs.per_row_doppler else _doppler_quad
        blocks = kappa1_blocks(layout, obs)
        for i, (sl_i, dtau_i, dnu_i) in enumerate(blocks):
            for sl_j, dtau_j, dnu_j in blocks[i:]:
                block = _delay_quad(w_tau, dtau_i, dtau_j)
                if dnu_i is not None and dnu_j is not None:
                    block = block + dop_quad(w_nu, dnu_i, dnu_j)
                matrix[sl_i, sl_j] += block
                if sl_i != sl_j:
                    matrix[sl_j, sl_i] += block.T
    return sym(matrix)


def assemble_interest_fim(scenario: Scenario, case: Case | None = None) -> InterestFim:
    """Closed-form FIM of the interest parameters.

    Receiver blocks (position / velocity / orientation and their couplings)
    sum delay and Doppler quadratic forms over the satellite-receiver links
    (indices b, u, k) and station-receiver links (q, u, k).  Offset blocks of
    satellite b add that satellite's receiver link and — with station
    observations — its station links (q, k).  Offsets of distinct satellites
    never couple, and station links never touch receiver blocks' offsets.
    """
    case = scenario.case if case is None else case
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    matrix = _interest_matrix(layout, link_observables(scenario, case))
    return InterestFim(matrix=matrix, layout=layout, case=case)


def _delay_moment(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("uk,uki->i", w, x)


def _doppler_moment(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("k,ki->i", w, x)


def _loss_outer(
    matrix: np.ndarray,
    moments: list[tuple[slice, np.ndarray]],
    normalizer: float,
) -> None:
    """Add ``a_i a_j^T / n`` to every block pair.

    A non-positive normalizer means the link carried no information about the
    offset at all, hence no ambiguity and no loss: the division is skipped
    (the moments are necessarily zero then too).
    """
    if normalizer <= 0.0:
        return
    for i, (sl_i, a_i) in enumerate(moments):
        for sl_j, a_j in moments[i:]:
            block = np.outer(a_i, a_j) / normalizer
            matrix[sl_i, sl_j] += block
            if sl_i != sl_j:
                matrix[sl_j, sl_i] += block.T


def _offset_terms(layout: LocationLayout, obs: LinkObservables):
    """One link's clock-offset moments, frequency-offset moments and their
    normalizers ``sum w_tau`` and ``sum w_eps``."""
    w_tau, _, w_eps = _link_weights(obs)
    eps_w = obs.carrier_freq * w_eps
    dop_moment = _delay_moment if obs.per_row_doppler else _doppler_moment
    blocks = kappa1_blocks(layout, obs)
    delta = [(sl, _delay_moment(w_tau, dtau)) for sl, dtau, _ in blocks]
    eps = [(sl, dop_moment(eps_w, dnu)) for sl, _, dnu in blocks if dnu is not None]
    return delta, eps, float(w_tau.sum()), float(w_eps.sum())


def _shared_offset_terms(layout: LocationLayout, stations: list[LinkObservables]):
    """Offset terms of the station network's single shared offset pair: each
    moment and normalizer accumulates over stations, in station order."""
    delta, eps, n_delta, n_eps = zip(*(_offset_terms(layout, obs) for obs in stations))

    def total(moments):
        return [
            (sl, sum((per_station[i][1] for per_station in moments), 0.0))
            for i, (sl, _) in enumerate(moments[0])
        ]

    return total(delta), total(eps), sum(n_delta, 0.0), sum(n_eps, 0.0)


def _loss_matrix(layout: LocationLayout, links: list[LinkObservables]) -> np.ndarray:
    """Subtract-ready sum of every offset's rank-one information loss."""
    matrix = np.zeros((layout.dim_interest, layout.dim_interest))
    stations = [obs for obs in links if obs.kind is LinkKind.BS_RX]
    for obs in links:
        if obs.kind is not LinkKind.BS_RX:
            terms = _offset_terms(layout, obs)
        elif obs is stations[-1]:  # links are in assembly order
            terms = _shared_offset_terms(layout, stations)
        else:
            continue
        delta, eps, n_delta, n_eps = terms
        _loss_outer(matrix, delta, n_delta)
        _loss_outer(matrix, eps, n_eps)
    return sym(matrix)


def assemble_information_loss(scenario: Scenario, case: Case | None = None) -> LossMatrix:
    """Information lost to the per-link clock and frequency offsets.

    Each link's unknown clock offset removes the rank-one component
    ``(sum w_tau dtau)(sum w_tau dtau)^T / (sum w_tau)`` from the blocks its
    delays inform; the frequency offset does the same on the Doppler side with
    carrier-weighted moments.  All station-receiver links share one offset
    pair, so their moments and normalizers accumulate over stations before the
    outer product is formed — which is what creates the printed cross-station
    coupling terms.  Gains are information-orthogonal and lose nothing.
    """
    case = scenario.case if case is None else case
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    matrix = _loss_matrix(layout, link_observables(scenario, case))
    return LossMatrix(matrix=matrix, layout=layout, case=case)


def efim_lemma_route(scenario: Scenario, case: Case | None = None) -> Efim:
    """EFIM by the closed-form route: interest FIM minus information loss.

    Every link's observables and Jacobians are evaluated once and shared by
    the interest and loss terms.
    """
    case = scenario.case if case is None else case
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    links = link_observables(scenario, case)
    return Efim(
        matrix=sym(_interest_matrix(layout, links) - _loss_matrix(layout, links)),
        layout=layout,
        route=EfimRoute.LEMMA,
        case=case,
    )


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
    are nonzero; an uncoupled column contributes exactly nothing.  Each
    ``c_i`` is inverted by ``invert_psd`` and the terms accumulate in column
    order.

    Raises
    ------
    ValueError
        If ``j_kappa`` does not match the layout, or its nuisance block has an
        off-diagonal nonzero.
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

    loss = np.zeros_like(j11)
    for i in np.flatnonzero(np.any(j12 != 0.0, axis=0)):
        b = j12[:, i : i + 1]
        c_inv, _ = invert_psd(j22[i : i + 1, i : i + 1])
        loss += b @ c_inv @ b.T
    return Efim(matrix=sym(j11 - loss), layout=layout, route=EfimRoute.SCHUR, case=case)


def compute_efim(
    scenario: Scenario,
    case: Case | None = None,
    route: EfimRoute = EfimRoute.SCHUR,
) -> Efim:
    """Build the EFIM of a scenario by the requested route."""
    case = scenario.case if case is None else case
    if route is EfimRoute.LEMMA:
        return efim_lemma_route(scenario, case)
    j_eta, glob = assemble_channel_fim(scenario, case)
    upsilon = build_transformation_matrix(scenario, case, glob)
    j_kappa = transform_fim(j_eta, upsilon)
    return efim_schur_route(j_kappa, upsilon.location_layout, case)
