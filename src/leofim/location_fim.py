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
  trials of one configuration family together, cut every sub-count's rows
  from one build per link kind and trial chunking and form each kind's
  Grams (one offset group per satellite) in one call for all trials;
  :func:`compute_efim` is the one-trial, one-count case;
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
from dataclasses import dataclass, field, replace

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
    layout = LocationLayout(n_leo=scenario.n_leo)
    interest, _ = _closed_form(layout, link_observables(scenario, scenario.case))
    return InterestFim(matrix=interest, layout=layout)


def efim_lemma_route(scenario: Scenario) -> Efim:
    """EFIM by the closed-form route: interest FIM minus information loss.

    Every link's observables and Jacobian rows are evaluated once and shared
    by the interest and loss terms.
    """
    layout = LocationLayout(n_leo=scenario.n_leo)
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


def compute_efim(scenario: Scenario) -> Efim:
    """The EFIM of a scenario by the factor route (:func:`_efims`): one
    trial, one cell."""
    layout = LocationLayout(n_leo=scenario.n_leo)
    scene = _scene(scenario, range(scenario.n_leo), range(scenario.n_bs))
    pools = _pools(_link_pass(scene, _kinds(scenario.case)))
    matrix = _efims(pools, layout, [(scenario.n_bs, scenario.n_ant, scenario.n_slots)])[0, 0]
    return Efim(matrix=matrix, layout=layout, case=scenario.case)


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


@dataclass(frozen=True)
class _Pool:
    """One link kind's offset groups over a leading trial axis, stacked on a
    group axis: each satellite of a satellite link kind is its own group
    (its link has its own offset pair), and the station-receiver links, which
    share one offset pair, fold into a single group.  :func:`.kappa1_blocks`
    reads its ``jacobians`` as a link's, one satellite at a time.

    A pool views its link kind's :class:`.links._Batch`, so its arrays lie on
    the grid ``(members, rows, slots)`` after the trial axis.  Only the
    station pool's Doppler Jacobians, which have no antenna axis, are copies:
    each station's scaled by ``f_c / f_1`` (see :func:`_efims`).
    ``carrier_sq`` (the Doppler weight's squared carrier: each satellite's
    own, the first station's for every station) and ``half_ao2`` are
    ``(members, 1, 1)``, and ``snr``, like them, holds in every trial.  A
    sub-count's rows are built (:meth:`groups`) or cut (:meth:`cut`); its
    Doppler weights are kept, read-only, for the pool's life (``_weights``):
    a family's sweep asks for the station pool's at every satellite count.
    """

    kind: LinkKind
    jacobians: LinkJacobians
    omega: np.ndarray
    snr: np.ndarray
    carrier_sq: np.ndarray
    half_ao2: np.ndarray
    _weights: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def of(cls, batch: _Batch) -> "_Pool":
        """The pool of ``batch``'s members."""
        signals, jac = batch.signals, batch.jacobians
        carriers = [props.carrier_freq for props in signals]
        if batch.kind is LinkKind.BS_RX:
            scale = np.array([f_c / carriers[0] for f_c in carriers]).reshape(-1, 1, 1, 1)
            jac = replace(jac, dnu_dp=jac.dnu_dp * scale, dnu_dv=jac.dnu_dv * scale)
            carriers = carriers[:1] * len(carriers)
        return cls(
            kind=batch.kind,
            jacobians=jac,
            omega=batch.omega,
            snr=batch.snr,
            carrier_sq=np.array([_square(f_c) for f_c in carriers]).reshape(-1, 1, 1),
            half_ao2=np.array([0.5 * _square(p.rms_duration) for p in signals]).reshape(-1, 1, 1),
        )

    def key(self, n_leo: int, n_bs: int, n_ant: int, n_slots: int) -> tuple[int, int, int]:
        """The members, rows and slots a sub-count keeps."""
        members = n_bs if self.kind is LinkKind.BS_RX else n_leo
        return members, n_bs if self.kind is LinkKind.LEO_BS else n_ant, n_slots

    def _shape(self, key: tuple[int, int, int], rows: int) -> tuple[int, int]:
        """``(groups, n)``: ``key``'s offset groups and the rows of each on a
        grid of ``rows`` rows (explicit: a key may keep no rows)."""
        members, _, slots = key
        stations = self.kind is LinkKind.BS_RX
        return (1, members * rows * slots) if stations else (members, rows * slots)

    def groups(
        self, layout: LocationLayout, key: tuple[int, int, int], trials: slice
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``[(g_tau, w_tau), (g_nu, w_nu)]`` of ``trials`` on the first
        ``key`` members, rows and slots: the delay and Doppler groups' rows
        ``(T, groups, n, dim)`` in interest coordinates, zero outside the
        blocks they inform, flat in grid order, and their weights ``(T,
        groups, n)`` (see :func:`_link_weights`)."""
        members, rows, slots = key
        omega = self.omega[trials, :members, :rows, :slots]
        n_trials = len(omega)
        w_tau = self.snr[:members, :rows, :slots] * omega
        w_tau = w_tau.reshape(n_trials, *self._shape(key, rows))
        w_nu = self._doppler_weights(key, n_trials)
        g_tau = np.zeros((*w_tau.shape, layout.dim_interest))
        g_nu = np.zeros((n_trials, *w_nu.shape[1:], layout.dim_interest))
        # Each satellite's rows go to its own group and offset blocks; the stations' to one group.
        stations = self.kind is LinkKind.BS_RX
        for group, member in enumerate([slice(members)] if stations else range(members)):
            partials = (trials, member, slice(rows), slice(slots))
            for cols, dtau, dnu, put in kappa1_blocks(layout, self, None if stations else member):
                put(g_tau[:, group, :, cols], dtau[partials].reshape(n_trials, -1, 3))
                if dnu is not None:
                    put(g_nu[:, group, :, cols], dnu[partials].reshape(n_trials, -1, 3))
        return [(g_tau, w_tau), (g_nu, w_nu)]

    def _doppler_weights(self, key: tuple[int, int, int], n_trials: int) -> np.ndarray:
        """``w_nu (T, groups, n)`` at ``key``, the same in every trial but
        stacked, so every Gram operand is a C-contiguous stack: an array link
        sums SNR over the antennas it keeps.  Cached per ``(key, n_trials)``."""
        w_nu = self._weights.get((key, n_trials))
        if w_nu is None:
            members, rows, slots = key
            snr = self.snr[:members, :rows, :slots]
            snr_dop = snr if self.kind is LinkKind.LEO_BS else snr.sum(axis=1, keepdims=True)
            w_nu = snr_dop * self.carrier_sq[:members] * self.half_ao2[:members]
            w_nu = np.repeat(w_nu.reshape(1, *self._shape(key, snr_dop.shape[1])), n_trials, axis=0)
            w_nu.flags.writeable = False
            self._weights[key, n_trials] = w_nu
        return w_nu

    def cut(self, groups: list, built: tuple, key: tuple) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`groups` at ``key``, cut from the ``groups`` of the same trials
        at a ``built`` key that holds it as fresh C-contiguous copies: the Gram
        centers rows in place, and a strided operand takes ``matmul`` off BLAS,
        which changes the last bit.  An array link's Doppler grid has one row."""
        (g_tau, w_tau), (g_nu, _) = groups
        (members, rows, slots), n, dim = built, len(w_tau), g_tau.shape[-1]
        grid = (slice(None), *map(slice, key))
        nu_rows = rows if self.kind is LinkKind.LEO_BS else 1
        w_nu = self._doppler_weights(key, n)
        tau = (n, *self._shape(key, key[1]))
        w_tau = w_tau.reshape(n, members, rows, slots)[grid].copy().reshape(tau)
        g_tau = g_tau.reshape(n, members, rows, slots, dim)[grid].copy().reshape(*w_tau.shape, dim)
        g_nu = g_nu.reshape(n, members, nu_rows, slots, dim)[grid].copy()
        return [(g_tau, w_tau), (g_nu.reshape(n, *w_nu.shape[1:], dim), w_nu)]


def _pools(batches: list[_Batch]) -> list[_Pool]:
    """The offset pools of a link pass's batches, one per link kind: the
    satellite kinds' in link order, then the station-receiver links'."""
    return sorted(map(_Pool.of, batches), key=lambda pool: pool.kind is LinkKind.BS_RX)


# About how many bytes of dense rows one pool builds at once.
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
    forming the difference: a satellite's Doppler group is weighted ``f_c^2
    w_eps``, and the station group ``f_1^2 w_eps``, with ``f_1`` the first
    station's carrier and each station's rows scaled by ``f_c / f_1``
    (exactly 1 for a shared carrier).

    Sampling is nested (see :mod:`.scenario`), so a sub-count's links are the
    first elements and slots of the pools' links (a satellite pool keeps
    ``layout.n_leo`` members), and every trial of a family has the same
    shapes.  Pools go in link order, the station pool last.  Within a pool
    each distinct sub-count's Grams ``(T, groups, dim, dim)`` come from one
    stacked call per side, one contiguous BLAS product per (trial, group),
    and are added to every cell that keeps it, each group's delay then
    Doppler Gram, so each cell sums its groups in the same order as a
    scenario sampled at its own counts: bit for bit its EFIM.  Trials are
    taken a few at a time where one trial's rows are large, which bounds the
    dense rows one build holds (``_ROW_BYTES``, all its members counted).  A
    sub-count's rows are copies cut from the build at the largest sub-count
    with the same trial chunks that holds it, and each build is centered last.
    Every Gram is exactly symmetric (:func:`_centered_gram`), and so are
    their sums: the EFIMs need no symmetrization pass.
    """
    dim = layout.dim_interest
    n_trials = pools[0].omega.shape[0]
    out = np.zeros((len(counts), n_trials, dim, dim))
    for pool in pools:
        cells_by_key: dict[tuple[int, int, int], list[int]] = {}
        for cell, sub_count in enumerate(counts):
            cells_by_key.setdefault(pool.key(layout.n_leo, *sub_count), []).append(cell)
        # Per chunking, the largest key holding a key is built, and centered last.
        builds: dict[tuple[int, tuple[int, int, int]], list] = {}
        for key in sorted(cells_by_key, key=lambda k: (math.prod(k), k), reverse=True):
            step = min(n_trials, max(1, _ROW_BYTES // (8 * dim * max(1, math.prod(key)))))
            held = (b for s, b in builds if s == step and all(n <= m for n, m in zip(key, b)))
            builds.setdefault((step, next(held, key)), []).insert(0, key)
        for (step, built), keys in builds.items():
            for start in range(0, n_trials, step):
                trials = slice(start, start + step)
                rows = pool.groups(layout, built, trials)
                for key in keys:
                    tau, nu = (_centered_gram(g, w) for g, w in (
                        rows if key == built else pool.cut(rows, built, key)
                    ))
                    for cell in cells_by_key[key]:
                        total = out[cell, trials]
                        for group in range(tau.shape[1]):
                            total += tau[:, group]
                            total += nu[:, group]
                del rows, tau, nu  # before the next build: one build's rows alive at a time
    return out
