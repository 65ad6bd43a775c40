"""Finite-difference oracle for the delay/Doppler partials.

Everything here is rebuilt from the scalar oracle in ``_oracle`` (positions,
``unit_direction``, ``delay``, ``doppler``, ``velocity_at``), step sizes,
frozen Doppler directions and relative velocities included, so the analytic
partials that ``leofim.location_fim.kappa1_blocks`` writes, sign included,
are checked against an independent evaluation path, never against the link
pass that produced them.  :func:`signed_partials` reads those blocks under the
names :func:`fd_link_jacobians` gives them.

Differentiation conventions mirror the analytic ones, which the
``leofim.location_fim`` docstring states: delays are differentiated through
their full position dependence, while the Doppler velocity partials hold the
propagation direction fixed (the direction is an input of the ``doppler`` op)
and the Doppler position partials hold the relative velocity fixed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from leofim.geometry import SPEED_OF_LIGHT_M_S
from leofim.links import LinkKind, bs_rx_observables, leo_bs_observables, leo_rx_observables
from leofim.location_fim import LocationLayout, kappa1_blocks

from _oracle import (
    antenna_position,
    delay,
    doppler,
    leo_position,
    receiver_reference,
    time_of,
    unit_direction,
    velocity_at,
)

# Fourth-order central stencil: truncation ~h^4 keeps the step large enough to
# clear the eps*range cancellation floor of norms over ~2000 km geometry.
_STENCIL = ((-2.0, 1.0), (-1.0, -8.0), (1.0, 8.0), (2.0, -1.0))


def gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central-difference gradient of scalar ``f`` at ``x``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        acc = 0.0
        for mult, weight in _STENCIL:
            xp = x.copy()
            xp[i] += mult * h
            acc += weight * f(xp)
        out[i] = acc / (12.0 * h)
    return out


def _with_receiver(scenario, **changes):
    return dataclasses.replace(
        scenario, receiver=dataclasses.replace(scenario.receiver, **changes)
    )


def _with_leo(scenario, b, **changes):
    leos = list(scenario.leos)
    leos[b] = dataclasses.replace(leos[b], **changes)
    return dataclasses.replace(scenario, leos=tuple(leos))


def _with_orientation(scenario, angles_vec):
    from leofim.geometry import EulerAngles

    angles = EulerAngles(*(float(a) for a in angles_vec))
    return _with_receiver(scenario, orientation=angles)


def _position_step(pairs) -> float:
    """Position step: a fixed fraction of the shortest (source, target) range."""
    return 3e-5 * SPEED_OF_LIGHT_M_S * min(delay(source, target) for source, target in pairs)


# (delay name, Doppler name) of each kappa1 block's partials.
_BLOCK_NAMES = {
    "position": ("dtau_dp", "dnu_dp"),
    "velocity": ("dtau_dvu", "dnu_dvu"),
    "orientation": ("dtau_dphi", None),
    "pos_offset": ("dtau_dpcheck", "dnu_dpcheck"),
    "vel_offset": ("dtau_dvcheck", "dnu_dvcheck"),
}

_SINGLE_LINK = {
    LinkKind.LEO_RX: leo_rx_observables,
    LinkKind.BS_RX: bs_rx_observables,
    LinkKind.LEO_BS: leo_bs_observables,
}


def signed_partials(scenario, kind: LinkKind, index: int, obs=None) -> dict:
    """Every kappa1 block's partials of one link as ``kappa1_blocks`` writes
    them, sign included, named as in :func:`fd_link_jacobians`; blocks the
    link does not inform are absent.  ``obs`` is the link's observables, by
    default from its single-link entry point."""
    obs = _SINGLE_LINK[kind](scenario, index) if obs is None else obs
    layout = LocationLayout(n_leo=scenario.n_leo)
    names = {
        cols.start: _BLOCK_NAMES[name.rstrip("_0123456789")]
        for name, cols in layout.interest_blocks()
    }
    out = {}
    for cols, dtau, dnu, put in kappa1_blocks(layout, obs):
        tau_name, nu_name = names[cols.start]
        out[tau_name] = np.empty_like(dtau)
        put(out[tau_name], dtau)
        if dnu is not None:
            out[nu_name] = np.empty_like(dnu)
            put(out[nu_name], dnu)
    return out


def fd_link_jacobians(scenario, kind: LinkKind, index: int):
    """Finite-difference partials of one link with respect to each kappa1
    block it informs, named as in :func:`signed_partials`.
    """
    grid = scenario.grid
    slot_numbers = grid.slot_numbers()
    out = {}

    if kind in (LinkKind.LEO_RX, LinkKind.BS_RX):
        n_ant, n_slots = scenario.n_ant, grid.n_slots

        def tx_point(sc, k):
            if kind is LinkKind.LEO_RX:
                return leo_position(sc.leos[index], k, grid, include_offset=True)
            return sc.bss[index].position

        def tx_velocity(k):
            if kind is LinkKind.LEO_RX:
                return velocity_at(scenario.leos[index], k, include_offset=True)
            return np.zeros(3)

        h_pos = _position_step(
            (tx_point(scenario, k), antenna_position(scenario.receiver, u, k, grid))
            for k in slot_numbers
            for u in range(n_ant)
        )
        # A velocity step moves the slot-k position by k*dt*h, so keep its
        # largest displacement at the same fraction of the range as h_pos.
        h_vel = h_pos / time_of(grid, grid.n_slots)

        # --- delay partials ---------------------------------------------
        for name, rebuild, h in (
            ("dtau_dp", lambda sc, x: _with_receiver(sc, position=x), h_pos),
            ("dtau_dvu", lambda sc, x: _with_receiver(sc, velocity=x), h_vel),
            ("dtau_dphi", _with_orientation, 0.02),
        ):
            arr = np.zeros((n_ant, n_slots, 3))
            for i, k in enumerate(slot_numbers):
                for u in range(n_ant):

                    def tau_of(x, k=k, u=u, rebuild=rebuild):
                        sc = rebuild(scenario, x)
                        return delay(tx_point(sc, k), antenna_position(sc.receiver, u, k, grid))

                    base = {
                        "dtau_dp": scenario.receiver.position,
                        "dtau_dvu": scenario.receiver.velocity,
                        "dtau_dphi": scenario.receiver.orientation.as_array(),
                    }[name]
                    arr[u, i] = gradient(tau_of, base, h)
            out[name] = arr

        if kind is LinkKind.LEO_RX:
            for name, field, h in (
                ("dtau_dpcheck", "pos_offset", h_pos),
                ("dtau_dvcheck", "vel_offset", h_vel),
            ):
                arr = np.zeros((n_ant, n_slots, 3))
                for i, k in enumerate(slot_numbers):
                    for u in range(n_ant):
                        rx = antenna_position(scenario.receiver, u, k, grid)

                        def tau_of(x, k=k, rx=rx, field=field):
                            sc = _with_leo(scenario, index, **{field: x})
                            return delay(tx_point(sc, k), rx)

                        arr[u, i] = gradient(
                            tau_of, getattr(scenario.leos[index], field), h
                        )
                out[name] = arr

        # --- Doppler partials (per slot, at the array reference) ---------
        dnu_dp = np.zeros((n_slots, 3))
        dnu_dvu = np.zeros((n_slots, 3))
        for i, k in enumerate(slot_numbers):
            tx = tx_point(scenario, k)
            v_tx = tx_velocity(k)
            v_rel = v_tx - scenario.receiver.velocity
            d_fix = unit_direction(tx, receiver_reference(scenario.receiver, k, grid))

            def nu_of_pos(x, k=k, tx=tx, v_rel=v_rel):
                sc = _with_receiver(scenario, position=x)
                return doppler(unit_direction(tx, receiver_reference(sc.receiver, k, grid)), v_rel)

            def nu_of_vel(x, d_fix=d_fix, v_tx=v_tx):
                return doppler(d_fix, v_tx - x)

            dnu_dp[i] = gradient(nu_of_pos, scenario.receiver.position, h_pos)
            dnu_dvu[i] = gradient(nu_of_vel, scenario.receiver.velocity, h_vel)
        out["dnu_dp"] = dnu_dp
        out["dnu_dvu"] = dnu_dvu

        if kind is LinkKind.LEO_RX:
            dnu_dpcheck = np.zeros((n_slots, 3))
            dnu_dvcheck = np.zeros((n_slots, 3))
            for i, k in enumerate(slot_numbers):
                cen = receiver_reference(scenario.receiver, k, grid)
                v_rel = tx_velocity(k) - scenario.receiver.velocity
                d_fix = unit_direction(tx_point(scenario, k), cen)

                def nu_of_pcheck(x, k=k, cen=cen, v_rel=v_rel):
                    sc = _with_leo(scenario, index, pos_offset=x)
                    tx = leo_position(sc.leos[index], k, grid, include_offset=True)
                    return doppler(unit_direction(tx, cen), v_rel)

                def nu_of_vcheck(x, k=k, d_fix=d_fix):
                    v_tx = velocity_at(scenario.leos[index], k) + x
                    return doppler(d_fix, v_tx - scenario.receiver.velocity)

                dnu_dpcheck[i] = gradient(
                    nu_of_pcheck, scenario.leos[index].pos_offset, h_pos
                )
                dnu_dvcheck[i] = gradient(
                    nu_of_vcheck, scenario.leos[index].vel_offset, h_vel
                )
            out["dnu_dpcheck"] = dnu_dpcheck
            out["dnu_dvcheck"] = dnu_dvcheck
        return out

    # --- satellite-to-station link --------------------------------------
    leo = scenario.leos[index]
    n_bs, n_slots = scenario.n_bs, grid.n_slots
    h_pos = _position_step(
        (leo_position(leo, k, grid, include_offset=True), bs.position)
        for k in slot_numbers
        for bs in scenario.bss
    )
    h_vel = h_pos / time_of(grid, grid.n_slots)
    shapes = {
        "dtau_dpcheck": ("pos_offset", h_pos, True),
        "dtau_dvcheck": ("vel_offset", h_vel, True),
        "dnu_dpcheck": ("pos_offset", h_pos, False),
        "dnu_dvcheck": ("vel_offset", h_vel, False),
    }
    for name, (field, h, is_delay) in shapes.items():
        arr = np.zeros((n_bs, n_slots, 3))
        for i, k in enumerate(slot_numbers):
            tx_k = leo_position(leo, k, grid, include_offset=True)
            v_rel = velocity_at(leo, k, include_offset=True)
            for q in range(n_bs):
                station = scenario.bss[q].position
                d_fix = unit_direction(tx_k, station)

                def obs_of(x, k=k, q=q, station=station, v_rel=v_rel, d_fix=d_fix):
                    if field == "vel_offset" and not is_delay:
                        # frozen-direction convention for velocity partials
                        v_tx = velocity_at(scenario.leos[index], k) + x
                        return doppler(d_fix, v_tx)
                    sc = _with_leo(scenario, index, **{field: x})
                    tx = leo_position(sc.leos[index], k, grid, include_offset=True)
                    if is_delay:
                        return delay(tx, station)
                    return doppler(unit_direction(tx, station), v_rel)

                arr[q, i] = gradient(obs_of, getattr(scenario.leos[index], field), h)
        out[name] = arr
    return out


def compare(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst relative row error between two partial arrays (3-vectors last)."""
    a = analytic.reshape(-1, 3)
    n = numeric.reshape(-1, 3)
    worst = 0.0
    for av, nv in zip(a, n):
        scale = max(float(np.linalg.norm(av)), 1e-30)
        worst = max(worst, float(np.linalg.norm(av - nv)) / scale)
    return worst
