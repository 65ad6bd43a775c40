"""The broadcast link pass against a scalar oracle, bit for bit.

The oracle walks every (element, slot) pair with the scalar geometry
primitives of ``_oracle`` (``antenna_position``, ``leo_position``,
``receiver_reference``, ``unit_direction``, ``doppler``, ``time_of``,
``velocity_at``), so the vectorized weights ``omega`` and ``snr``, and every
Jacobian that is an elementwise expression of a direction, are checked
against an independent evaluation path that must agree to the last bit.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from leofim.geometry import SPEED_OF_LIGHT_M_S, BsState, DegenerateGeometryError
from leofim.links import (
    LinkKind,
    bs_rx_observables,
    leo_bs_observables,
    leo_rx_observables,
    link_jacobians,
    link_observables,
    select_links,
)
from leofim.scenario import Case, ScenarioConfig, random_scenario
from leofim.signals import OffsetParams, effective_frequency, omega

from _oracle import (
    antenna_position,
    doppler,
    leo_position,
    receiver_reference,
    time_of,
    unit_direction,
    velocity_at,
)


def _rx_oracle(scenario, kind, index):
    """Weights and direction-only Jacobians of a link received by the array,
    one pair at a time."""
    grid, receiver = scenario.grid, scenario.receiver
    n_ant, n_slots = scenario.n_ant, scenario.n_slots
    if kind is LinkKind.LEO_RX:
        props, offsets = scenario.leo_rx_signals[index], scenario.leo_rx_offsets[index]
    else:
        props, offsets = scenario.bs_rx_signals[index], scenario.bs_rx_offset
    out = {name: np.zeros((n_ant, n_slots, 3)) for name in ("dtau_dp", "dtau_dvu")}
    out["dnu_dvu"] = np.zeros((n_slots, 3))
    nu = np.zeros(n_slots)
    for i, k in enumerate(grid.slot_numbers()):
        if kind is LinkKind.LEO_RX:
            leo = scenario.leos[index]
            tx = leo_position(leo, k, grid, include_offset=True)
            v_rel = velocity_at(leo, k, include_offset=True) - receiver.velocity
        else:
            tx = scenario.bss[index].position
            v_rel = -receiver.velocity
        d_ref = unit_direction(tx, receiver_reference(receiver, k, grid))
        nu[i] = doppler(d_ref, v_rel)
        out["dnu_dvu"][i] = -d_ref / SPEED_OF_LIGHT_M_S
        for u in range(n_ant):
            d = unit_direction(tx, antenna_position(receiver, u, k, grid))
            out["dtau_dp"][u, i] = d / SPEED_OF_LIGHT_M_S
            out["dtau_dvu"][u, i] = time_of(grid, k) * d / SPEED_OF_LIGHT_M_S
    if kind is LinkKind.LEO_RX:
        out["dtau_dpcheck"] = -out["dtau_dp"]
        out["dtau_dvcheck"] = -out["dtau_dvu"]
        out["dnu_dvcheck"] = -out["dnu_dvu"]
    return _with_weights(out, nu, (n_ant, n_slots), props, offsets)


def _leo_bs_oracle(scenario, b):
    """Weights and direction-only Jacobians of satellite ``b``'s station
    links, one pair at a time."""
    grid, leo = scenario.grid, scenario.leos[b]
    n_bs, n_slots = scenario.n_bs, scenario.n_slots
    names = ("dtau_dpcheck", "dtau_dvcheck", "dnu_dvcheck")
    out = {name: np.zeros((n_bs, n_slots, 3)) for name in names}
    nu = np.zeros((n_bs, n_slots))
    for i, k in enumerate(grid.slot_numbers()):
        tx = leo_position(leo, k, grid, include_offset=True)
        v_rel = velocity_at(leo, k, include_offset=True)
        for q, bs in enumerate(scenario.bss):
            d = unit_direction(tx, bs.position)
            nu[q, i] = doppler(d, v_rel)
            out["dtau_dpcheck"][q, i] = -d / SPEED_OF_LIGHT_M_S
            out["dtau_dvcheck"][q, i] = time_of(grid, k) * out["dtau_dpcheck"][q, i]
            out["dnu_dvcheck"][q, i] = d / SPEED_OF_LIGHT_M_S
    props, offsets = scenario.leo_bs_signals[b], scenario.leo_bs_offsets[b]
    return _with_weights(out, nu, (n_bs, n_slots), props, offsets)


def _with_weights(out, nu, shape, props, offsets):
    """``out`` plus the link's ``omega`` (per Doppler shift ``nu``) and ``snr``
    (per delay observation of an element-by-slot grid of ``shape``)."""
    f_o = [effective_frequency(props.carrier_freq, v, offsets.freq_offset) for v in nu.ravel()]
    omegas = [omega(props.eff_bandwidth, props.bcc, f) for f in f_o]
    out["omega"] = np.array(omegas).reshape(nu.shape)
    out["snr"] = np.full(shape, float(props.snr_linear))
    return out


def _link_oracle(scenario, kind, index):
    if kind is LinkKind.LEO_BS:
        return _leo_bs_oracle(scenario, index)
    return _rx_oracle(scenario, kind, index)


def _offset_scenario(seed, **overrides):
    """A sampled scenario with nonzero ephemeris and frequency offsets, so the
    oracle also covers the offset terms."""
    sc = random_scenario(ScenarioConfig(**overrides), seed)
    leos = tuple(
        dataclasses.replace(leo, pos_offset=[3.0, -1.5, 0.25 * b], vel_offset=[0.2, 0.1, -0.05])
        for b, leo in enumerate(sc.leos)
    )
    return dataclasses.replace(
        sc,
        leos=leos,
        leo_rx_offsets=tuple(OffsetParams(freq_offset=120.0 + b) for b in range(sc.n_leo)),
        bs_rx_offset=OffsetParams(freq_offset=-40.0),
        leo_bs_offsets=tuple(OffsetParams(freq_offset=7.5 * b) for b in range(sc.n_leo)),
    )


@pytest.mark.parametrize("seed", [1, 42, 7])
@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("n_ant", [1, 4])
def test_link_pass_matches_scalar_oracle_bit_for_bit(seed, case, n_ant):
    sc = _offset_scenario(seed, n_leo=2, n_bs=3, n_ant=n_ant, n_slots=3, case=case)
    links = link_observables(sc, case)
    expected_kinds = [LinkKind.LEO_RX] * 2 + [LinkKind.BS_RX] * 3
    if case is Case.WITH_BS:
        expected_kinds += [LinkKind.LEO_BS] * 2
    assert [obs.kind for obs in links] == expected_kinds
    for obs in links:
        reference = _link_oracle(sc, obs.kind, obs.index)
        for name in reference:
            got = getattr(obs.jacobians if name.startswith("d") else obs, name)
            assert got.shape == reference[name].shape, (obs.kind, obs.index, name)
            assert np.array_equal(got, reference[name]), (obs.kind, obs.index, name)


@pytest.mark.parametrize("case", list(Case))
def test_link_observables_match_single_link_entry_points_bit_for_bit(case):
    """The scenario-wide pass shares one receiver-array geometry across its
    links; each single-link entry point builds its own, to the same bits."""
    sc = _offset_scenario(42, n_leo=2, n_bs=3, n_ant=4, n_slots=3, case=case)
    single = {
        LinkKind.LEO_RX: leo_rx_observables,
        LinkKind.BS_RX: bs_rx_observables,
        LinkKind.LEO_BS: leo_bs_observables,
    }
    for obs in link_observables(sc, case):
        _assert_same_link(obs, single[obs.kind](sc, obs.index))
        _assert_same_link(obs.jacobians, link_jacobians(sc, obs.kind, obs.index), obs)


def _assert_same_link(got_from, expected_from, obs=None):
    """Every field of two links, their Jacobians included, bit for bit."""
    obs = got_from if obs is None else obs
    for field in dataclasses.fields(got_from):
        got, expected = getattr(got_from, field.name), getattr(expected_from, field.name)
        label = (obs.kind, obs.index, field.name)
        if got is None or expected is None:
            assert (got is None) is (expected is None), label
        elif isinstance(got, np.ndarray):
            assert got.shape == expected.shape, label
            assert np.array_equal(got, expected), label
        elif dataclasses.is_dataclass(got):
            _assert_same_link(got, expected, obs)
        else:
            assert got == expected, label


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("case", list(Case))
def test_selected_links_match_the_smaller_scenario_bit_for_bit(seed, case):
    """Truncating the links of the largest counts gives, for every sub-count,
    the links of the scenario sampled at that sub-count."""
    big = dict(n_leo=3, n_bs=3, n_ant=5, n_slots=7, case=case)
    full = link_observables(_offset_scenario(seed, **big), case)
    for n_leo, n_bs, n_ant, n_slots in itertools.product([1, 3], [0, 2, 3], [1, 5], [1, 4, 7]):
        counts = dict(n_leo=n_leo, n_bs=n_bs, n_ant=n_ant, n_slots=n_slots)
        expected = link_observables(_offset_scenario(seed, **(big | counts)), case)
        got = select_links(full, n_leo, n_bs, n_ant, n_slots)
        assert [(o.kind, o.index) for o in got] == [(o.kind, o.index) for o in expected]
        for got_obs, expected_obs in zip(got, expected):
            _assert_same_link(got_obs, expected_obs)


def test_public_entry_points_return_one_link_each():
    sc = random_scenario(ScenarioConfig(n_leo=2, n_bs=2, n_ant=3, n_slots=2), 5)
    for fn, kind, index in (
        (leo_rx_observables, LinkKind.LEO_RX, 1),
        (bs_rx_observables, LinkKind.BS_RX, 1),
        (leo_bs_observables, LinkKind.LEO_BS, 0),
    ):
        obs = fn(sc, index)
        assert (obs.kind, obs.index) == (kind, index)
        jac = obs.jacobians
        delay_partial = jac.dtau_dpcheck if kind is LinkKind.LEO_BS else jac.dtau_dp
        assert delay_partial.shape[:2] == obs.snr.shape
        assert obs.per_row_doppler is (kind is LinkKind.LEO_BS)


def test_station_at_array_reference_point_raises():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=2, n_ant=2, n_slots=3), 3)
    point = receiver_reference(sc.receiver, 2, sc.grid)
    moved = dataclasses.replace(sc, bss=(sc.bss[0], BsState(position=point)))
    bs_rx_observables(moved, 0)
    with pytest.raises(DegenerateGeometryError):
        bs_rx_observables(moved, 1)
