"""The broadcast link pass against a scalar oracle, bit for bit.

The oracle walks every (element, slot) pair with the scalar geometry
primitives (``antenna_position``, ``leo_position``, ``receiver_reference``,
``unit_direction``, ``doppler``), so the vectorized observables are checked
against an independent evaluation path that must agree to the last bit.
"""

import dataclasses

import numpy as np
import pytest

from leofim.geometry import (
    BsState,
    DegenerateGeometryError,
    antenna_position,
    doppler,
    leo_position,
    receiver_reference,
    unit_direction,
)
from leofim.links import (
    LinkKind,
    bs_rx_observables,
    leo_bs_observables,
    leo_rx_observables,
    link_observables,
)
from leofim.scenario import Case, ScenarioConfig, random_scenario
from leofim.signals import OffsetParams, effective_frequency, omega

FIELDS = ("dirs", "dists", "dop_dirs", "dop_dists", "v_rel", "nu", "f_o", "omega", "snr", "k_times")


def _toward(source, target):
    return unit_direction(source, target), np.linalg.norm(target - source)


def _rx_oracle(scenario, kind, index):
    """Observables of a link received by the array, one pair at a time."""
    grid, receiver = scenario.grid, scenario.receiver
    n_ant, n_slots = scenario.n_ant, scenario.n_slots
    if kind is LinkKind.LEO_RX:
        props, offsets = scenario.leo_rx_signals[index], scenario.leo_rx_offsets[index]
    else:
        props, offsets = scenario.bs_rx_signals[index], scenario.bs_rx_offset
    out = {
        "dirs": np.zeros((n_ant, n_slots, 3)),
        "dists": np.zeros((n_ant, n_slots)),
        "dop_dirs": np.zeros((n_slots, 3)),
        "dop_dists": np.zeros(n_slots),
        "v_rel": np.zeros((n_slots, 3)),
        "nu": np.zeros(n_slots),
        "k_times": np.zeros(n_slots),
    }
    for i, k in enumerate(grid.slot_numbers()):
        if kind is LinkKind.LEO_RX:
            leo = scenario.leos[index]
            tx = leo_position(leo, k, grid, include_offset=True)
            out["v_rel"][i] = leo.velocity_at(k, include_offset=True) - receiver.velocity
        else:
            tx = scenario.bss[index].position
            out["v_rel"][i] = -receiver.velocity
        out["dop_dirs"][i], out["dop_dists"][i] = _toward(tx, receiver_reference(receiver, k, grid))
        out["nu"][i] = doppler(out["dop_dirs"][i], out["v_rel"][i])
        out["k_times"][i] = grid.time_of(k)
        for u in range(n_ant):
            rx = antenna_position(receiver, u, k, grid)
            out["dirs"][u, i], out["dists"][u, i] = _toward(tx, rx)
    return _with_weights(out, props, offsets)


def _leo_bs_oracle(scenario, b):
    """Observables of satellite ``b``'s station links, one pair at a time."""
    grid, leo = scenario.grid, scenario.leos[b]
    n_bs, n_slots = scenario.n_bs, scenario.n_slots
    out = {
        "dirs": np.zeros((n_bs, n_slots, 3)),
        "dists": np.zeros((n_bs, n_slots)),
        "v_rel": np.zeros((n_slots, 3)),
        "nu": np.zeros((n_bs, n_slots)),
        "k_times": np.zeros(n_slots),
    }
    for i, k in enumerate(grid.slot_numbers()):
        tx = leo_position(leo, k, grid, include_offset=True)
        out["v_rel"][i] = leo.velocity_at(k, include_offset=True)
        out["k_times"][i] = grid.time_of(k)
        for q, bs in enumerate(scenario.bss):
            out["dirs"][q, i], out["dists"][q, i] = _toward(tx, bs.position)
            out["nu"][q, i] = doppler(out["dirs"][q, i], out["v_rel"][i])
    out["dop_dirs"], out["dop_dists"] = out["dirs"], out["dists"]
    return _with_weights(out, scenario.leo_bs_signals[b], scenario.leo_bs_offsets[b])


def _with_weights(out, props, offsets):
    out["f_o"] = np.array(
        [effective_frequency(props.carrier_freq, nu, offsets.freq_offset) for nu in out["nu"].ravel()]
    ).reshape(out["nu"].shape)
    out["omega"] = np.array(
        [omega(props.eff_bandwidth, props.bcc, f) for f in out["f_o"].ravel()]
    ).reshape(out["nu"].shape)
    out["snr"] = np.full(out["dists"].shape, float(props.snr_linear))
    return out


def _oracle(scenario, kind, index):
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
        reference = _oracle(sc, obs.kind, obs.index)
        for name in FIELDS:
            got = getattr(obs, name)
            assert got.shape == reference[name].shape, (obs.kind, obs.index, name)
            assert np.array_equal(got, reference[name]), (obs.kind, obs.index, name)


def test_public_entry_points_return_one_link_each():
    sc = random_scenario(ScenarioConfig(n_leo=2, n_bs=2, n_ant=3, n_slots=2), 5)
    for fn, kind, index in (
        (leo_rx_observables, LinkKind.LEO_RX, 1),
        (bs_rx_observables, LinkKind.BS_RX, 1),
        (leo_bs_observables, LinkKind.LEO_BS, 0),
    ):
        obs = fn(sc, index)
        assert (obs.kind, obs.index) == (kind, index)
        assert obs.dirs.shape[:2] == obs.snr.shape
        assert obs.per_row_doppler is (kind is LinkKind.LEO_BS)


def test_station_at_array_reference_point_raises():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=2, n_ant=2, n_slots=3), 3)
    point = receiver_reference(sc.receiver, 2, sc.grid)
    moved = dataclasses.replace(sc, bss=(sc.bss[0], BsState(position=point)))
    bs_rx_observables(moved, 0)
    with pytest.raises(DegenerateGeometryError):
        bs_rx_observables(moved, 1)
