"""Per-link channel-parameter FIMs and the global assembly."""

import dataclasses

import numpy as np
import pytest

from leofim.channel_fim import (
    LinkKind,
    assemble_channel_fim,
    link_fim_bs_rx,
    link_fim_leo_bs,
    link_fim_leo_rx,
)
from leofim.links import leo_rx_observables
from leofim.scenario import Case, ScenarioConfig, random_scenario


def _zero_snr(scenario):
    """Copy of a scenario with every link's SNR forced to zero."""
    z = lambda props: dataclasses.replace(props, snr_linear=0.0)
    return dataclasses.replace(
        scenario,
        leo_rx_signals=tuple(z(p) for p in scenario.leo_rx_signals),
        bs_rx_signals=tuple(z(p) for p in scenario.bs_rx_signals),
        leo_bs_signals=tuple(z(p) for p in scenario.leo_bs_signals),
    )


def test_single_antenna_single_slot_hand_formula():
    cfg = ScenarioConfig(n_leo=1, n_bs=1, n_ant=1, n_slots=1)
    sc = random_scenario(cfg, 2)
    obs = leo_rx_observables(sc, 0)
    fim = link_fim_leo_rx(sc, 0)
    lay = fim.layout
    snr = float(obs.snr[0, 0])
    om = float(obs.omega[0])
    alpha_o = obs.rms_duration
    f_c = obs.carrier_freq

    i_tau = lay.delays.start
    i_nu = lay.dopplers.start
    i_beta = lay.gain
    i_delta = lay.time_offset
    i_eps = lay.freq_offset

    m = fim.matrix
    assert np.isclose(m[i_tau, i_tau], snr * om, rtol=1e-12)
    assert np.isclose(m[i_delta, i_delta], snr * om, rtol=1e-12)
    assert np.isclose(m[i_tau, i_delta], -snr * om, rtol=1e-12)
    assert np.isclose(m[i_nu, i_nu], 0.5 * snr * f_c**2 * alpha_o**2, rtol=1e-12)
    assert np.isclose(m[i_nu, i_eps], -0.5 * snr * f_c * alpha_o**2, rtol=1e-12)
    assert np.isclose(m[i_eps, i_eps], 0.5 * snr * alpha_o**2, rtol=1e-12)
    gain = obs.gain
    assert np.isclose(m[i_beta, i_beta], snr / (4 * np.pi**2 * gain**2), rtol=1e-12)
    # structurally-zero couplings
    assert m[i_tau, i_nu] == 0.0
    assert m[i_delta, i_eps] == 0.0
    assert np.all(m[i_beta, :i_beta] == 0.0)


def test_zero_snr_gives_zero_information():
    sc = _zero_snr(random_scenario(ScenarioConfig(), 3))
    for fim in (link_fim_leo_rx(sc, 0), link_fim_bs_rx(sc, 0), link_fim_leo_bs(sc, 0)):
        assert np.count_nonzero(fim.matrix) == 0


def test_link_fims_are_exactly_symmetric():
    sc = random_scenario(ScenarioConfig(n_leo=2, n_bs=2, n_ant=3, n_slots=2), 4)
    for fim in (link_fim_leo_rx(sc, 1), link_fim_bs_rx(sc, 1), link_fim_leo_bs(sc, 0)):
        assert np.array_equal(fim.matrix, fim.matrix.T)


def test_link_layout_dimensions():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=3, n_ant=4, n_slots=3), 5)
    rx = link_fim_leo_rx(sc, 0)
    # 4*3 delays + 3 dopplers + 1 gain + time/frequency offsets
    assert rx.matrix.shape == (18, 18)
    sb = link_fim_leo_bs(sc, 0)
    # 3*3 delays + 3*3 dopplers + 1 gain + 2 offsets
    assert sb.matrix.shape == (21, 21)


def test_assembled_dimension_counts_shared_station_clock():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=3, n_ant=4, n_slots=3), 7)
    matrix, layout = assemble_channel_fim(sc)
    # 18 (sat-rx) + 3*(12+3+1)+2 (station-rx, one shared clock pair) + 21 (sat-station)
    assert matrix.shape == (89, 89)
    assert layout.dim == 89
    assert np.array_equal(matrix, matrix.T)
    kinds = [sec.fim.link_kind for sec in layout.sections]
    assert kinds.count(LinkKind.LEO_RX) == 1
    assert kinds.count(LinkKind.BS_RX) == 3
    assert kinds.count(LinkKind.LEO_BS) == 1


def test_assembled_bs_clock_accumulates_across_stations():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=2, n_ant=1, n_slots=1), 8)
    matrix, layout = assemble_channel_fim(sc)
    col = layout.shared_bs_offsets[0]
    per_link = [link_fim_bs_rx(sc, q) for q in range(2)]
    expected = sum(f.matrix[f.layout.time_offset, f.layout.time_offset] for f in per_link)
    assert np.isclose(matrix[col, col], expected, rtol=1e-12)


def test_receiver_only_case_drops_satellite_station_links():
    config = ScenarioConfig(n_leo=2, n_bs=3, n_ant=2, n_slots=2, case=Case.RECEIVER_ONLY)
    matrix, layout = assemble_channel_fim(random_scenario(config, 9))
    kinds = [sec.fim.link_kind for sec in layout.sections]
    assert LinkKind.LEO_BS not in kinds
    assert kinds.count(LinkKind.LEO_RX) == 2
    assert kinds.count(LinkKind.BS_RX) == 3
    # satellites: 2*(2*2+2+1+2)=18; stations: 3*(2*2+2+1)+2=23
    assert matrix.shape == (41, 41)


def test_assembly_is_positive_semidefinite():
    sc = random_scenario(ScenarioConfig(n_leo=2, n_bs=2, n_ant=2, n_slots=2), 10)
    matrix, _ = assemble_channel_fim(sc)
    from leofim.linalg import balanced_eigvalsh

    w = balanced_eigvalsh(matrix)
    assert w[0] >= -1e-9 * max(w[-1], 0.0)


def test_bad_link_index_raises():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=1), 11)
    with pytest.raises(IndexError):
        link_fim_leo_rx(sc, 5)
