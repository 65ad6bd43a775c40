"""Per-link channel-parameter FIMs and the global assembly."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from leofim import channel_fim
from leofim.channel_fim import assemble_channel_fim, link_fim
from leofim.links import LinkKind, bs_rx_observables, leo_bs_observables, leo_rx_observables
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


HAND_FORMULA_LINKS = {
    "single_antenna_single_slot": (dict(n_ant=1, n_slots=1), leo_rx_observables),
    # One Doppler per slot, its terms summed over the antennas.
    "two_antennas_two_slots": (dict(n_ant=2, n_slots=2), leo_rx_observables),
    # One Doppler per (station, slot).
    "two_stations_two_slots": (dict(n_bs=2, n_slots=2), leo_bs_observables),
}


@pytest.mark.parametrize(
    "sizes, observables", HAND_FORMULA_LINKS.values(), ids=list(HAND_FORMULA_LINKS)
)
def test_link_fim_hand_formula(sizes, observables):
    """Every entry of a link FIM against a scalar loop over its observations.

    Observation (row, slot) adds ``snr * omega`` to its delay and to the
    clock offset, with ``-snr * omega`` between them; ``snr`` times the
    per-unit-SNR Doppler, cross and frequency-offset weights to its Doppler
    and the frequency offset; and ``snr / (4 pi^2)`` to the unit gain.  The
    loop adds observations one at a time in row-major order, so the shared
    entries (offset and gain totals, an array link's per-slot Doppler) must
    match to the bit.
    """
    sc = random_scenario(ScenarioConfig(**{"n_leo": 1, "n_bs": 1, "n_ant": 1, **sizes}), 2)
    batch = observables(sc, 0)
    # Uneven SNRs, so summing per-observation terms differs in the last bits
    # from weighting the summed SNR.
    spread = np.sqrt(1 + np.arange(batch.snr.size)).reshape(batch.snr.shape)
    batch = dataclasses.replace(batch, snr=batch.snr * spread)
    fim = link_fim(batch, 0)
    lay = fim.layout
    per_row = batch.kind is LinkKind.LEO_BS
    snrs, omegas = batch.snr[0], batch.omega[0, 0]
    f_c, alpha2 = batch.signals[0].carrier_freq, batch.signals[0].rms_duration**2
    dop, cross, eps = 0.5 * f_c**2 * alpha2, -0.5 * f_c * alpha2, 0.5 * alpha2
    gain = 1 / (4 * np.pi**2)  # unit gain magnitude
    delta, epsilon, beta = lay.time_offset, lay.freq_offset, lay.gain

    expected = np.zeros((lay.dim, lay.dim))
    for row in range(lay.n_rows):
        for k in range(lay.n_slots):
            snr = float(snrs[row, k])
            tau = row * lay.n_slots + k
            nu = lay.n_delays + (tau if per_row else k)
            sw = snr * float(omegas[row, k] if per_row else omegas[0, k])
            for i, j, value in [
                (tau, tau, sw), (tau, delta, -sw), (delta, tau, -sw), (delta, delta, sw),
                (nu, nu, snr * dop), (nu, epsilon, snr * cross), (epsilon, nu, snr * cross),
                (epsilon, epsilon, snr * eps), (beta, beta, snr * gain),
            ]:
                expected[i, j] += value
    assert np.array_equal(fim.matrix, expected)


def _link_fims(scenario, b_rx, q, b_bs):
    """Channel FIMs of one link of each kind."""
    return (
        link_fim(leo_rx_observables(scenario, b_rx), 0),
        link_fim(bs_rx_observables(scenario, q), 0),
        link_fim(leo_bs_observables(scenario, b_bs), 0),
    )


def test_zero_snr_gives_zero_information():
    sc = _zero_snr(random_scenario(ScenarioConfig(), 3))
    for fim in _link_fims(sc, 0, 0, 0):
        assert np.count_nonzero(fim.matrix) == 0


def test_waveform_moment_overflow_follows_errstate():
    """The Doppler and offset weights square the RMS duration as numpy
    scalars: an overflow raises ``FloatingPointError`` under ``np.errstate``,
    not Python's ``OverflowError``."""
    sc = random_scenario(ScenarioConfig(rms_duration_s=1e200, n_ant=2), 1)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        assemble_channel_fim(sc)


def test_link_fims_are_exactly_symmetric():
    sc = random_scenario(ScenarioConfig(n_leo=2, n_bs=2, n_ant=3, n_slots=2), 4)
    for fim in _link_fims(sc, 1, 1, 0):
        assert np.array_equal(fim.matrix, fim.matrix.T)


def test_link_layout_dimensions():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=3, n_ant=4, n_slots=3), 5)
    rx = link_fim(leo_rx_observables(sc, 0), 0)
    # 4*3 delays + 3 dopplers + 1 gain + time/frequency offsets
    assert rx.matrix.shape == (18, 18)
    sb = link_fim(leo_bs_observables(sc, 0), 0)
    # 3*3 delays + 3*3 dopplers + 1 gain + 2 offsets
    assert sb.matrix.shape == (21, 21)


def test_assembled_dimension_counts_shared_station_clock():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=3, n_ant=4, n_slots=3), 7)
    matrix, layout = assemble_channel_fim(sc)
    # 18 (sat-rx) + 3*(12+3+1)+2 (station-rx, one shared clock pair) + 21 (sat-station)
    assert matrix.shape == (89, 89)
    assert layout.dim == 89
    assert np.array_equal(matrix, matrix.T)
    kinds = [sec.fim.batch.kind for sec in layout.sections]
    assert kinds.count(LinkKind.LEO_RX) == 1
    assert kinds.count(LinkKind.BS_RX) == 3
    assert kinds.count(LinkKind.LEO_BS) == 1


def test_assembled_bs_clock_accumulates_across_stations():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=2, n_ant=1, n_slots=1), 8)
    matrix, layout = assemble_channel_fim(sc)
    col = layout.shared_bs_offsets[0]
    per_link = [link_fim(bs_rx_observables(sc, q), 0) for q in range(2)]
    expected = sum(f.matrix[f.layout.time_offset, f.layout.time_offset] for f in per_link)
    assert np.isclose(matrix[col, col], expected, rtol=1e-12)


def test_receiver_only_case_drops_satellite_station_links():
    config = ScenarioConfig(n_leo=2, n_bs=3, n_ant=2, n_slots=2, case=Case.RECEIVER_ONLY)
    matrix, layout = assemble_channel_fim(random_scenario(config, 9))
    kinds = [sec.fim.batch.kind for sec in layout.sections]
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
        link_fim(leo_rx_observables(sc, 5), 0)


def _imported_modules(node: ast.AST) -> set[str]:
    """The absolute module names an import statement of ``leofim`` may bind:
    ``from . import x`` may import ``leofim.x``."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    base = ".".join(filter(None, ["leofim" if node.level else None, node.module]))
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def test_only_the_package_root_imports_the_dense_oracle():
    """The dense oracle imports production and is never imported by it: no
    module of the package but ``__init__`` (which re-exports its names)
    imports ``channel_fim``, at module level or inside a function."""
    package = Path(channel_fim.__file__).parent
    importers = sorted({
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if "leofim.channel_fim" in _imported_modules(node)
    })
    assert importers == ["__init__.py"]
