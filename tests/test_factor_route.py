"""The production factor route against its oracles.

``compute_efim`` eliminates every clock and frequency offset by centering the
rows of its offset group, so the EFIM is the Gram matrix ``F^T F`` of the
centered rows (Shen & Win, "Fundamental Limits of Wideband Localization —
Part I", IEEE T-IT 2010).  These tests check it against the Schur complement
of the transformed channel FIM, against the Loewner order that nested
antennas and slots impose, and against a 50-digit evaluation of the same
Gram matrix.
"""

import dataclasses
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import BOUND_REL_TOL, FLAGSHIP, N_TRIALS, SEED, WIDE
from test_location_fim import _loewner_min

from leofim.analysis import crlb
from leofim.channel_fim import (
    assemble_channel_fim,
    build_transformation_matrix,
    efim_schur_route,
    transform_fim,
)
from leofim.links import LinkKind, _kinds, _link_pass, _scene, link_observables
from leofim.location_fim import (
    LocationLayout,
    _closed_form,
    _efims,
    _groups,
    _key,
    compute_efim,
)
from leofim.scenario import Case, ScenarioConfig, _sample, derive_trial_seeds, random_scenario
from leofim.signals import OffsetParams

from _oracle import closed_form, link_members, link_rows, link_weights

ORACLE_CONFIGS = {
    "wide": WIDE,
    "no_stations": dataclasses.replace(WIDE, n_leo=2, n_bs=0),
    "receiver_only": dataclasses.replace(WIDE, case=Case.RECEIVER_ONLY),
    "n_ant_64": dataclasses.replace(WIDE, n_ant=64),
    "L4Q4U32K20": dataclasses.replace(WIDE, n_leo=4, n_bs=4, n_ant=32, n_slots=20),
    "mixed_carriers": FLAGSHIP,
    "per_satellite_signals": dataclasses.replace(WIDE, n_leo=3),
}


def _schur_oracle(scenario):
    j_eta, glob = assemble_channel_fim(scenario)
    upsilon = build_transformation_matrix(scenario, glob=glob)
    j_kappa = transform_fim(j_eta, upsilon)
    return efim_schur_route(j_kappa, upsilon.location_layout, scenario.case).matrix


def _mixed_carriers(scenario):
    """The second station-receiver link moved to a 28 GHz carrier, so the
    station group's shared frequency offset sees two carriers."""
    signals = list(scenario.bs_rx_signals)
    signals[1] = dataclasses.replace(signals[1], carrier_freq=28e9)
    return dataclasses.replace(scenario, bs_rx_signals=tuple(signals))


def _per_satellite_signals(scenario):
    """Satellites of one link kind on their own signals: satellite 1's
    downlink and satellite-station links at 28 GHz with their own RMS
    duration, satellite 2's downlink with a per-observation SNR array and a
    frequency offset, so each satellite's offset group is weighted apart."""
    leo_rx, leo_bs = list(scenario.leo_rx_signals), list(scenario.leo_bs_signals)
    leo_rx[1], leo_bs[1] = (dataclasses.replace(props, carrier_freq=28e9, rms_duration=3e-4)
                            for props in (leo_rx[1], leo_bs[1]))
    n_obs = scenario.n_ant * scenario.n_slots
    snr_grid = np.linspace(20.0, 400.0, n_obs).reshape(scenario.n_ant, scenario.n_slots)
    leo_rx[2] = dataclasses.replace(leo_rx[2], snr_linear=snr_grid)
    offsets = list(scenario.leo_rx_offsets)
    offsets[2] = OffsetParams(freq_offset=350.0)
    return dataclasses.replace(scenario, leo_rx_signals=tuple(leo_rx),
                               leo_bs_signals=tuple(leo_bs), leo_rx_offsets=tuple(offsets))


ORACLE_EDITS = {"mixed_carriers": _mixed_carriers, "per_satellite_signals": _per_satellite_signals}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_factor_route_matches_schur_oracle(name, seed):
    scenario = random_scenario(ORACLE_CONFIGS[name], seed)
    scenario = ORACLE_EDITS.get(name, lambda sc: sc)(scenario)
    factor = compute_efim(scenario).matrix
    oracle = _schur_oracle(scenario)
    gap = np.linalg.norm(factor - oracle, "fro") / np.linalg.norm(oracle, "fro")
    assert gap <= 1e-12, gap


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("case", list(Case))
def test_a_satellite_stack_holds_each_satellites_own_rows_and_weights(seed, case):
    """Each satellite of a stacked batch is its own offset group: its rows and
    weights are bit for bit those of its own link (``link_rows``,
    ``link_weights``), on satellites whose carriers, RMS durations, SNR grids
    and frequency offsets differ.  The EFIM gap above cannot see a Doppler
    weight taken from another satellite: delays carry nearly all of it."""
    config = dataclasses.replace(ORACLE_CONFIGS["per_satellite_signals"], case=case)
    scenario = _per_satellite_signals(random_scenario(config, seed))
    layout = LocationLayout(n_leo=scenario.n_leo)
    scene = _scene(scenario, range(scenario.n_leo), range(scenario.n_bs))
    links = link_members(link_observables(scenario, case))
    stacks = [b for b in _link_pass(scene, _kinds(case)) if b.kind is not LinkKind.BS_RX]
    assert [b.kind for b in stacks] == [k for k in _kinds(case) if k is not LinkKind.BS_RX]
    for batch in stacks:
        key = _key(batch.kind, scenario.n_leo, scenario.n_bs, scenario.n_ant, scenario.n_slots)
        (g_tau, w_tau), (g_nu, w_nu) = _groups(batch, layout, key, slice(None))
        own = [(link, m) for link, m in links if link.kind is batch.kind]
        assert g_tau.shape[:2] == w_tau.shape[:2] == (1, len(own))
        for b, (link, m) in enumerate(own):
            rows, weights = link_rows(layout, link, m, m), link_weights(link, m)
            assert np.array_equal(g_tau[0, b], rows[0]) and np.array_equal(g_nu[0, b], rows[1])
            assert np.array_equal(w_tau[0, b], weights[0]), (batch.kind, b)
            assert np.array_equal(w_nu[0, b], weights[1]), (batch.kind, b)


CLOSED_FORM_CONFIGS = {
    "flagship": FLAGSHIP,
    "no_stations": ORACLE_CONFIGS["no_stations"],
    "receiver_only": ORACLE_CONFIGS["receiver_only"],
    "dead_stations": dataclasses.replace(WIDE, n_leo=2, snr_db_bs_rx=-4000.0),
    "mixed_carriers": FLAGSHIP,
    "per_satellite_signals": ORACLE_CONFIGS["per_satellite_signals"],
    "L4Q4U32K20": ORACLE_CONFIGS["L4Q4U32K20"],
}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", list(CLOSED_FORM_CONFIGS))
def test_closed_form_on_batches_matches_the_per_link_reference(name, seed):
    """The library's closed form, which reads the factor route's offset
    groups, gives the interest FIM and information loss of the per-link
    reference, whose station links pool their offset pair's ``m`` and ``n``
    (``closed_form``).  The station group instead scales each station's
    Doppler rows by ``f_c / f_1`` and weights them ``f_1^2 w_eps``: the
    mixed-carrier stations check that the two agree, and the -4000 dB
    stations (normalizer 0) that an unobserved group loses nothing."""
    scenario = random_scenario(CLOSED_FORM_CONFIGS[name], seed)
    scenario = ORACLE_EDITS.get(name, lambda sc: sc)(scenario)
    layout = LocationLayout(n_leo=scenario.n_leo)
    batched = _closed_form(layout, scenario)
    per_link = closed_form(layout, link_observables(scenario, scenario.case))
    for label, got, expected in zip(("interest", "loss"), batched, per_link):
        gap = np.linalg.norm(got - expected, "fro") / np.linalg.norm(expected, "fro")
        assert gap <= 1e-14, (label, gap)


SYMMETRY_CONFIGS = {
    "L4Q4U32K20": ORACLE_CONFIGS["L4Q4U32K20"],
    "no_stations": dataclasses.replace(WIDE, n_leo=2, n_bs=0),
    "one_antenna": dataclasses.replace(WIDE, n_leo=2, n_ant=1),
    "mixed_carriers": FLAGSHIP,
    "dead_stations": dataclasses.replace(WIDE, n_leo=2, snr_db_bs_rx=-4000.0),
}


@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("name", list(SYMMETRY_CONFIGS))
def test_factor_route_efims_are_exactly_symmetric(name, case):
    """Every Gram ``F^T F`` is exactly symmetric, and so is every sum of
    them, so the factor route's EFIMs are, bit for bit, with no
    symmetrization: ``compute_efim``'s and every cell of an ``_efims`` stack
    of three trials over every satellite count and a spread of sub-counts
    (no stations, one antenna, one slot among them)."""
    config = dataclasses.replace(SYMMETRY_CONFIGS[name], case=case)
    scenario = ORACLE_EDITS.get(name, lambda sc: sc)(random_scenario(config, SEED))
    matrix = compute_efim(scenario).matrix
    assert np.array_equal(matrix, matrix.mT)
    if name in ORACLE_EDITS:  # a per-link edit: the stack is the edited scenario's one trial
        scene = _scene(scenario, range(scenario.n_leo), range(scenario.n_bs))
    else:
        scene = _sample(config, derive_trial_seeds(SEED, 3))
    batches = _link_pass(scene, _kinds(case))
    counts = sorted({(n_bs, n_ant, n_slots) for n_bs in (0, config.n_bs)
                     for n_ant in (1, config.n_ant) for n_slots in (1, config.n_slots)})
    for n_leo in range(1, config.n_leo + 1):
        stack = _efims(batches, LocationLayout(n_leo=n_leo), counts)
        assert np.array_equal(stack, stack.mT), n_leo


def _truncated(scenario, n_bs, n_ant, n_slots):
    """``scenario`` on its first ``n_bs`` stations (and their signals), its
    first ``n_ant`` antennas and its first ``n_slots`` slots."""
    receiver = scenario.receiver
    return dataclasses.replace(
        scenario,
        receiver=dataclasses.replace(receiver, antenna_offsets=receiver.antenna_offsets[:n_ant]),
        bss=scenario.bss[:n_bs],
        bs_rx_signals=scenario.bs_rx_signals[:n_bs],
        grid=dataclasses.replace(scenario.grid, n_slots=n_slots),
    )


@pytest.mark.parametrize("case", list(Case))
def test_mixed_station_carriers_cut_to_every_sub_count_bit_for_bit(case):
    """Stations on two carriers through a cut: every cell of one ``_efims``
    over the edited scenario's one trial (one antenna and one slot among the
    sub-counts) is bit for bit the ``compute_efim`` of the same scenario
    truncated to the cell's counts, which in turn matches the Schur oracle.
    A station's Doppler rows carry ``f_c / f_1`` and its weight ``f_1^2``, so
    a cut must keep the first station's carrier as the reference."""
    scenario = _mixed_carriers(random_scenario(dataclasses.replace(FLAGSHIP, case=case), SEED))
    scene = _scene(scenario, range(scenario.n_leo), range(scenario.n_bs))
    counts = list(itertools.product([2, 3], [1, 4], [1, 3]))
    stack = _efims(_link_pass(scene, _kinds(case)), LocationLayout(n_leo=scenario.n_leo), counts)
    for sub_count, cell in zip(counts, stack):
        small = _truncated(scenario, *sub_count)
        expected = compute_efim(small).matrix
        assert np.array_equal(cell[0], expected), sub_count
        oracle = _schur_oracle(small)
        gap = np.linalg.norm(expected - oracle, "fro") / np.linalg.norm(oracle, "fro")
        assert gap <= 1e-12, (sub_count, gap)


def test_efims_leave_their_batches_untouched_and_reuse_cached_doppler_weights():
    """One family's batches (stations on two carriers) through ``_efims`` at
    every satellite count, twice: both runs give the same stacks, every
    batch's arrays keep their bytes, and the station batch caches one
    read-only Doppler weight array per distinct ``(key, trial count)``, built
    in the first run and reused by every later satellite count.  (All five
    trials fit one chunk at these counts, so each key has one trial count.)"""
    config = dataclasses.replace(WIDE, n_leo=3)
    scene = _sample(config, derive_trial_seeds(SEED, N_TRIALS))
    signals = list(scene.signals[LinkKind.BS_RX])
    signals[1] = dataclasses.replace(signals[1], carrier_freq=28e9)
    scene = dataclasses.replace(scene, signals={**scene.signals, LinkKind.BS_RX: tuple(signals)})
    batches = _link_pass(scene, _kinds(config.case))
    [stations] = [b for b in batches if b.kind is LinkKind.BS_RX]

    def contents():
        return [
            (a.shape, a.tobytes())
            for b in batches
            for a in (b.omega, b.snr, *vars(b.jacobians).values())
            if a is not None
        ]

    before = contents()
    counts = list(itertools.product([0, 2, 3], [1, 4], [1, 4]))
    runs, caches = [], []
    for _ in range(2):
        runs.append([_efims(batches, LocationLayout(n_leo=n), counts) for n in (1, 2, 3)])
        caches.append(dict(stations._weights))
    for first, second in zip(*runs):
        assert first.tobytes() == second.tobytes()
    assert contents() == before
    assert set(caches[0]) == set(caches[1]) == {(sub_count, N_TRIALS) for sub_count in counts}
    assert all(caches[1][k] is w and not w.flags.writeable for k, w in caches[0].items())


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    n_leo=st.integers(1, 3),
    n_bs=st.integers(0, 3),
    n_ant=st.integers(1, 8),
    n_slots=st.integers(1, 5),
    more_ant=st.integers(0, 4),
    more_slots=st.integers(0, 3),
    case=st.sampled_from(list(Case)),
    seed=st.integers(0, 2**64 - 1),
)
def test_more_antennas_or_slots_never_lower_the_efim(
    n_leo, n_bs, n_ant, n_slots, more_ant, more_slots, case, seed
):
    """Antennas and slots are nested prefixes of the sampled scenario, so
    adding either is a Loewner increase of the EFIM."""
    assume(more_ant + more_slots > 0)
    small = ScenarioConfig(n_leo=n_leo, n_bs=n_bs, n_ant=n_ant, n_slots=n_slots, case=case)
    large = dataclasses.replace(small, n_ant=n_ant + more_ant, n_slots=n_slots + more_slots)
    smaller = compute_efim(random_scenario(small, seed)).matrix
    larger = compute_efim(random_scenario(large, seed)).matrix
    assert _loewner_min(larger, smaller) >= -1e-9


def _mp_vel_offset_bound(scenario):
    """Satellite velocity-offset root-trace bound of the scenario's EFIM, with
    each link's own rows and weights (``link_rows``, ``link_weights``) and
    everything after them (centering, Gram matrix, balanced inverse) at 50
    digits.

    A frequency offset's group holds its members' Doppler rows in Hz, ``f_c
    dnu`` (formed here at 50 digits), with weights ``w_eps``, so the station
    links' shared offset is exact whatever their carriers."""
    layout = LocationLayout(n_leo=scenario.n_leo)
    dim = layout.dim_interest
    groups = {}
    for batch, m in link_members(link_observables(scenario, scenario.case)):
        w_tau, _, w_eps = link_weights(batch, m)
        g_tau, g_nu = link_rows(layout, batch, m, m)
        owner = "stations" if batch.kind is LinkKind.BS_RX else (batch.kind, m)
        groups.setdefault((owner, "delay"), []).append((g_tau, w_tau, 1.0))
        f_c = batch.signals[m].carrier_freq
        groups.setdefault((owner, "doppler"), []).append((g_nu, w_eps, f_c))
    mp = mpmath.mp
    with mp.workdps(50):
        columns = [[] for _ in range(dim)]
        for members in groups.values():
            weights = [mp.mpf(x) for _, w, _ in members for x in w]
            total = mp.fsum(weights)
            if total <= 0:
                continue
            roots = [mp.sqrt(x) for x in weights]
            for j in range(dim):
                entries = [mp.mpf(x) * scale for g, _, scale in members for x in g[:, j]]
                mean = mp.fdot(weights, entries) / total
                columns[j] += [r * (x - mean) for r, x in zip(roots, entries)]
        gram = mp.matrix(dim, dim)
        for i in range(dim):
            for j in range(i, dim):
                gram[i, j] = gram[j, i] = mp.fdot(columns[i], columns[j])
        scale = [1 / mp.sqrt(gram[i, i]) for i in range(dim)]
        balanced = mp.matrix(dim, dim)
        for i in range(dim):
            for j in range(dim):
                balanced[i, j] = gram[i, j] * scale[i] * scale[j]
        inverse = mp.inverse(balanced)
        vel = layout.vel_offset(0)
        trace = mp.fsum(inverse[i, i] * scale[i] ** 2 for i in range(vel.start, vel.stop))
        return float(mp.sqrt(trace))


def test_mpmath_oracle_certifies_acceptance_8_velocity_offset_spread():
    """Acceptance 8's antenna trials (4 / 16 / 64 antennas at 10 s slots),
    and the first of them with station links on two carriers: every
    production velocity-offset bound matches the 50-digit evaluation, whose
    trial-mean spread across antenna counts is 12.51 %."""
    template = dataclasses.replace(FLAGSHIP, slot_spacing_s=10.0)
    trial_seeds = derive_trial_seeds(SEED, N_TRIALS)
    means, worst = [], 0.0

    def exact_and_gap(scenario):
        bound = crlb(compute_efim(scenario), BOUND_REL_TOL).leo_vel_offset_bound[0]
        exact = _mp_vel_offset_bound(scenario)
        return exact, abs(bound / exact - 1.0)

    for n_ant in (4, 16, 64):
        config = dataclasses.replace(template, n_ant=n_ant)
        exact = []
        for trial_seed in trial_seeds:
            value, gap = exact_and_gap(random_scenario(config, trial_seed))
            exact.append(value)
            worst = max(worst, gap)
        means.append(float(np.mean(exact)))
    _, gap = exact_and_gap(_mixed_carriers(random_scenario(template, trial_seeds[0])))
    worst = max(worst, gap)
    spread = max(means) / min(means) - 1.0
    print(f"oracle sat-vel-offset spread {spread:.4%}, worst production gap {worst:.1e}")
    assert worst <= 1e-5
    assert abs(spread - 0.1251) <= 1e-4
