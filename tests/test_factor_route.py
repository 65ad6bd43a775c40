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

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import BOUND_REL_TOL, FLAGSHIP, N_TRIALS, SEED, WIDE
from test_location_fim import _loewner_min

from leofim.analysis import crlb
from leofim.channel_fim import assemble_channel_fim
from leofim.links import LinkKind, link_observables
from leofim.location_fim import _link_weights, _rows, compute_efim, efim_schur_route
from leofim.scenario import Case, ScenarioConfig, derive_trial_seeds, random_scenario
from leofim.transform import LocationLayout, build_transformation_matrix, transform_fim

ORACLE_CONFIGS = {
    "wide": WIDE,
    "no_stations": dataclasses.replace(WIDE, n_leo=2, n_bs=0),
    "receiver_only": dataclasses.replace(WIDE, case=Case.RECEIVER_ONLY),
    "n_ant_64": dataclasses.replace(WIDE, n_ant=64),
    "L4Q4U32K20": dataclasses.replace(WIDE, n_leo=4, n_bs=4, n_ant=32, n_slots=20),
}


def _schur_oracle(scenario):
    j_eta, glob = assemble_channel_fim(scenario)
    upsilon = build_transformation_matrix(scenario, glob=glob)
    j_kappa = transform_fim(j_eta, upsilon)
    return efim_schur_route(j_kappa, upsilon.location_layout, scenario.case).matrix


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_factor_route_matches_schur_oracle(name, seed):
    scenario = random_scenario(ORACLE_CONFIGS[name], seed)
    factor = compute_efim(scenario).matrix
    oracle = _schur_oracle(scenario)
    gap = np.linalg.norm(factor - oracle, "fro") / np.linalg.norm(oracle, "fro")
    assert gap <= 1e-12, gap


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
    the rows and weights of the production helpers and everything after them
    (centering, Gram matrix, balanced inverse) at 50 digits."""
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    dim = layout.dim_interest
    groups = {}
    for n, obs in enumerate(link_observables(scenario, scenario.case)):
        w_tau, w_nu, _ = _link_weights(obs)
        g_tau, g_nu = _rows(layout, obs)
        owner = "stations" if obs.kind is LinkKind.BS_RX else n
        groups.setdefault((owner, "delay"), []).append((g_tau, w_tau))
        groups.setdefault((owner, "doppler"), []).append((g_nu, w_nu))
    mp = mpmath.mp
    with mp.workdps(50):
        columns = [[] for _ in range(dim)]
        for members in groups.values():
            g, w = (np.concatenate(part) for part in zip(*members))
            weights = [mp.mpf(x) for x in w]
            total = mp.fsum(weights)
            if total <= 0:
                continue
            roots = [mp.sqrt(x) for x in weights]
            for j in range(dim):
                entries = [mp.mpf(x) for x in g[:, j]]
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
    """Acceptance 8's antenna trials (4 / 16 / 64 antennas at 10 s slots):
    every production velocity-offset bound matches the 50-digit evaluation,
    whose trial-mean spread across antenna counts is 12.51 %."""
    template = dataclasses.replace(FLAGSHIP, slot_spacing_s=10.0)
    means, worst = [], 0.0
    for n_ant in (4, 16, 64):
        config = dataclasses.replace(template, n_ant=n_ant)
        exact = []
        for trial_seed in derive_trial_seeds(SEED, N_TRIALS):
            scenario = random_scenario(config, trial_seed)
            bound = crlb(compute_efim(scenario), BOUND_REL_TOL).leo_vel_offset_bound[0]
            exact.append(_mp_vel_offset_bound(scenario))
            worst = max(worst, abs(bound / exact[-1] - 1.0))
        means.append(float(np.mean(exact)))
    spread = max(means) / min(means) - 1.0
    print(f"oracle sat-vel-offset spread {spread:.4%}, worst production gap {worst:.1e}")
    assert worst <= 1e-5
    assert abs(spread - 0.1251) <= 1e-4
