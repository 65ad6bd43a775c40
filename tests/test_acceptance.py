"""End-to-end acceptance checks.

One test per shipped claim, each printing a single verdict line

    ACCEPTANCE <n> <name>: PASS/FAIL — <measured values>

before asserting, so a full run documents every measured number in one place.
All randomness is seeded; every number here is reproducible by re-running.
"""

import dataclasses
import json
import time

import numpy as np

from _fd import compare, fd_link_jacobians

from leofim.analysis import (
    crlb,
    identifiability_sweep,
    is_identifiable,
    parameter_sweep,
)
from leofim.channel_fim import LinkKind, assemble_channel_fim
from leofim.cli import main
from leofim.linalg import balanced_eigvalsh, invert_psd
from leofim.links import link_jacobians
from leofim.location_fim import (
    assemble_information_loss,
    assemble_interest_fim,
    compute_efim,
    efim_lemma_route,
)
from leofim.scenario import (
    Case,
    ScenarioConfig,
    derive_trial_seeds,
    random_scenario,
)
from leofim.transform import build_transformation_matrix, transform_fim

SEED = 42
N_TRIALS = 5
BOUND_REL_TOL = 1e-12  # bound extraction (verdicts elsewhere use the default)

# Reference-campaign template: 1 satellite, 3 stations, 4 antennas, 3 slots,
# 40 GHz carrier, 100 MHz effective bandwidth, zero BCC, 20 dB SNR on all links.
FLAGSHIP = ScenarioConfig(n_leo=1, n_bs=3, n_ant=4, n_slots=3)

# Spread-station geometry: identifiable at the default tolerance (the
# reference geometry's station split is too narrow for that; see README).
WIDE = ScenarioConfig(
    n_leo=1, n_bs=3, n_ant=4, n_slots=4, slot_spacing_s=50.0, bs_distance_m=5e5
)


def _verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def _mean_bounds(template: ScenarioConfig) -> dict:
    reports = []
    for seed in derive_trial_seeds(SEED, N_TRIALS):
        efim = compute_efim(random_scenario(template, seed))
        reports.append(crlb(efim, rel_tol=BOUND_REL_TOL))
    return {
        "pos": float(np.mean([r.pos_rmse_bound for r in reports])),
        "vel": float(np.mean([r.vel_rmse_bound for r in reports])),
        "orient": float(np.mean([r.orient_rmse_bound for r in reports])),
        "pos_offset": float(np.mean([r.leo_pos_offset_bound[0] for r in reports])),
        "vel_offset": float(np.mean([r.leo_vel_offset_bound[0] for r in reports])),
    }


def test_acceptance_1_identifiability_table():
    """Joint identifiability over the counts grid matches the claimed table."""
    start = time.monotonic()
    grid = {"n_leo": [1, 2, 3], "n_bs": [2, 3], "n_slots": [3, 4], "n_ant": [1, 2, 4]}
    table = identifiability_sweep(grid, FLAGSHIP, seed=SEED, n_trials=N_TRIALS)
    elapsed = time.monotonic() - start
    got = {
        (v.config.n_leo, v.config.n_bs, v.config.n_slots, v.config.n_ant): v.is_pd
        for v in table
    }

    required: list[tuple[tuple[int, int, int, int], bool]] = []
    for n_ant in (2, 4):
        required += [
            ((1, 3, 3, n_ant), True),
            ((2, 3, 3, n_ant), True),
            ((3, 3, 4, n_ant), True),
            ((3, 3, 3, n_ant), False),
            ((1, 2, 3, n_ant), False),
        ]
    required += [
        ((n_leo, n_bs, n_slots, 1), False)
        for n_leo in (1, 2, 3)
        for n_bs in (2, 3)
        for n_slots in (3, 4)
    ]

    mismatches = [
        f"{cell} expected {'PD' if want else 'not-PD'}"
        for cell, want in required
        if got[cell] != want
    ]
    ok = not mismatches and elapsed < 60.0
    detail = (
        f"{len(required) - len(mismatches)}/{len(required)} required rows match, "
        f"{elapsed:.1f} s"
    )
    if mismatches:
        detail += "; mismatched: " + "; ".join(mismatches)
    line = _verdict(1, "identifiability table", ok, detail)
    assert ok, line


def test_acceptance_2_crlb_magnitudes():
    """Bound magnitudes at the reference configuration land in the claimed
    order-of-magnitude bands (means over the seeded trials)."""
    alpha_o = FLAGSHIP.effective_rms_duration_s
    fast = _mean_bounds(FLAGSHIP)  # slot spacing 1 s
    slow = _mean_bounds(dataclasses.replace(FLAGSHIP, slot_spacing_s=20.0))

    checks = [
        ("dt=1 position [m]", fast["pos"], 1e-4, 1e-2),
        ("dt=1 velocity [m/s]", fast["vel"], 1e-4, 1e-2),
        ("dt=1 orientation [rad]", fast["orient"], 1e-4, 1e-2),
        ("dt=20 sat pos offset [m]", slow["pos_offset"], 1e-3, 1e-1),
        ("dt=20 sat vel offset [m/s]", slow["vel_offset"], 0.1, 10.0),
    ]
    failures = [
        f"{name} {value:.3e} outside [{lo:g}, {hi:g}]"
        for name, value, lo, hi in checks
        if not lo <= value <= hi
    ]
    ok = not failures
    detail = (
        f"alpha_o={alpha_o:.7e} s, bound rel_tol={BOUND_REL_TOL:g}; "
        + ", ".join(f"{n} {v:.3e}" for n, v, _, _ in checks)
    )
    if failures:
        detail += "; out of band: " + "; ".join(failures)
    line = _verdict(2, "bound magnitudes", ok, detail)
    assert ok, line


def test_acceptance_3_route_equivalence():
    """Closed-form and Schur-complement EFIM routes agree on 20 scenarios."""
    worst = 0.0
    for i, seed in enumerate(derive_trial_seeds(77, 20)):
        config = ScenarioConfig(
            n_leo=1 + i % 3,
            n_bs=1 + (i + 1) % 4,
            n_ant=(1, 2, 4)[i % 3],
            n_slots=1 + i % 4,
            case=(Case.WITH_BS, Case.RECEIVER_ONLY)[i % 2],
        )
        scenario = random_scenario(config, seed)
        lemma = efim_lemma_route(scenario).matrix
        schur = compute_efim(scenario).matrix
        rel = np.linalg.norm(lemma - schur, "fro") / np.linalg.norm(schur, "fro")
        worst = max(worst, rel)
    ok = worst <= 1e-8
    line = _verdict(
        3, "route equivalence", ok, f"worst relative Frobenius error {worst:.3e}"
    )
    assert ok, line


def test_acceptance_4_jacobians_match_finite_differences():
    """Every analytic delay/Doppler partial matches the finite-difference
    oracle on 20 random scenarios."""
    worst = 0.0
    worst_name = ""
    for i, seed in enumerate(derive_trial_seeds(99, 20)):
        config = ScenarioConfig(
            n_leo=1 + i % 2,
            n_bs=1 + i % 3,
            n_ant=(1, 2, 4)[i % 3],
            n_slots=1 + i % 3,
        )
        scenario = random_scenario(config, seed)
        for kind in LinkKind:
            jac = link_jacobians(scenario, kind, 0)
            for name, numeric in fd_link_jacobians(scenario, kind, 0).items():
                err = compare(getattr(jac, name), numeric)
                if err > worst:
                    worst, worst_name = err, f"{kind.value}.{name}"
    ok = worst <= 1e-6
    line = _verdict(
        4, "jacobian correctness", ok, f"worst relative error {worst:.3e} ({worst_name})"
    )
    assert ok, line


def test_acceptance_5_structural_invariants():
    """Symmetry, positive semidefiniteness, the information ordering, and the
    inverse identity."""
    configs = [
        ScenarioConfig(n_leo=1, n_bs=3, n_ant=4, n_slots=3),
        ScenarioConfig(n_leo=2, n_bs=2, n_ant=2, n_slots=2),
        ScenarioConfig(n_leo=3, n_bs=1, n_ant=1, n_slots=4),
        ScenarioConfig(n_leo=1, n_bs=2, n_ant=2, n_slots=3, case=Case.RECEIVER_ONLY),
        WIDE,
    ]
    worst_asym = 0.0
    worst_psd = 0.0  # most negative balanced min-eig relative to max-eig
    worst_order = 0.0  # most negative eig of (interest - efim), interest scale
    for config, seed in zip(configs, derive_trial_seeds(55, len(configs))):
        scenario = random_scenario(config, seed)
        channel, _ = assemble_channel_fim(scenario)
        interest = assemble_interest_fim(scenario).matrix
        loss = assemble_information_loss(scenario).matrix
        efim = compute_efim(scenario).matrix
        for matrix in (channel, interest, loss, efim):
            denom = max(np.linalg.norm(matrix, "fro"), 1e-300)
            worst_asym = max(worst_asym, np.linalg.norm(matrix - matrix.T, "fro") / denom)
        for matrix in (channel, interest, loss):
            eigvals = balanced_eigvalsh(matrix)
            worst_psd = min(worst_psd, eigvals[0] / max(eigvals[-1], 1e-300))
        scale = np.sqrt(np.maximum(np.diag(interest), 1e-300))
        ordered = (interest - efim) / scale[:, None] / scale[None, :]
        worst_order = min(worst_order, float(np.linalg.eigvalsh(ordered)[0]))

    worst_identity = 0.0
    for seed in derive_trial_seeds(SEED, 4):
        scenario = random_scenario(WIDE, seed)
        j_eta, glob = assemble_channel_fim(scenario)
        upsilon = build_transformation_matrix(scenario, glob=glob)
        j_kappa = transform_fim(j_eta, upsilon)
        efim = compute_efim(scenario)
        assert is_identifiable(efim).is_pd
        n1 = efim.layout.dim_interest
        inv_full, flagged_full = invert_psd(j_kappa, floor_rel=1e-12)
        inv_efim, flagged_efim = invert_psd(efim.matrix, floor_rel=1e-12)
        assert not flagged_full and not flagged_efim
        err = np.linalg.norm(inv_efim - inv_full[:n1, :n1], "fro") / np.linalg.norm(
            inv_efim, "fro"
        )
        worst_identity = max(worst_identity, err)

    ok = (
        worst_asym <= 1e-12
        and worst_psd >= -1e-9
        and worst_order >= -1e-9
        and worst_identity <= 1e-9
    )
    line = _verdict(
        5,
        "structural invariants",
        ok,
        f"asymmetry {worst_asym:.1e}, min-eig/max-eig {worst_psd:.1e}, "
        f"ordering {worst_order:.1e}, inverse identity {worst_identity:.3e}",
    )
    assert ok, line


def test_acceptance_6_trend_reproduction():
    """Bound trends: position and velocity fall with antenna count and SNR,
    orientation is flat across carriers, and bounds scale with SNR."""
    template = dataclasses.replace(FLAGSHIP, slot_spacing_s=10.0)
    failures = []

    points = parameter_sweep(
        "n_ant", [2, 4, 8, 16, 32], template, SEED, N_TRIALS, BOUND_REL_TOL
    )
    pos = [p.report.pos_rmse_bound for p in points]
    vel = [p.report.vel_rmse_bound for p in points]
    if not all(b < a for a, b in zip(pos, pos[1:])):
        failures.append(f"position not decreasing in antennas: {pos}")
    if not all(b < a for a, b in zip(vel, vel[1:])):
        failures.append(f"velocity not decreasing in antennas: {vel}")

    points = parameter_sweep(
        "snr_db", [10.0, 15.0, 20.0, 25.0], template, SEED, N_TRIALS, BOUND_REL_TOL
    )
    pos = [p.report.pos_rmse_bound for p in points]
    vel = [p.report.vel_rmse_bound for p in points]
    if not all(b < a for a, b in zip(pos, pos[1:])):
        failures.append(f"position not decreasing in SNR: {pos}")
    if not all(b < a for a, b in zip(vel, vel[1:])):
        failures.append(f"velocity not decreasing in SNR: {vel}")

    points = parameter_sweep(
        "carrier_freq_hz", [10e9, 27e9, 40e9, 60e9], template, SEED, N_TRIALS, BOUND_REL_TOL
    )
    orient = [p.report.orient_rmse_bound for p in points]
    orient_spread = max(orient) / min(orient) - 1.0
    if not orient_spread < 0.10:
        failures.append(f"orientation varies {orient_spread:.1%} across carriers")

    # Scaling is checked on the spread-station geometry: its EFIM is solidly
    # PD, so the bounds are not dominated by a near-null eigenvalue whose
    # floating-point noise (~1e-4 relative) would swamp the comparison.
    low, high = parameter_sweep(
        "snr_db", [20.0, 30.0], WIDE, SEED, N_TRIALS, BOUND_REL_TOL
    )
    expected = low.report.scaled(10.0 ** (-0.5))  # x10 SNR -> bounds / sqrt(10)
    scaling_err = max(
        abs(high.report.pos_rmse_bound / expected.pos_rmse_bound - 1.0),
        abs(high.report.vel_rmse_bound / expected.vel_rmse_bound - 1.0),
        abs(high.report.orient_rmse_bound / expected.orient_rmse_bound - 1.0),
        abs(high.report.leo_pos_offset_bound[0] / expected.leo_pos_offset_bound[0] - 1.0),
        abs(high.report.leo_vel_offset_bound[0] / expected.leo_vel_offset_bound[0] - 1.0),
    )
    if not scaling_err <= 1e-9:
        failures.append(f"SNR scaling deviates by {scaling_err:.3e}")

    ok = not failures
    detail = (
        f"orientation spread {orient_spread:.2%}, SNR-scaling deviation "
        f"{scaling_err:.1e}"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    line = _verdict(6, "trend reproduction", ok, detail)
    assert ok, line


def test_acceptance_7_deterministic_output(tmp_path):
    """Same seed and configuration produce byte-identical CSV files."""
    payload = {
        "n_leo": 2,
        "n_bs": 3,
        "n_ant": 4,
        "n_slots": 4,
        "slot_spacing_s": 50.0,
        "bs_distance_m": 5e5,
        "n_trials": 3,
        "seed": 31,
    }
    outputs = []
    for name in ("first", "second"):
        config = dict(payload, out=str(tmp_path / f"{name}.csv"))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path)])
        assert code == 0, f"bound run exited {code}"
        outputs.append((tmp_path / f"{name}.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    line = _verdict(
        7, "determinism", ok, f"two runs, {len(outputs[0])} bytes, byte-identical={ok}"
    )
    assert ok, line


def test_acceptance_8_antenna_count_barely_moves_sat_vel_offset():
    """The antenna count has a negligible effect on the satellite
    velocity-offset bound: spread below 10 % over 4 / 16 / 64 antennas."""
    template = dataclasses.replace(FLAGSHIP, slot_spacing_s=10.0)
    points = parameter_sweep(
        "n_ant", [4, 16, 64], template, SEED, N_TRIALS, BOUND_REL_TOL
    )
    vel_off = [p.report.leo_vel_offset_bound[0] for p in points]
    vel_off_spread = max(vel_off) / min(vel_off) - 1.0
    ok = vel_off_spread < 0.10
    bounds = " / ".join(f"{v:.3f}" for v in vel_off)
    line = _verdict(
        8,
        "sat vel offset vs antennas",
        ok,
        f"sat-vel-offset bounds {bounds} m/s at 4 / 16 / 64 antennas, "
        f"spread {vel_off_spread:.2%} (limit 10 %)",
    )
    assert ok, line
