"""Fingerprint every stage output of a fixed scenario corpus, bit for bit.

A refactor of the numerical pipeline should leave its results unchanged to
the last bit, not merely close.  This script hashes the raw bytes of every
sampled scenario array (receiver position, velocity, antenna offsets and
Euler angles; each satellite's position and track; each station's position),
every link's stored weights (``omega``, ``snr``, read from its single-link
entry point's one-member batch at the link's own shapes: an array link's
Doppler grid without the batch's one row) and the signed partials it
writes into each kappa1 block it informs (keyed by block: ``dtau_dp`` /
``dnu_dp`` receiver position, ``dtau_dvu`` / ``dnu_dvu`` velocity,
``dtau_dphi`` orientation, ``dtau_dpcheck`` / ``dnu_dpcheck`` and
``dtau_dvcheck`` / ``dnu_dvcheck`` satellite offsets, as the per-link
reference ``tests/_oracle.link_rows`` writes them), ``J_eta``, the
assembled layout's nuisance columns (``glob.nuisance_cols``, keyed
``<tag>/kappa2_cols``), ``Upsilon``, ``J_kappa``, the interest FIM, the
information loss (the second term of ``location_fim._closed_form``), the
Schur-route and lemma-route EFIMs and the production EFIM (``compute_efim``,
keyed ``<tag>/efim``) for each corpus entry, so two checkouts can be compared
exactly:

    PYTHONPATH=<checkout A>/src python tools/bitexact_corpus.py dump a.json
    PYTHONPATH=<checkout B>/src python tools/bitexact_corpus.py dump b.json
    python tools/bitexact_corpus.py compare a.json b.json

The corpus is seeds 42 and 7 times the sizes L1 Q3 U4 K3, L3 Q3 U4 K4,
L2 Q3 U16 K10 and L4 Q4 U32 K20 (``L`` satellites, ``Q`` stations, ``U``
antennas, ``K`` slots) in both cases, plus L2 Q0 U4 K3 without stations;
the scenario arrays alone are also hashed for seeds 0..19 at L2 Q2 U4 with
every slot count from 1 to 20.  ``identifiability_sweep`` is fingerprinted per
cell (``is_pd``, min and max eigenvalue, and every verdict field as exact
text, keyed ``<tag>/verdict``: condition number, ``rel_tol`` and the cell's
configuration included) on the acceptance-1 counts grid and on
a grid with no stations and a single slot among its values, for seeds 42 and 7
in both cases.  A template whose station-receiver SNR (-4000 dB) underflows to
zero, so the station group informs nothing, is fingerprinted by its
``compute_efim`` and its acceptance-1 sweep, for seeds 42 and 7 in both
cases.  A hand-built scenario (L2 Q3 U4 K3, built from a sampled one) with
nonzero satellite position and velocity offsets and frequency offsets on
every link, a per-observation SNR array on satellite 0's downlink, and the
second station's link to the array at 28 GHz is fingerprinted by its
per-link keys and its ``compute_efim``, for seeds 42 and 7 in both cases;
so is a hand-built L3 Q3 U4 K4 scenario whose satellites' signals differ
(satellite 1's downlink and satellite-station links at 28 GHz with their own
RMS duration, satellite 2's downlink with a per-observation SNR array and a
frequency offset), keyed ``<seed>/per_satellite/<case>``.
``parameter_sweep`` is fingerprinted per point (the worst verdict's
``is_pd``, min and max eigenvalue, ``n_pd_trials`` and every mean bound; every
field of the worst verdict as exact text, keyed ``<tag>/verdict``; the axis,
value, ``n_trials`` and configuration, keyed ``<tag>/point``) on
the ``n_ant`` 4/16/64 sweep of ``benches/configs/cli_sweep.json`` and on a
carrier-frequency and a slot-spacing sweep of the same template (each value
its own family of five trials), for seeds 42 and 7 in both cases, and
likewise on an ``n_ant`` 16/32 sweep at L4 Q4 K20 with three trials, where
the batched Gram and eigenvalue stacks are largest.  The raw factor-route
stacks ``(cells, trials, dim, dim)`` that ``location_fim._efims`` returns
from the link pass's batches are fingerprinted per satellite count of the
acceptance-1 family and of the ``n_ant`` 4/16/64 family of that template,
sampled and linked once at their maxima as the sweeps do, for seeds 42 and 7
in both cases.
``leofim.cli.main`` is fingerprinted by the bytes of its CSV, its stdout
(with the temporary output path replaced) and its exit code for every
``benches/configs/*.json`` at seeds 42 and 7.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (42, 7)
SIZES = ((1, 3, 4, 3), (3, 3, 4, 4), (2, 3, 16, 10), (4, 4, 32, 20), (2, 0, 4, 3))
SCENARIO_SEEDS = range(20)
SCENARIO_SLOTS = range(1, 21)
ACCEPTANCE1 = {"n_leo": [1, 2, 3], "n_bs": [2, 3], "n_slots": [3, 4], "n_ant": [1, 2, 4]}
# Station-receiver links whose SNR underflows to zero.
DEAD_BS_RX = dict(snr_db_bs_rx=-4000.0)
# (name, grid, template knobs) of every fingerprinted counts sweep.
SWEEP_CASES = [
    ("acceptance1", ACCEPTANCE1, {}),
    ("edges", {"n_leo": [1, 2], "n_bs": [0, 2], "n_slots": [1, 3], "n_ant": [1, 4]}, {}),
    ("acceptance1/dead_bs_rx", ACCEPTANCE1, DEAD_BS_RX),
]
# The template of ``benches/configs/cli_sweep.json``, in either case.
PARAMETER_TEMPLATE = dict(
    n_leo=2, n_bs=3, n_ant=4, n_slots=10, slot_spacing_s=50.0, bs_distance_m=5e5
)
PARAMETER_SWEEPS = {
    "n_ant": [4, 16, 64],
    "carrier_freq_hz": [10e9, 28e9, 40e9],
    "slot_spacing_s": [20.0, 50.0, 80.0],
}
# (name, template, axis, values, trials) of every fingerprinted parameter sweep.
PARAMETER_CASES = [
    *((axis, PARAMETER_TEMPLATE, axis, values, 5) for axis, values in PARAMETER_SWEEPS.items()),
    ("large/n_ant", dict(PARAMETER_TEMPLATE, n_leo=4, n_bs=4, n_slots=20), "n_ant", [16, 32], 3),
]
# (name, grid, template knobs) of every family whose raw ``_efims`` stacks are hashed.
EFIM_FAMILIES = [
    ("acceptance1", ACCEPTANCE1, {}),
    ("n_ant", {"n_ant": PARAMETER_SWEEPS["n_ant"]}, PARAMETER_TEMPLATE),
]
CLI_CONFIGS = Path(__file__).resolve().parents[1] / "benches" / "configs"
# The per-link reference rows (``_oracle.link_rows``) live with the tests.
TESTS = Path(__file__).resolve().parents[1] / "tests"
# (delay key, Doppler key) of each kappa1 block's signed partials.
BLOCK_KEYS = {
    "position": ("dtau_dp", "dnu_dp"),
    "velocity": ("dtau_dvu", "dnu_dvu"),
    "orientation": ("dtau_dphi", None),
    "pos_offset": ("dtau_dpcheck", "dnu_dpcheck"),
    "vel_offset": ("dtau_dvcheck", "dnu_dvcheck"),
}


def _layout(n_leo: int):
    """The ``LocationLayout`` of ``n_leo`` satellites, also on trees whose
    layout still takes its nuisance columns as a second field."""
    from leofim.location_fim import LocationLayout

    try:
        return LocationLayout(n_leo=n_leo)
    except TypeError:
        return LocationLayout(n_leo, ())


def fingerprint(array) -> str:
    arr = np.ascontiguousarray(array, dtype=float)
    return f"{arr.shape}:{hashlib.sha256(arr.tobytes()).hexdigest()[:32]}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _verdict_fields(verdict) -> str:
    """Every field of an ``IdentifiabilityVerdict`` (its configuration in
    full), as exact text: ``repr`` of a float round-trips its bits."""
    return repr(tuple(getattr(verdict, f.name) for f in dataclasses.fields(verdict)))


def _cli(out: dict) -> None:
    from leofim.cli import main

    with tempfile.TemporaryDirectory() as scratch:
        csv_path = Path(scratch) / "out.csv"
        for config, seed in itertools.product(sorted(CLI_CONFIGS.glob("*.json")), SEEDS):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = main(["--config", str(config), "--seed", str(seed), "--out", str(csv_path)])
            tag = f"s{seed}/cli/{config.stem}"
            out[f"{tag}/exit"] = str(status)
            out[f"{tag}/stdout"] = _digest(stdout.getvalue().replace(str(csv_path), "<out>").encode())
            out[f"{tag}/csv"] = _digest(csv_path.read_bytes()) if csv_path.exists() else "absent"
            csv_path.unlink(missing_ok=True)


def _scenario(scenario, out: dict, tag: str) -> None:
    receiver = scenario.receiver
    out[f"{tag}/rx/position"] = fingerprint(receiver.position)
    out[f"{tag}/rx/velocity"] = fingerprint(receiver.velocity)
    out[f"{tag}/rx/antenna_offsets"] = fingerprint(receiver.antenna_offsets)
    out[f"{tag}/rx/orientation"] = fingerprint(receiver.orientation.as_array())
    for b, leo in enumerate(scenario.leos):
        out[f"{tag}/leo{b}/position"] = fingerprint(leo.position)
        out[f"{tag}/leo{b}/track"] = fingerprint(leo.track)
    for q, bs in enumerate(scenario.bss):
        out[f"{tag}/bs{q}/position"] = fingerprint(bs.position)


def _observables(scenario, out: dict, tag: str) -> None:
    from leofim import links
    from leofim.location_fim import kappa1_blocks
    from leofim.scenario import Case

    if str(TESTS) not in sys.path:
        sys.path.append(str(TESTS))
    from _oracle import doppler_rows, link_rows

    entries = [("leo_rx", links.leo_rx_observables, b) for b in range(scenario.n_leo)]
    entries += [("bs_rx", links.bs_rx_observables, q) for q in range(scenario.n_bs)]
    if scenario.case is Case.WITH_BS:
        entries += [("leo_bs", links.leo_bs_observables, b) for b in range(scenario.n_leo)]
    layout = _layout(scenario.n_leo)
    for name, fn, i in entries:
        batch = fn(scenario, i)
        omega, snr = batch.omega[0, 0, doppler_rows(batch.kind)], batch.snr[0]
        out[f"{tag}/{name}{i}/omega"] = fingerprint(omega)
        out[f"{tag}/{name}{i}/snr"] = fingerprint(snr)
        # A link's reference rows hold every block's partials as they are written, sign included.
        g_tau, g_nu = link_rows(layout, batch, 0, i)
        informed = [block[0] for block in kappa1_blocks(layout, batch, i)]
        for block, cols in layout.interest_blocks():
            if cols not in informed:
                continue
            tau_key, nu_key = BLOCK_KEYS[block.rstrip("_0123456789")]
            out[f"{tag}/{name}{i}/{tau_key}"] = fingerprint(g_tau[:, cols].reshape(*snr.shape, 3))
            if nu_key is not None:
                out[f"{tag}/{name}{i}/{nu_key}"] = fingerprint(g_nu[:, cols].reshape(*omega.shape, 3))


def _efim_stacks(out: dict) -> None:
    """Each family's ``_efims`` per satellite count, its trials sampled once at
    the family's maxima into the scene ``_link_pass`` reads, and the pass's
    batches read as they are (as ``analysis._trials`` does)."""
    from leofim.analysis import DEFAULT_N_TRIALS, GRID_AXES
    from leofim.links import _kinds, _link_pass
    from leofim.location_fim import _efims
    from leofim.scenario import Case, ScenarioConfig, _sample, derive_trial_seeds

    for seed, (name, grid, knobs), case in itertools.product(SEEDS, EFIM_FAMILIES, Case):
        template = ScenarioConfig(**knobs, case=case)
        n_leos, *values = [grid.get(axis, [getattr(template, axis)]) for axis in GRID_AXES]
        largest = dataclasses.replace(
            template, **{axis: max(v) for axis, v in zip(GRID_AXES, [n_leos, *values])}
        )
        scene = _sample(largest, derive_trial_seeds(seed, DEFAULT_N_TRIALS))
        batches = _link_pass(scene, _kinds(case))
        counts = [(n_bs, n_ant, n_slots) for n_bs, n_slots, n_ant in itertools.product(*values)]
        for n_leo in n_leos:
            efims = _efims(batches, _layout(n_leo), counts)
            out[f"s{seed}/efims/{name}/{case.value}/L{n_leo}"] = fingerprint(efims)


def _hand_built(seed: int, case):
    """A sampled L2 Q3 U4 K3 scenario rebuilt with what sampling never sets:
    ephemeris and frequency offsets, a per-observation SNR array and a station
    link on another carrier."""
    from leofim.scenario import ScenarioConfig, random_scenario

    sc = random_scenario(ScenarioConfig(n_leo=2, n_bs=3, n_ant=4, n_slots=3, case=case), seed)
    leos = tuple(
        dataclasses.replace(leo, pos_offset=[3.0, -1.5, 0.25 * b], vel_offset=[0.2, 0.1, -0.05])
        for b, leo in enumerate(sc.leos)
    )
    snr_grid = np.linspace(50.0, 150.0, sc.n_ant * sc.n_slots).reshape(sc.n_ant, sc.n_slots)
    leo_rx_signals = [dataclasses.replace(props, freq_offset=120.0 + b)
                      for b, props in enumerate(sc.leo_rx_signals)]
    leo_rx_signals[0] = dataclasses.replace(leo_rx_signals[0], snr_linear=snr_grid)
    bs_rx_signals = [dataclasses.replace(props, freq_offset=-40.0) for props in sc.bs_rx_signals]
    bs_rx_signals[1] = dataclasses.replace(bs_rx_signals[1], carrier_freq=28e9)
    return dataclasses.replace(
        sc,
        leos=leos,
        leo_rx_signals=tuple(leo_rx_signals),
        bs_rx_signals=tuple(bs_rx_signals),
        leo_bs_signals=tuple(dataclasses.replace(props, freq_offset=7.5 * b)
                             for b, props in enumerate(sc.leo_bs_signals)),
    )


def _per_satellite(seed: int, case):
    """A sampled L3 Q3 U4 K4 scenario rebuilt so that the satellites of one
    link kind differ in carrier, RMS duration, SNR grid and frequency offset."""
    from leofim.scenario import ScenarioConfig, random_scenario

    sc = random_scenario(ScenarioConfig(n_leo=3, n_bs=3, n_ant=4, n_slots=4, case=case), seed)
    leo_rx, leo_bs = list(sc.leo_rx_signals), list(sc.leo_bs_signals)
    leo_rx[1], leo_bs[1] = (dataclasses.replace(props, carrier_freq=28e9, rms_duration=3e-4)
                            for props in (leo_rx[1], leo_bs[1]))
    snr_grid = np.linspace(20.0, 400.0, sc.n_ant * sc.n_slots).reshape(sc.n_ant, sc.n_slots)
    leo_rx[2] = dataclasses.replace(leo_rx[2], snr_linear=snr_grid, freq_offset=350.0)
    return dataclasses.replace(sc, leo_rx_signals=tuple(leo_rx), leo_bs_signals=tuple(leo_bs))


def dump() -> dict:
    from leofim import (
        assemble_channel_fim,
        build_transformation_matrix,
        compute_efim,
        efim_lemma_route,
        efim_schur_route,
        identifiability_sweep,
        parameter_sweep,
        transform_fim,
    )
    from leofim.location_fim import _closed_form, assemble_interest_fim
    from leofim.scenario import Case, ScenarioConfig, random_scenario

    out: dict[str, str] = {}
    for seed, (n_leo, n_bs, n_ant, n_slots), case in itertools.product(SEEDS, SIZES, Case):
        tag = f"s{seed}/L{n_leo}Q{n_bs}U{n_ant}K{n_slots}/{case.value}"
        config = ScenarioConfig(n_leo=n_leo, n_bs=n_bs, n_ant=n_ant, n_slots=n_slots, case=case)
        scenario = random_scenario(config, seed)
        _scenario(scenario, out, tag)
        _observables(scenario, out, tag)
        j_eta, glob = assemble_channel_fim(scenario)
        out[f"{tag}/j_eta"] = fingerprint(j_eta)
        upsilon = build_transformation_matrix(scenario, glob=glob)
        out[f"{tag}/upsilon"] = fingerprint(upsilon.matrix)
        out[f"{tag}/kappa2_cols"] = fingerprint(glob.nuisance_cols)
        j_kappa = transform_fim(j_eta, upsilon)
        del j_eta
        out[f"{tag}/j_kappa"] = fingerprint(j_kappa)
        out[f"{tag}/schur"] = fingerprint(
            efim_schur_route(j_kappa, upsilon.location_layout, case).matrix
        )
        out[f"{tag}/interest"] = fingerprint(assemble_interest_fim(scenario).matrix)
        out[f"{tag}/loss"] = fingerprint(_closed_form(_layout(n_leo), scenario)[1])
        out[f"{tag}/lemma"] = fingerprint(efim_lemma_route(scenario).matrix)
        out[f"{tag}/efim"] = fingerprint(compute_efim(scenario).matrix)
    for seed, n_slots in itertools.product(SCENARIO_SEEDS, SCENARIO_SLOTS):
        config = ScenarioConfig(n_leo=2, n_bs=2, n_ant=4, n_slots=n_slots)
        _scenario(random_scenario(config, seed), out, f"s{seed}/L2Q2U4K{n_slots}/scenario")
    for seed, case in itertools.product(SEEDS, Case):
        scenario = random_scenario(ScenarioConfig(**DEAD_BS_RX, case=case), seed)
        out[f"s{seed}/dead_bs_rx/{case.value}/efim"] = fingerprint(compute_efim(scenario).matrix)
    for seed, case in itertools.product(SEEDS, Case):
        scenario = _hand_built(seed, case)
        tag = f"s{seed}/hand_built/{case.value}"
        _observables(scenario, out, tag)
        out[f"{tag}/efim"] = fingerprint(compute_efim(scenario).matrix)
    for seed, case in itertools.product(SEEDS, Case):
        scenario = _per_satellite(seed, case)
        tag = f"s{seed}/per_satellite/{case.value}"
        _observables(scenario, out, tag)
        out[f"{tag}/efim"] = fingerprint(compute_efim(scenario).matrix)
    for seed, (name, grid, knobs), case in itertools.product(SEEDS, SWEEP_CASES, Case):
        for v in identifiability_sweep(grid, ScenarioConfig(**knobs, case=case), seed):
            c = v.config
            tag = f"s{seed}/sweep/{name}/{case.value}/L{c.n_leo}Q{c.n_bs}U{c.n_ant}K{c.n_slots}"
            out[tag] = fingerprint([float(v.is_pd), v.min_eigenvalue, v.max_eigenvalue])
            out[f"{tag}/verdict"] = _verdict_fields(v)
    for seed, (name, knobs, axis, values, trials), case in itertools.product(
        SEEDS, PARAMETER_CASES, Case
    ):
        template = ScenarioConfig(**knobs, case=case)
        for p in parameter_sweep(axis, values, template, seed, n_trials=trials):
            v, r = p.worst_verdict, p.report
            tag = f"s{seed}/parameter_sweep/{name}/{case.value}/{p.value!r}"
            out[tag] = fingerprint([
                float(v.is_pd), v.min_eigenvalue, v.max_eigenvalue, p.n_pd_trials,
                r.pos_rmse_bound, r.vel_rmse_bound, r.orient_rmse_bound,
                *r.leo_pos_offset_bound, *r.leo_vel_offset_bound,
            ])
            out[f"{tag}/verdict"] = _verdict_fields(v)
            out[f"{tag}/point"] = repr((p.axis, p.value, p.n_trials, p.config))
    _efim_stacks(out)
    _cli(out)
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        with open(argv[1], "w") as fh:
            json.dump(dump(), fh, indent=1, sort_keys=True)
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            a, b = json.load(fa), json.load(fb)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        for key in differ:
            print(f"DIFFERS {key}: {a.get(key)} vs {b.get(key)}")
        print(f"{len(a.keys() & b.keys()) - len(set(differ) & a.keys() & b.keys())} "
              f"identical, {len(differ)} differ")
        return 1 if differ else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
