"""Fingerprint every stage output of a fixed scenario corpus, bit for bit.

A refactor of the numerical pipeline should leave its results unchanged to
the last bit, not merely close.  This script hashes the raw bytes of every
sampled scenario array (receiver position, velocity, antenna offsets and
Euler angles; each satellite's position and track; each station's position),
every link's stored weights (``omega``, ``snr``) and Jacobians, ``J_eta``, the
nuisance columns ``kappa2_channel_cols``, ``Upsilon``, ``J_kappa``, the
interest FIM, the information loss, the Schur-route and lemma-route EFIMs
and the production EFIM (``compute_efim``, keyed ``<tag>/efim``) for each
corpus entry, so two checkouts can be compared exactly:

    PYTHONPATH=<checkout A>/src python tools/bitexact_corpus.py dump a.json
    PYTHONPATH=<checkout B>/src python tools/bitexact_corpus.py dump b.json
    python tools/bitexact_corpus.py compare a.json b.json

The corpus is seeds 42 and 7 times the sizes L1 Q3 U4 K3, L3 Q3 U4 K4,
L2 Q3 U16 K10 and L4 Q4 U32 K20 (``L`` satellites, ``Q`` stations, ``U``
antennas, ``K`` slots) in both cases, plus L2 Q0 U4 K3 without stations;
the scenario arrays alone are also hashed for seeds 0..19 at L2 Q2 U4 with
every slot count from 1 to 20.  ``identifiability_sweep`` is fingerprinted per
cell (``is_pd``, min and max eigenvalue) on the acceptance-1 counts grid and on
a grid with no stations and a single slot among its values, for seeds 42 and 7
in both cases.  ``parameter_sweep`` is fingerprinted per point (the worst
verdict's ``is_pd``, min and max eigenvalue, ``n_pd_trials`` and every mean
bound) on the ``n_ant`` 4/16/64 sweep of ``benches/configs/cli_sweep.json``
and on a carrier-frequency sweep of the same template, for seeds 42 and 7 in
both cases.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

import numpy as np

SEEDS = (42, 7)
SIZES = ((1, 3, 4, 3), (3, 3, 4, 4), (2, 3, 16, 10), (4, 4, 32, 20), (2, 0, 4, 3))
SCENARIO_SEEDS = range(20)
SCENARIO_SLOTS = range(1, 21)
OBS_FIELDS = ("omega", "snr")
SWEEP_GRIDS = {
    "acceptance1": {"n_leo": [1, 2, 3], "n_bs": [2, 3], "n_slots": [3, 4], "n_ant": [1, 2, 4]},
    "edges": {"n_leo": [1, 2], "n_bs": [0, 2], "n_slots": [1, 3], "n_ant": [1, 4]},
}
# The template of ``benches/configs/cli_sweep.json``, in either case.
PARAMETER_TEMPLATE = dict(
    n_leo=2, n_bs=3, n_ant=4, n_slots=10, slot_spacing_s=50.0, bs_distance_m=5e5
)
PARAMETER_SWEEPS = {"n_ant": [4, 16, 64], "carrier_freq_hz": [10e9, 28e9, 40e9]}
JAC_FIELDS = (
    "dtau_dp", "dtau_dvu", "dtau_dphi", "dtau_dpcheck", "dtau_dvcheck",
    "dnu_dp", "dnu_dvu", "dnu_dpcheck", "dnu_dvcheck",
)


def fingerprint(array) -> str:
    arr = np.ascontiguousarray(array, dtype=float)
    return f"{arr.shape}:{hashlib.sha256(arr.tobytes()).hexdigest()[:32]}"


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
    from leofim.channel_fim import LinkKind
    from leofim.scenario import Case

    entries = [("leo_rx", LinkKind.LEO_RX, links.leo_rx_observables, b) for b in range(scenario.n_leo)]
    entries += [("bs_rx", LinkKind.BS_RX, links.bs_rx_observables, q) for q in range(scenario.n_bs)]
    if scenario.case is Case.WITH_BS:
        entries += [("leo_bs", LinkKind.LEO_BS, links.leo_bs_observables, b) for b in range(scenario.n_leo)]
    for name, kind, fn, i in entries:
        obs = fn(scenario, i)
        for field in OBS_FIELDS:
            out[f"{tag}/{name}{i}/{field}"] = fingerprint(getattr(obs, field))
        jac = links.link_jacobians(scenario, kind, i)
        for field in JAC_FIELDS:
            value = getattr(jac, field)
            if value is not None:
                out[f"{tag}/{name}{i}/{field}"] = fingerprint(value)


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
    from leofim.location_fim import assemble_information_loss, assemble_interest_fim
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
        out[f"{tag}/kappa2_cols"] = fingerprint(upsilon.location_layout.kappa2_channel_cols)
        j_kappa = transform_fim(j_eta, upsilon)
        del j_eta
        out[f"{tag}/j_kappa"] = fingerprint(j_kappa)
        out[f"{tag}/schur"] = fingerprint(
            efim_schur_route(j_kappa, upsilon.location_layout, case).matrix
        )
        out[f"{tag}/interest"] = fingerprint(assemble_interest_fim(scenario).matrix)
        out[f"{tag}/loss"] = fingerprint(assemble_information_loss(scenario).matrix)
        out[f"{tag}/lemma"] = fingerprint(efim_lemma_route(scenario).matrix)
        out[f"{tag}/efim"] = fingerprint(compute_efim(scenario).matrix)
    for seed, n_slots in itertools.product(SCENARIO_SEEDS, SCENARIO_SLOTS):
        config = ScenarioConfig(n_leo=2, n_bs=2, n_ant=4, n_slots=n_slots)
        _scenario(random_scenario(config, seed), out, f"s{seed}/L2Q2U4K{n_slots}/scenario")
    for seed, (name, grid), case in itertools.product(SEEDS, SWEEP_GRIDS.items(), Case):
        for v in identifiability_sweep(grid, ScenarioConfig(case=case), seed):
            c = v.config
            tag = f"s{seed}/sweep/{name}/{case.value}/L{c.n_leo}Q{c.n_bs}U{c.n_ant}K{c.n_slots}"
            out[tag] = fingerprint([float(v.is_pd), v.min_eigenvalue, v.max_eigenvalue])
    for seed, (axis, values), case in itertools.product(SEEDS, PARAMETER_SWEEPS.items(), Case):
        template = ScenarioConfig(**PARAMETER_TEMPLATE, case=case)
        for p in parameter_sweep(axis, values, template, seed):
            v, r = p.worst_verdict, p.report
            out[f"s{seed}/parameter_sweep/{axis}/{case.value}/{p.value!r}"] = fingerprint([
                float(v.is_pd), v.min_eigenvalue, v.max_eigenvalue, p.n_pd_trials,
                r.pos_rmse_bound, r.vel_rmse_bound, r.orient_rmse_bound,
                *r.leo_pos_offset_bound, *r.leo_vel_offset_bound,
            ])
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
