"""Fingerprint every stage output of a fixed scenario corpus, bit for bit.

A refactor of the numerical pipeline should leave its results unchanged to
the last bit, not merely close.  This script hashes the raw bytes of every
link's observables and Jacobians, ``J_eta``, ``Upsilon``, ``J_kappa``, the
interest FIM, the information loss and both EFIMs for each corpus entry, so
two checkouts can be compared exactly:

    PYTHONPATH=<checkout A>/src python tools/bitexact_corpus.py dump a.json
    PYTHONPATH=<checkout B>/src python tools/bitexact_corpus.py dump b.json
    python tools/bitexact_corpus.py compare a.json b.json

The corpus is seeds 42 and 7 times the sizes L1 Q3 U4 K3, L3 Q3 U4 K4,
L2 Q3 U16 K10 and L4 Q4 U32 K20 (``L`` satellites, ``Q`` stations, ``U``
antennas, ``K`` slots) in both cases, plus L2 Q0 U4 K3 without stations.
Observable fields are read under their current names, falling back to the
names the per-link structs used before the satellite-receiver and
satellite-station structs were merged, so older checkouts can be dumped too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

import numpy as np

SEEDS = (42, 7)
SIZES = ((1, 3, 4, 3), (3, 3, 4, 4), (2, 3, 16, 10), (4, 4, 32, 20), (2, 0, 4, 3))
OBS_FIELDS = {
    "dirs": ("dirs", "ant_dirs"),
    "dists": ("dists", "ant_dists"),
    "dop_dirs": ("dop_dirs", "cen_dir", "dirs"),
    "dop_dists": ("dop_dists", "cen_dist", "dists"),
    "v_rel": ("v_rel",),
    "nu": ("nu",),
    "f_o": ("f_o",),
    "omega": ("omega",),
    "snr": ("snr",),
    "k_times": ("k_times",),
}
JAC_FIELDS = (
    "dtau_dp", "dtau_dvu", "dtau_dphi", "dtau_dpcheck", "dtau_dvcheck",
    "dnu_dp", "dnu_dvu", "dnu_dpcheck", "dnu_dvcheck",
)


def fingerprint(array) -> str:
    arr = np.ascontiguousarray(array, dtype=float)
    return f"{arr.shape}:{hashlib.sha256(arr.tobytes()).hexdigest()[:32]}"


def _observables(scenario, out: dict, tag: str) -> None:
    from leofim import links
    from leofim.channel_fim import LinkKind
    from leofim.scenario import Case
    from leofim.transform import link_jacobians

    entries = [("leo_rx", LinkKind.LEO_RX, links.leo_rx_observables, b) for b in range(scenario.n_leo)]
    entries += [("bs_rx", LinkKind.BS_RX, links.bs_rx_observables, q) for q in range(scenario.n_bs)]
    if scenario.case is Case.WITH_BS:
        entries += [("leo_bs", LinkKind.LEO_BS, links.leo_bs_observables, b) for b in range(scenario.n_leo)]
    for name, kind, fn, i in entries:
        obs = fn(scenario, i)
        for field, candidates in OBS_FIELDS.items():
            value = next(getattr(obs, c) for c in candidates if hasattr(obs, c))
            out[f"{tag}/{name}{i}/{field}"] = fingerprint(value)
        jac = link_jacobians(scenario, kind, i)
        for field in JAC_FIELDS:
            value = getattr(jac, field)
            if value is not None:
                out[f"{tag}/{name}{i}/{field}"] = fingerprint(value)


def dump() -> dict:
    from leofim import (
        assemble_channel_fim,
        build_transformation_matrix,
        efim_lemma_route,
        efim_schur_route,
        transform_fim,
    )
    from leofim.location_fim import assemble_information_loss, assemble_interest_fim
    from leofim.scenario import Case, ScenarioConfig, random_scenario

    out: dict[str, str] = {}
    for seed, (n_leo, n_bs, n_ant, n_slots), case in itertools.product(SEEDS, SIZES, Case):
        tag = f"s{seed}/L{n_leo}Q{n_bs}U{n_ant}K{n_slots}/{case.value}"
        config = ScenarioConfig(n_leo=n_leo, n_bs=n_bs, n_ant=n_ant, n_slots=n_slots, case=case)
        scenario = random_scenario(config, seed)
        _observables(scenario, out, tag)
        j_eta, glob = assemble_channel_fim(scenario)
        out[f"{tag}/j_eta"] = fingerprint(j_eta)
        upsilon = build_transformation_matrix(scenario, glob=glob)
        out[f"{tag}/upsilon"] = fingerprint(upsilon.matrix)
        j_kappa = transform_fim(j_eta, upsilon)
        del j_eta
        out[f"{tag}/j_kappa"] = fingerprint(j_kappa)
        out[f"{tag}/schur"] = fingerprint(
            efim_schur_route(j_kappa, upsilon.location_layout, case).matrix
        )
        out[f"{tag}/interest"] = fingerprint(assemble_interest_fim(scenario).matrix)
        out[f"{tag}/loss"] = fingerprint(assemble_information_loss(scenario).matrix)
        out[f"{tag}/lemma"] = fingerprint(efim_lemma_route(scenario).matrix)
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
