"""The broadcast link pass against a scalar oracle, bit for bit.

The oracle walks every (element, slot) pair with the scalar geometry
primitives of ``_oracle`` (``antenna_position``, ``leo_position``,
``receiver_reference``, ``unit_direction``, ``doppler``, ``time_of``,
``velocity_at``), so the vectorized weights ``omega`` and ``snr``, and every
signed kappa1 partial that is an elementwise expression of a direction (as
``kappa1_blocks`` writes it), are checked against an independent evaluation
path that must agree to the last bit.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from leofim.geometry import SPEED_OF_LIGHT_M_S, BsState, DegenerateGeometryError
from leofim.links import (
    LinkKind,
    _dot3,
    _kinds,
    _link_pass,
    _sampled_scene,
    _scene,
    bs_rx_observables,
    leo_bs_observables,
    leo_rx_observables,
    link_observables,
)
from leofim.location_fim import (
    _centered_gram,
    _efims,
    _link_weights,
    _pools,
    _rows,
    compute_efim,
)
from leofim.scenario import Case, ScenarioConfig, _sample, derive_trial_seeds, random_scenario
from leofim.signals import OffsetParams, effective_frequency, omega
from leofim.transform import LocationLayout

from _fd import signed_partials
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
        signed = signed_partials(sc, obs.kind, obs.index, obs)
        for name in reference:
            got = signed[name] if name.startswith("d") else getattr(obs, name)
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


def _group_by_group_efim(scenario):
    """The factor route one trial and one offset group at a time, as 2-D
    arrays: each group's rows (a link's delays, its Dopplers; the station
    links pooled) centered at their weighted mean, scaled by ``sqrt(w)``, and
    their Grams summed in link order with the station pool last."""
    layout = LocationLayout(n_leo=scenario.n_leo, kappa2_channel_cols=())
    pools, stations = [], []
    for obs in link_observables(scenario, scenario.case):
        w_tau, w_nu, _ = _link_weights(obs)
        g_tau, g_nu = _rows(layout, obs)
        member = [(g_tau, w_tau), (g_nu, w_nu)]
        if obs.kind is LinkKind.BS_RX:
            stations.append(member)
        else:
            pools.append([member])
    gram = np.zeros((layout.dim_interest,) * 2)
    for members in pools + ([stations] if stations else []):
        for group in zip(*members):
            g, w = (np.concatenate(parts) for parts in zip(*group))
            total = w.sum()
            if total > 0.0:
                f = np.sqrt(w)[:, None] * (g - (w @ g) / total)
                gram += f.T @ f
    return 0.5 * (gram + gram.T)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("case", list(Case))
def test_selected_links_match_the_smaller_scenario_bit_for_bit(seed, case):
    """The batched factor route over three trials stacked at the largest
    counts (pools viewing one trial-batched link pass) gives, for every trial
    and sub-count (no stations and a single slot among them), bit for bit the
    EFIM of that trial's scenario sampled at that sub-count, and that EFIM is
    bit for bit the group-by-group sum."""
    big = dict(n_leo=3, n_bs=3, n_ant=5, n_slots=7, case=case)
    trial_seeds = derive_trial_seeds(seed, 3)
    scenes = [_scene(sc, range(sc.n_leo), range(sc.n_bs)) for sc in (
        _offset_scenario(s, **big) for s in trial_seeds
    )]
    # The trials' one-trial scenes stacked on the trial axis: the offsets are
    # the same in every trial, and the link pass and pools are trial-batched.
    stacked = dataclasses.replace(scenes[0], **{
        field: np.concatenate([getattr(scene, field) for scene in scenes])
        for field in ("position", "velocity", "euler", "antennas", "leo_position",
                      "leo_velocity", "bs_position")
    })
    pools = _pools(_link_pass(stacked, _kinds(case)))
    counts = list(itertools.product([0, 2, 3], [1, 5], [1, 4, 7]))
    for n_leo in [1, 3]:
        efims = _efims(pools, LocationLayout(n_leo=n_leo, kappa2_channel_cols=()), counts)
        dim = 9 + 6 * n_leo
        assert efims.shape == (len(counts), len(trial_seeds), dim, dim)
        for (n_bs, n_ant, n_slots), cell in zip(counts, efims):
            sub = dict(n_leo=n_leo, n_bs=n_bs, n_ant=n_ant, n_slots=n_slots)
            for trial_seed, matrix in zip(trial_seeds, cell):
                small = _offset_scenario(trial_seed, **(big | sub))
                expected = compute_efim(small).matrix
                assert np.array_equal(matrix, expected), (sub, trial_seed)
                assert np.array_equal(expected, _group_by_group_efim(small)), (sub, trial_seed)


def test_centered_gram_of_a_trial_whose_weights_sum_to_zero_is_zero():
    """A trial whose group weights are all zero is informed by nothing: its
    Gram is zero, and the other trials' Grams are those of their own rows."""
    rng = np.random.default_rng(3)
    g = rng.normal(size=(3, 6, 4))
    w = rng.uniform(0.5, 2.0, size=(3, 6))
    w[1] = 0.0
    grams = _centered_gram(g.copy(), w)
    assert grams.shape == (3, 4, 4)
    assert np.array_equal(grams[1], np.zeros((4, 4)))
    for trial in [0, 2]:
        f = np.sqrt(w[trial])[:, None] * (g[trial] - (w[trial] @ g[trial]) / w[trial].sum())
        assert np.array_equal(grams[trial], f.T @ f)
    assert np.array_equal(_centered_gram(g.copy(), np.zeros((1, 6))), np.zeros((3, 4, 4)))


def test_public_entry_points_return_one_link_each():
    sc = random_scenario(ScenarioConfig(n_leo=2, n_bs=2, n_ant=3, n_slots=2), 5)
    for fn, kind, index in (
        (leo_rx_observables, LinkKind.LEO_RX, 1),
        (bs_rx_observables, LinkKind.BS_RX, 1),
        (leo_bs_observables, LinkKind.LEO_BS, 0),
    ):
        obs = fn(sc, index)
        assert (obs.kind, obs.index) == (kind, index)
        assert obs.jacobians.dtau_dp.shape[:2] == obs.snr.shape
        assert obs.per_row_doppler is (kind is LinkKind.LEO_BS)


def test_station_at_array_reference_point_raises():
    sc = random_scenario(ScenarioConfig(n_leo=1, n_bs=2, n_ant=2, n_slots=3), 3)
    point = receiver_reference(sc.receiver, 2, sc.grid)
    moved = dataclasses.replace(sc, bss=(sc.bss[0], BsState(position=point)))
    bs_rx_observables(moved, 0)
    with pytest.raises(DegenerateGeometryError):
        bs_rx_observables(moved, 1)


FAMILY_SIZES = [
    dict(n_leo=2, n_bs=3, n_ant=64, n_slots=10, case=Case.RECEIVER_ONLY),
    dict(n_leo=3, n_bs=3, n_ant=4, n_slots=4, case=Case.WITH_BS),
    dict(n_leo=4, n_bs=4, n_ant=32, n_slots=20, case=Case.WITH_BS),
]


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize(
    "size", FAMILY_SIZES, ids=lambda size: "L{n_leo}Q{n_bs}U{n_ant}K{n_slots}".format(**size)
)
def test_family_pass_matches_per_trial_scenarios_bit_for_bit(size, seed):
    """A family's trials sampled and linked in one array pass are, trial by
    trial, the bytes of :func:`random_scenario` and :func:`link_observables`
    at that trial's seed: every sampled array, ``omega``, ``snr`` and the five
    Jacobians."""
    config = ScenarioConfig(**size, slot_spacing_s=50.0, bs_distance_m=5e5)
    trial_seeds = derive_trial_seeds(seed, 5)
    sample = _sample(config, trial_seeds)
    batches = _link_pass(_sampled_scene(config, sample), _kinds(config.case))
    for t, trial_seed in enumerate(trial_seeds):
        sc = random_scenario(config, trial_seed)
        receiver = sc.receiver
        pairs = [
            (sample.position[t], receiver.position),
            (sample.velocity[t], receiver.velocity),
            (sample.euler[t], receiver.orientation.as_array()),
            (sample.antennas[t], receiver.antenna_offsets),
            *((sample.leo_position[t, b], leo.position) for b, leo in enumerate(sc.leos)),
            *((sample.leo_track[t, b], leo.track) for b, leo in enumerate(sc.leos)),
            *((sample.bs_position[t, q], bs.position) for q, bs in enumerate(sc.bss)),
        ]
        links = iter(link_observables(sc, config.case))
        for batch in batches:
            row = slice(None) if batch.kind is LinkKind.LEO_BS else 0
            for m in range(len(batch.signals)):
                obs = next(links)
                assert (obs.kind, obs.index) == (batch.kind, m)
                pairs += [(batch.omega[t, m, row], obs.omega), (batch.snr[m], obs.snr)]
                for field in dataclasses.fields(obs.jacobians):
                    got = getattr(batch.jacobians, field.name)
                    expected = getattr(obs.jacobians, field.name)
                    if expected is None:
                        assert got is None
                        continue
                    doppler = field.name.startswith("dnu")
                    pairs.append((got[t, m, row] if doppler else got[t, m], expected))
        assert next(links, None) is None
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_length_3_contractions_match_their_einsums_bit_for_bit():
    """``_dot3`` reproduces each Einstein sum the link pass used to take, on
    operands laid out as in the pass (the lever-arm and orientation partials
    with their angle axis first) and on broadcast ones: the lever-arm
    partials, the orientation partials over (trial, member, element, slot)
    grids, and the Doppler projection.

    The reference is a live ``np.einsum``, whose reduction order is internal to
    numpy. ``(x0*y0 + x2*y2) + x1*y1`` was verified on numpy 2.4.6 (x86-64,
    two SIMD lanes); if this fails after a numpy upgrade or on another SIMD
    baseline, einsum's order changed there, and the link pass's bits no
    longer match those of the Einstein sums it replaced."""
    rng = np.random.default_rng(23)

    def same(got, expected):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (
            f"np.einsum of numpy {np.__version__} no longer adds a length-3 axis as "
            "(x0*y0 + x2*y2) + x1*y1, the order verified on numpy 2.4.6"
        )

    for n_trials in (1, 2, 5):
        partials = rng.normal(size=(n_trials, 3, 3, 3))
        for n_ant in (1, 2, 3, 4, 16, 32, 64):
            antennas = rng.normal(size=(n_trials, n_ant, 3))
            rotated = np.einsum("tiab,tub->tuia", partials, antennas)
            by_angle = _dot3(np.moveaxis(partials, 1, 0)[:, :, None], antennas[None, :, :, None])
            same(np.ascontiguousarray(np.moveaxis(by_angle, 0, 2)), rotated)
            for members, n_slots in itertools.product((1, 2, 3, 4), (1, 2, 3, 5, 10, 20)):
                dirs = rng.normal(size=(n_trials, members, n_ant, n_slots, 3))
                same(
                    np.ascontiguousarray(
                        np.moveaxis(_dot3(dirs, by_angle[:, :, None, :, None]), 0, -1)
                    ),
                    np.einsum("tmuka,tuia->tmuki", dirs, rotated),
                )
                v_rel = rng.normal(size=(n_trials, members, 1, n_slots, 3))
                for other in (v_rel, v_rel[:, :1, :, :1], dirs):
                    same(_dot3(dirs, other), np.einsum("...i,...i->...", dirs, other))
