"""Scenario generation: PRNG, configuration validation, sampled geometry."""

import dataclasses
import re

import numpy as np
import pytest

from leofim.geometry import SPEED_OF_LIGHT_M_S
from leofim.scenario import (
    _TAG_LEO,
    Case,
    Scenario,
    ScenarioConfig,
    _children,
    _draws,
    _sample,
    _states,
    _uniform,
    _unit_vectors,
    derive_trial_seeds,
    random_scenario,
)
from leofim.signals import rect_window_rms_duration

from _oracle import SplitMix64


def test_splitmix64_published_reference_vectors():
    # First outputs for seed 0 of the reference SplitMix64 algorithm.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_and_unit_vector():
    rng = SplitMix64(1234)
    vals = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < float(np.mean(vals)) < 0.6
    v = SplitMix64(99).unit_vector()
    assert np.isclose(np.linalg.norm(v), 1.0, rtol=1e-12)


def test_splitmix64_child_streams_are_independent():
    parent = SplitMix64(42)
    a = parent.child(1).next_u64()
    b = parent.child(2).next_u64()
    assert a != b
    assert SplitMix64(42).child(1).next_u64() == a


STREAM_SEEDS = [0, 1, 42, 2**63, 2**64 - 1]
STREAM_TAGS = [0, 1, 0x52435652, 0x4C454F00 + 3, 2**64 - 1]


def test_array_streams_reproduce_the_scalar_stream_bit_for_bit():
    """Every output, uniform, unit vector and child of the array streams is
    the scalar stream's, with every stream operation kept off numpy uint64
    scalars (their overflow raises under ``errstate``)."""
    n = 12
    with np.errstate(all="raise"):
        states = _states(STREAM_SEEDS)
        bits = _draws(states, n)
        uniforms = _uniform(bits, -2.5, 7.0)
        directions = _unit_vectors(bits.reshape(len(STREAM_SEEDS), n // 2, 2))
        children = _children(states[:, None], np.array(STREAM_TAGS, dtype=np.uint64))
        child_bits = _draws(children, 3)
    for i, seed in enumerate(STREAM_SEEDS):
        stream = SplitMix64(seed)
        assert [int(x) for x in bits[i]] == [stream.next_u64() for _ in range(n)]
        stream = SplitMix64(seed)
        assert np.array_equal(uniforms[i], [stream.uniform(-2.5, 7.0) for _ in range(n)])
        stream = SplitMix64(seed)
        assert np.array_equal(directions[i], [stream.unit_vector() for _ in range(n // 2)])
        for j, tag in enumerate(STREAM_TAGS):
            child = SplitMix64(seed).child(tag)
            assert [int(x) for x in child_bits[i, j]] == [child.next_u64() for _ in range(3)]


def test_derive_trial_seeds():
    seeds = derive_trial_seeds(42, 5)
    assert len(seeds) == 5
    assert len(set(seeds)) == 5
    assert seeds == derive_trial_seeds(42, 5)
    assert seeds[:3] == derive_trial_seeds(42, 3)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_slots=0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_ant=0)
    with pytest.raises(ValueError):
        ScenarioConfig(carrier_freq_hz=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(snr_db=np.nan)
    with pytest.raises(ValueError):
        ScenarioConfig(snr_db_leo_rx=np.inf)


def test_scenario_config_rejects_bcc_out_of_range_and_overflowing_snr():
    with pytest.raises(ValueError, match="bcc"):
        ScenarioConfig(bcc=1.5)
    with pytest.raises(ValueError, match="bcc"):
        ScenarioConfig(bcc=np.nan)
    with pytest.raises(ValueError, match="snr_db_bs_rx"):
        ScenarioConfig(snr_db_bs_rx=4000.0)
    edge = ScenarioConfig(bcc=-1.0, snr_db=3082.0)
    assert np.isfinite(edge.signal_props().snr_linear)


@pytest.mark.parametrize(
    "field, value",
    [("n_ant", 2.5), ("n_slots", 3.0), ("n_leo", True), ("n_bs", False), ("n_ant", "4")],
)
def test_scenario_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ScenarioConfig(**{field: value})


def test_scenario_config_accepts_numpy_integer_counts():
    counts = dict(n_leo=np.int64(2), n_bs=np.int32(0), n_ant=np.int64(3), n_slots=np.uint8(2))
    sc = random_scenario(ScenarioConfig(**counts), 3)
    assert (sc.n_leo, sc.n_bs, sc.n_ant, sc.n_slots) == (2, 0, 3, 2)


# Every float field of ScenarioConfig: its message's condition, and a finite
# value out of its range.
_POSITIVE = ("slot_spacing_s", "carrier_freq_hz", "observation_duration_s", "rms_duration_s",
             "leo_distance_m", "receiver_distance_m", "bs_distance_m")
_NON_NEGATIVE = ("eff_bandwidth_hz", "leo_speed_m_s", "receiver_speed_m_s",
                 "leo_dir_perturb_rad", "array_radius_wavelengths")
_SNRS = ("snr_db", "snr_db_leo_rx", "snr_db_bs_rx", "snr_db_leo_bs")
FLOAT_FIELDS = {
    **{name: ("must be positive", 0.0) for name in _POSITIVE},
    **{name: ("must be >= 0", -1.0) for name in _NON_NEGATIVE},
    "bcc": ("must lie in [-1, 1]", 1.5),
    **{name: ("must be finite and <= 3082 dB", 4000.0) for name in _SNRS},
}
# The fields that accept ``None``: the optional ones (an unset per-link SNR
# falls back to ``snr_db``, which is required).
NONE_ACCEPTED = {"rms_duration_s", *_SNRS[1:]}


def test_float_field_table_covers_every_float_field():
    floats = {f.name for f in dataclasses.fields(ScenarioConfig) if "float" in str(f.type)}
    assert floats == set(FLOAT_FIELDS)


@pytest.mark.parametrize("name", ["leo_speed_m_s", "receiver_speed_m_s"])
@pytest.mark.parametrize("value", [SPEED_OF_LIGHT_M_S, 1e9])
def test_scenario_config_rejects_speeds_at_or_above_light(name, value):
    """A sampled speed at or above ``c`` is outside the first-order Doppler
    model: a ``ValueError`` with the field's name and value."""
    message = f"{name} must be slower than light, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("name", list(FLOAT_FIELDS))
def test_scenario_config_rejects_non_finite_and_out_of_range_floats(name):
    """NaN, both infinities and a finite value out of range each raise
    ``ValueError`` with the field's message, which shows the value."""
    condition, out_of_range = FLOAT_FIELDS[name]
    for value in (np.nan, np.inf, -np.inf, out_of_range):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {condition}, got {value}')}$"):
            ScenarioConfig(**{name: value})


@pytest.mark.parametrize("name", list(FLOAT_FIELDS))
def test_scenario_config_float_field_types(name):
    """A string raises ``TypeError``, as does ``None`` where the field does
    not accept it; numpy floats and Python ints are accepted as they are."""
    with pytest.raises(TypeError):
        ScenarioConfig(**{name: "1"})
    if name in NONE_ACCEPTED:
        assert getattr(ScenarioConfig(**{name: None}), name) is None
    else:
        with pytest.raises(TypeError):
            ScenarioConfig(**{name: None})
    for value in (np.float64(1.0), 1):
        assert getattr(ScenarioConfig(**{name: value}), name) is value


def test_signal_props_default_and_override():
    cfg = ScenarioConfig(snr_db=20.0, snr_db_leo_bs=10.0)
    shared = cfg.signal_props()
    assert np.isclose(shared.snr_linear, 100.0)
    assert np.isclose(shared.rms_duration, rect_window_rms_duration(1e-3))
    boosted = cfg.signal_props(cfg.snr_db_leo_bs)
    assert np.isclose(boosted.snr_linear, 10.0)


def test_explicit_rms_duration_wins():
    cfg = ScenarioConfig(rms_duration_s=2e-3)
    assert cfg.signal_props().rms_duration == 2e-3


def test_random_scenario_is_deterministic():
    cfg = ScenarioConfig()
    a = random_scenario(cfg, 7)
    b = random_scenario(cfg, 7)
    assert np.array_equal(a.receiver.position, b.receiver.position)
    assert np.array_equal(a.receiver.antenna_offsets, b.receiver.antenna_offsets)
    assert np.array_equal(a.leos[0].track, b.leos[0].track)
    c = random_scenario(cfg, 8)
    assert not np.array_equal(a.receiver.position, c.receiver.position)


def test_random_scenario_respects_distances_and_speeds():
    cfg = ScenarioConfig(n_leo=2, n_bs=3)
    sc = random_scenario(cfg, 123)
    assert np.isclose(np.linalg.norm(sc.receiver.position), 30.0, rtol=0.2)
    for bs in sc.bss:
        assert np.isclose(np.linalg.norm(bs.position), 100.0, rtol=0.2)
    for leo in sc.leos:
        assert np.isclose(np.linalg.norm(leo.position), 2e6, rtol=0.2)
        assert leo.speed == 8000.0
        assert np.allclose(np.linalg.norm(leo.track, axis=1), 1.0, atol=1e-12)
    assert np.isclose(np.linalg.norm(sc.receiver.velocity), 25.0, rtol=1e-9)


def test_leo_track_direction_changes_are_bounded():
    cfg = ScenarioConfig(n_slots=4, leo_dir_perturb_rad=0.1)
    sc = random_scenario(cfg, 5)
    track = sc.leos[0].track
    for k in range(1, 4):
        cosang = float(np.clip(track[k - 1] @ track[k], -1.0, 1.0))
        assert np.arccos(cosang) <= 0.1 + 1e-9


def _per_slot_leo_track(stream, n_slots, perturb_rad):
    """The per-slot Rodrigues loop the broadcast track replaced."""
    base = stream.unit_vector()
    rows = []
    for _ in range(n_slots):
        axis = stream.unit_vector()
        angle = perturb_rad * stream.uniform()
        c, s = np.cos(angle), np.sin(angle)
        rows.append(c * base + s * np.cross(axis, base) + (1.0 - c) * (axis @ base) * axis)
    track = np.asarray(rows)
    return track / np.linalg.norm(track, axis=1, keepdims=True)


@pytest.mark.parametrize("n_slots", range(1, 21))
def test_leo_track_matches_per_slot_rodrigues_bit_for_bit(n_slots):
    """The batched tracks of every trial and satellite are the per-slot loop's
    on that satellite's scalar stream, after its epoch position's draws."""
    seeds = range(10)
    for perturb_rad in (0.1, 1.0):
        config = ScenarioConfig(n_leo=2, n_slots=n_slots, leo_dir_perturb_rad=perturb_rad)
        tracks = _sample(config, seeds).leo_track
        for seed, trial in zip(seeds, tracks, strict=True):
            for b, got in enumerate(trial):
                reference = SplitMix64(seed).child(_TAG_LEO + b)
                reference.unit_vector()
                assert np.array_equal(got, _per_slot_leo_track(reference, n_slots, perturb_rad))


def test_antenna_offsets_norm_and_nested_prefix():
    lam = 299792458.0 / 40e9
    small = random_scenario(ScenarioConfig(n_ant=2), 31)
    large = random_scenario(ScenarioConfig(n_ant=4), 31)
    radii = np.linalg.norm(large.receiver.antenna_offsets, axis=1)
    assert np.allclose(radii, 20.0 * lam, rtol=1e-12)
    # growing the array only appends antennas (needed for information monotonicity)
    assert np.allclose(small.receiver.antenna_offsets, large.receiver.antenna_offsets[:2])


def test_growing_slots_keeps_earlier_track():
    short = random_scenario(ScenarioConfig(n_slots=3), 17)
    long = random_scenario(ScenarioConfig(n_slots=4), 17)
    assert np.allclose(short.leos[0].track, long.leos[0].track[:3])


def test_growing_stations_keeps_earlier_stations():
    few = random_scenario(ScenarioConfig(n_bs=2), 19)
    many = random_scenario(ScenarioConfig(n_bs=3), 19)
    for q in range(2):
        assert np.allclose(few.bss[q].position, many.bss[q].position)


NESTED_SMALL = dict(n_leo=2, n_bs=1, n_ant=3, n_slots=4)
NESTED_BIG = dict(n_leo=4, n_bs=3, n_ant=9, n_slots=20)


@pytest.mark.parametrize("grown", [*NESTED_BIG, "all"])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
def test_sampling_is_nested_in_every_count(grown, seed):
    """A scenario at smaller counts is a prefix of the larger one, bit for bit
    (identifiability sweeps sample each trial once, at the grid maxima)."""
    small = ScenarioConfig(**NESTED_SMALL)
    grow = NESTED_BIG if grown == "all" else {grown: NESTED_BIG[grown]}
    big = dataclasses.replace(small, **grow)
    a, b = random_scenario(small, seed), random_scenario(big, seed)
    pairs = [
        (a.receiver.position, b.receiver.position),
        (a.receiver.velocity, b.receiver.velocity),
        (a.receiver.orientation.as_array(), b.receiver.orientation.as_array()),
        (a.receiver.antenna_offsets, b.receiver.antenna_offsets[: a.n_ant]),
    ]
    pairs += [(x.position, y.position) for x, y in zip(a.leos, b.leos[: a.n_leo], strict=True)]
    pairs += [
        (x.track, y.track[: a.n_slots]) for x, y in zip(a.leos, b.leos[: a.n_leo], strict=True)
    ]
    pairs += [(x.position, y.position) for x, y in zip(a.bss, b.bss[: a.n_bs], strict=True)]
    for got, expected in pairs:
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_scenario_counts_and_shared_bs_clock():
    cfg = ScenarioConfig(n_leo=2, n_bs=3, n_ant=4, n_slots=3)
    sc = random_scenario(cfg, 3)
    assert sc.n_leo == 2 and sc.n_bs == 3 and sc.n_ant == 4 and sc.n_slots == 3
    assert len(sc.leo_rx_signals) == 2
    assert len(sc.bs_rx_signals) == 3
    # one clock/frequency offset pair for the whole station network
    stations = list(sc.bs_rx_signals)
    stations[1] = dataclasses.replace(stations[1], freq_offset=5.0)
    with pytest.raises(ValueError, match="^station-receiver links share one frequency offset$"):
        dataclasses.replace(sc, bs_rx_signals=tuple(stations))
    shifted = tuple(dataclasses.replace(props, freq_offset=5.0) for props in stations)
    assert dataclasses.replace(sc, bs_rx_signals=shifted).bs_rx_signals == shifted


def test_scenario_validation_rejects_mismatched_lists():
    sc = random_scenario(ScenarioConfig(), 1)
    with pytest.raises(ValueError):
        dataclasses.replace(sc, leo_rx_signals=())


def test_case_enum_round_trip():
    assert Case("with_bs") is Case.WITH_BS
    assert Case("receiver_only") is Case.RECEIVER_ONLY
