"""Reparameterization invariances of the bounds, as hypothesis properties.

A CRLB transforms with the parameters it bounds (Kay, *Fundamentals of
Statistical Signal Processing: Estimation Theory*, §3.8).  Moving the world
frame by a rigid translation and a rotation about z rotates every position,
velocity and offset block and shifts the yaw by the rotation angle, so every
root-trace bound is unchanged.  Relabeling satellites and stations permutes
the satellite-offset blocks and leaves the receiver blocks alone.  Both
properties run on the production route (``compute_efim`` then ``crlb``) over
well-conditioned random geometries.

A third property scales every physical quantity of a sampled scenario by any
finite double: the dense oracle's channel FIM, both EFIM routes, the verdict
and the bounds either return finite numbers without a numpy warning or raise
a named error.
"""

import dataclasses
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leofim.analysis import NotIdentifiableError, crlb, is_identifiable
from leofim.channel_fim import assemble_channel_fim
from leofim.geometry import (
    BsState,
    DegenerateGeometryError,
    EulerAngles,
    LeoState,
    ReceiverState,
    SlotGrid,
)
from leofim.linalg import NumericalError
from leofim.location_fim import compute_efim, efim_lemma_route
from leofim.scenario import Case, ScenarioConfig, random_scenario

REL_TOL = 1e-8
MIN_BALANCED_RATIO = 1e-6
N_BS = 3

scenarios = st.builds(
    lambda n_leo, n_ant, n_slots, seed: random_scenario(
        ScenarioConfig(
            n_leo=n_leo,
            n_bs=N_BS,
            n_ant=n_ant,
            n_slots=n_slots,
            slot_spacing_s=50.0,
            bs_distance_m=5e5,
            case=Case.WITH_BS,
        ),
        seed,
    ),
    n_leo=st.integers(1, 3),
    n_ant=st.integers(2, 5),
    n_slots=st.integers(4, 5),
    seed=st.integers(0, 2**64 - 1),
)

properties = settings(derandomize=True, deadline=None, database=None)


def _assume_well_conditioned(scenario):
    verdict = is_identifiable(compute_efim(scenario))
    assume(verdict.is_pd and verdict.min_eigenvalue >= MIN_BALANCED_RATIO * verdict.max_eigenvalue)


def _bounds(scenario):
    """Every root-trace bound, as a flat array
    ``[position, velocity, orientation, pos offsets..., vel offsets...]``."""
    report = crlb(compute_efim(scenario))
    return np.array(
        [report.pos_rmse_bound, report.vel_rmse_bound, report.orient_rmse_bound]
        + list(report.leo_pos_offset_bound)
        + list(report.leo_vel_offset_bound)
    )


def _moved_frame(scenario, theta, shift):
    """The scenario in a world frame rotated by ``theta`` about z and
    translated by ``shift``: points map to ``R p + shift``, directions and
    velocities to ``R v``, and the yaw becomes ``alpha + theta``."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rx = scenario.receiver
    receiver = dataclasses.replace(
        rx,
        position=rot @ rx.position + shift,
        velocity=rot @ rx.velocity,
        orientation=dataclasses.replace(rx.orientation, alpha=rx.orientation.alpha + theta),
    )
    leos = tuple(
        dataclasses.replace(
            leo,
            position=rot @ leo.position + shift,
            track=leo.track @ rot.T,
            pos_offset=rot @ leo.pos_offset,
            vel_offset=rot @ leo.vel_offset,
        )
        for leo in scenario.leos
    )
    bss = tuple(dataclasses.replace(bs, position=rot @ bs.position + shift) for bs in scenario.bss)
    return dataclasses.replace(scenario, receiver=receiver, leos=leos, bss=bss)


def _relabeled(scenario, leo_order, bs_order):
    """The scenario with satellite ``j`` the old satellite ``leo_order[j]`` and
    station ``q`` the old station ``bs_order[q]``, per-link settings with them."""

    def pick(items, order):
        return tuple(items[i] for i in order)

    return dataclasses.replace(
        scenario,
        leos=pick(scenario.leos, leo_order),
        leo_rx_signals=pick(scenario.leo_rx_signals, leo_order),
        leo_bs_signals=pick(scenario.leo_bs_signals, leo_order),
        bss=pick(scenario.bss, bs_order),
        bs_rx_signals=pick(scenario.bs_rx_signals, bs_order),
    )


@properties
@given(
    scenario=scenarios,
    theta=st.floats(-np.pi, np.pi),
    shift=st.tuples(*[st.floats(-1e4, 1e4)] * 3).map(np.array),
)
def test_bounds_are_invariant_to_a_rigid_change_of_world_frame(scenario, theta, shift):
    _assume_well_conditioned(scenario)
    expected = _bounds(scenario)
    got = _bounds(_moved_frame(scenario, theta, shift))
    np.testing.assert_allclose(got, expected, rtol=REL_TOL, atol=0.0)


@properties
@given(scenario=scenarios, data=st.data())
def test_relabeling_satellites_and_stations_permutes_only_their_offset_bounds(scenario, data):
    leo_order = data.draw(st.permutations(range(scenario.n_leo)), label="leo_order")
    bs_order = data.draw(st.permutations(range(N_BS)), label="bs_order")
    _assume_well_conditioned(scenario)
    before = _bounds(scenario)
    after = _bounds(_relabeled(scenario, leo_order, bs_order))
    n_leo = scenario.n_leo
    pos_offsets = 3 + np.asarray(leo_order)
    expected = np.concatenate([before[:3], before[pos_offsets], before[pos_offsets + n_leo]])
    np.testing.assert_allclose(after, expected, rtol=REL_TOL, atol=0.0)


finite = st.floats(allow_nan=False, allow_infinity=False)

SCALED = (
    "receiver_position", "leo_position", "bs_position", "receiver_velocity", "leo_speed",
    "antennas", "euler", "slot_spacing", "snr", "bandwidth", "carrier", "rms_duration",
)


def _scaled(scenario, factors, freq_offset):
    """The scenario with each quantity of ``SCALED`` multiplied by its factor
    in ``factors`` (1 if absent; every link's signal properties alike) and
    every link's frequency offset set to ``freq_offset`` Hz; an invalid
    result raises a ``ValueError`` from the constructor that checks it.  The
    products are formed without warnings: a non-finite one is the
    constructor's to reject."""
    scale = dict.fromkeys(SCALED, 1.0) | factors

    def signals(props):
        return dataclasses.replace(
            props,
            snr_linear=scale["snr"] * props.snr_linear,
            eff_bandwidth=scale["bandwidth"] * props.eff_bandwidth,
            carrier_freq=scale["carrier"] * props.carrier_freq,
            rms_duration=scale["rms_duration"] * props.rms_duration,
            freq_offset=freq_offset,
        )

    with np.errstate(over="ignore", invalid="ignore"):
        rx = scenario.receiver
        receiver = ReceiverState(
            position=scale["receiver_position"] * rx.position,
            velocity=scale["receiver_velocity"] * rx.velocity,
            orientation=EulerAngles(*(scale["euler"] * rx.orientation.as_array())),
            antenna_offsets=scale["antennas"] * rx.antenna_offsets,
        )
        leos = tuple(
            LeoState(
                position=scale["leo_position"] * leo.position,
                speed=scale["leo_speed"] * leo.speed,
                track=leo.track,
            )
            for leo in scenario.leos
        )
        bss = tuple(BsState(position=scale["bs_position"] * bs.position) for bs in scenario.bss)
        return dataclasses.replace(
            scenario,
            receiver=receiver,
            leos=leos,
            bss=bss,
            grid=SlotGrid(scenario.n_slots, scale["slot_spacing"] * scenario.grid.spacing_s),
            leo_rx_signals=tuple(map(signals, scenario.leo_rx_signals)),
            bs_rx_signals=tuple(map(signals, scenario.bs_rx_signals)),
            leo_bs_signals=tuple(map(signals, scenario.leo_bs_signals)),
        )


def _check_route(route, scenario):
    """``route``'s EFIM, its verdict and its bounds: finite, or a named error."""
    try:
        efim = route(scenario)
    except (NumericalError, ValueError):  # ``DegenerateGeometryError`` is a ``ValueError``
        return
    assert np.all(np.isfinite(efim.matrix)), route.__name__
    try:
        verdict = is_identifiable(efim)
    except NumericalError:
        return
    assert np.isfinite([verdict.min_eigenvalue, verdict.max_eigenvalue]).all(), route.__name__
    try:
        report = crlb(efim)
    except (NotIdentifiableError, NumericalError):
        return
    bounds = [report.pos_rmse_bound, report.vel_rmse_bound, report.orient_rmse_bound]
    bounds += [*report.leo_pos_offset_bound, *report.leo_vel_offset_bound]
    assert np.all(np.isfinite(bounds)), route.__name__


@settings(properties, max_examples=150)
@given(
    scenario=scenarios,
    case=st.sampled_from(list(Case)),
    # A few quantities at a time, so most examples reach the information routes.
    factors=st.dictionaries(st.sampled_from(SCALED), finite, max_size=3),
    freq_offset=st.one_of(st.just(0.0), finite),
)
def test_any_finite_scenario_gives_finite_results_or_a_named_error(
    scenario, case, factors, freq_offset
):
    """No numpy warning, at any finite input, from the dense oracle's channel
    FIM, either EFIM route, the verdict or the bounds.  The two routes'
    verdicts are not compared: near the PD threshold they legitimately
    differ."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scenario = _scaled(dataclasses.replace(scenario, case=case), factors, freq_offset)
        except ValueError:
            return
        try:
            j_eta, _ = assemble_channel_fim(scenario)
        except (DegenerateGeometryError, NumericalError):
            pass
        else:
            assert np.all(np.isfinite(j_eta))
        for route in (compute_efim, efim_lemma_route):
            _check_route(route, scenario)
