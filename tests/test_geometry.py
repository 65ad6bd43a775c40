"""Geometry module (states, rotations) and the scalar oracle (kinematics,
delays, Dopplers) the link pass is checked against."""

import numpy as np
import pytest

from leofim.geometry import (
    SPEED_OF_LIGHT_M_S,
    BsState,
    DegenerateGeometryError,
    EulerAngles,
    LeoState,
    ReceiverState,
    SlotGrid,
    as_vec3,
    rotation_matrix,
    rotation_matrix_partials,
)

from _oracle import (
    antenna_position,
    delay,
    doppler,
    leo_position,
    receiver_reference,
    time_of,
    unit_direction,
    velocity_at,
)


def _receiver(position=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0), angles=(0.0, 0.0, 0.0), offsets=None):
    if offsets is None:
        offsets = np.zeros((1, 3))
    return ReceiverState(
        position=np.asarray(position, dtype=float),
        velocity=np.asarray(velocity, dtype=float),
        orientation=EulerAngles(*angles),
        antenna_offsets=np.asarray(offsets, dtype=float),
    )


def test_as_vec3_validation():
    assert np.array_equal(as_vec3([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        as_vec3([1.0, 2.0])
    with pytest.raises(ValueError):
        as_vec3([1.0, np.nan, 3.0])


def test_euler_angles_must_be_finite():
    with pytest.raises(ValueError):
        EulerAngles(0.0, np.inf, 0.0)


def test_rotation_matrix_frozen_quarter_turn():
    q = rotation_matrix(EulerAngles(np.pi / 2, 0.0, 0.0))
    assert np.allclose(q @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(rotation_matrix(EulerAngles(0, 0, 0)), np.eye(3))


def test_rotation_matrix_is_proper_orthogonal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        angles = EulerAngles(*rng.uniform(-np.pi, np.pi, size=3))
        q = rotation_matrix(angles)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-14)
        assert np.isclose(np.linalg.det(q), 1.0, atol=1e-14)


def test_rotation_partials_frozen_at_zero():
    d = rotation_matrix_partials(EulerAngles(0.0, 0.0, 0.0))
    d_alpha = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    d_phi = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(d[0], d_alpha)
    assert np.allclose(d[2], d_phi)


def test_rotation_partials_match_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5, size=3)
        exact = rotation_matrix_partials(EulerAngles(*a))
        for i in range(3):
            up, dn = a.copy(), a.copy()
            up[i] += h
            dn[i] -= h
            fd = (rotation_matrix(EulerAngles(*up)) - rotation_matrix(EulerAngles(*dn))) / (2 * h)
            assert np.allclose(exact[i], fd, atol=1e-8)


def test_slot_grid_validation_and_times():
    grid = SlotGrid(n_slots=3, spacing_s=0.5)
    assert time_of(grid, 0) == 0.0
    assert time_of(grid, 3) == 1.5
    assert list(grid.slot_numbers()) == [1, 2, 3]
    with pytest.raises(ValueError):
        time_of(grid, 4)
    with pytest.raises(ValueError):
        SlotGrid(n_slots=0, spacing_s=1.0)
    with pytest.raises(ValueError):
        SlotGrid(n_slots=2, spacing_s=0.0)


def test_receiver_state_validation():
    with pytest.raises(ValueError):
        _receiver(offsets=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        _receiver(offsets=np.zeros((2, 2)))
    assert _receiver(offsets=np.zeros((4, 3))).n_antennas == 4


def test_antenna_position_epoch_is_reference_point():
    rx = _receiver(position=(1.0, 2.0, 3.0), velocity=(25.0, 0.0, 0.0))
    grid = SlotGrid(n_slots=3, spacing_s=1.0)
    assert np.allclose(antenna_position(rx, 0, 0, grid), [1.0, 2.0, 3.0])


def test_antenna_position_constant_velocity_track():
    rx = _receiver(velocity=(25.0, 0.0, 0.0))
    grid = SlotGrid(n_slots=3, spacing_s=1.0)
    assert np.allclose(antenna_position(rx, 0, 2, grid), [50.0, 0.0, 0.0])


def test_antenna_position_applies_orientation():
    # yaw of pi/2 turns a body-frame +x offset into world +y
    rx = _receiver(angles=(np.pi / 2, 0.0, 0.0), offsets=[[2.0, 0.0, 0.0]])
    grid = SlotGrid(n_slots=1, spacing_s=1.0)
    assert np.allclose(antenna_position(rx, 0, 0, grid), [0.0, 2.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        antenna_position(rx, 1, 0, grid)


def test_leo_state_track_must_be_unit():
    with pytest.raises(ValueError):
        LeoState(position=np.zeros(3), speed=1.0, track=np.array([[1.0, 1.0, 0.0]]))


def test_leo_position_epoch_and_first_slot():
    leo = LeoState(position=np.array([1.0, 0.0, 0.0]), speed=8000.0, track=np.array([[0.0, 0.0, 1.0]]))
    grid = SlotGrid(n_slots=1, spacing_s=1.0)
    assert np.allclose(leo_position(leo, 0, grid), [1.0, 0.0, 0.0])
    assert np.allclose(leo_position(leo, 1, grid), [1.0, 0.0, 8000.0])


def test_leo_position_fixed_direction_spacing_invariant():
    track = np.tile(np.array([0.0, 1.0, 0.0]), (4, 1))
    leo = LeoState(position=np.array([5.0, -2.0, 7.0]), speed=8000.0, track=track)
    grid = SlotGrid(n_slots=4, spacing_s=2.5)
    for k1 in range(1, 4):
        for k2 in range(k1 + 1, 5):
            gap = np.linalg.norm(leo_position(leo, k2, grid) - leo_position(leo, k1, grid))
            assert np.isclose(gap, (k2 - k1) * 2.5 * 8000.0, rtol=1e-9)


def test_leo_position_offsets_accumulate_drift():
    leo = LeoState(
        position=np.zeros(3),
        speed=0.0,
        track=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        pos_offset=np.array([3.0, 0.0, 0.0]),
        vel_offset=np.array([0.0, 2.0, 0.0]),
    )
    grid = SlotGrid(n_slots=2, spacing_s=10.0)
    assert np.allclose(leo_position(leo, 2, grid), [0.0, 0.0, 0.0])
    assert np.allclose(leo_position(leo, 2, grid, include_offset=True), [3.0, 40.0, 0.0])


def test_leo_velocity_at_uses_slot_numbers():
    track = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    leo = LeoState(position=np.zeros(3), speed=10.0, track=track, vel_offset=np.array([0.0, 0.0, 1.0]))
    assert np.allclose(velocity_at(leo, 1), [10.0, 0.0, 0.0])
    assert np.allclose(velocity_at(leo, 2, include_offset=True), [0.0, 10.0, 1.0])
    with pytest.raises(ValueError):
        velocity_at(leo, 0)
    with pytest.raises(ValueError):
        velocity_at(leo, 3)


def test_leo_position_needs_full_track():
    leo = LeoState(position=np.zeros(3), speed=1.0, track=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        leo_position(leo, 1, SlotGrid(n_slots=2, spacing_s=1.0))


def test_receiver_reference_moves_with_velocity():
    rx = _receiver(position=(0.0, 1.0, 0.0), velocity=(0.0, 0.0, 4.0))
    grid = SlotGrid(n_slots=2, spacing_s=0.5)
    assert np.allclose(receiver_reference(rx, 2, grid), [0.0, 1.0, 4.0])


def test_unit_direction_three_four_five():
    d = unit_direction(np.zeros(3), np.array([3.0, 4.0, 0.0]))
    assert np.allclose(d, [0.6, 0.8, 0.0])


def test_unit_direction_degenerate_raises():
    with pytest.raises(DegenerateGeometryError):
        unit_direction(np.zeros(3), np.array([0.0, 0.0, 1e-12]))


def test_delay_two_thousand_kilometers():
    # 2e6 m / 299792458 m/s, frozen independently
    tau = delay(np.zeros(3), np.array([0.0, 0.0, 2e6]))
    assert np.isclose(tau, 6.671281903963041e-3, rtol=1e-15)


def test_doppler_sign_and_magnitude():
    d = np.array([0.0, 0.0, 1.0])  # transmitter -> receiver
    closing = doppler(d, np.array([0.0, 0.0, 8000.0]))
    assert np.isclose(closing, 8000.0 / SPEED_OF_LIGHT_M_S, rtol=1e-15)
    assert doppler(d, np.array([1.0, 0.0, 0.0])) == 0.0
    assert doppler(d, np.array([0.0, 0.0, -8000.0])) < 0


def test_bs_state_holds_position():
    bs = BsState(position=np.array([1.0, 2.0, 3.0]))
    assert np.allclose(bs.position, [1.0, 2.0, 3.0])
