"""Balanced spectral helpers and guarded inversion."""

import numpy as np
import pytest

from leofim.linalg import (
    NumericalError,
    balance_scale,
    balanced_eigvalsh,
    invert_psd,
    sym,
)


def test_sym_and_relative_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = sym(m)
    assert np.allclose(s, s.T)


def test_balance_scale_unit_diagonal():
    a = np.diag([4.0, 1e-8, 0.0])
    d = balance_scale(a)
    assert np.allclose(d, [0.5, 1e4, 1.0])
    balanced = a * d[:, None] * d[None, :]
    assert np.allclose(np.diag(balanced), [1.0, 1.0, 0.0])


def test_balanced_eigvalsh_is_scaling_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 5))
    spd = x @ x.T + 5 * np.eye(5)
    scale = np.diag([1.0, 1e6, 1e-6, 42.0, 1e12])
    w_plain = balanced_eigvalsh(spd)
    w_scaled = balanced_eigvalsh(scale @ spd @ scale)
    assert np.all(np.diff(w_plain) >= 0)
    assert np.allclose(w_plain, w_scaled, rtol=1e-9)


def test_stacked_balanced_eigvalsh_equals_per_matrix_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 5, 5))
    scale = np.logspace(-8, 8, 5)
    stack = scale[:, None] * (x @ x.mT) * scale
    stack[1, 2, :] = stack[1, :, 2] = 0.0  # a zero diagonal entry keeps scale 1.0
    stack[2, 3, 3] = -1e-3  # so does a negative one
    got = balanced_eigvalsh(stack)
    assert got.shape == (4, 5)
    for matrix, eigvals in zip(stack, got):
        assert np.array_equal(eigvals, balanced_eigvalsh(matrix))
    assert np.array_equal(balanced_eigvalsh(stack.reshape(2, 2, 5, 5)), got.reshape(2, 2, 5))
    empty = balanced_eigvalsh(np.zeros((3, 0, 0)))
    assert empty.shape == (3, 0)
    assert balanced_eigvalsh(np.zeros((0, 0))).shape == (0,)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_balanced_eigvalsh_rejects_non_finite_entries(bad):
    """A non-finite entry (information that overflowed a double) raises
    NumericalError, also inside a stack, instead of a LinAlgError."""
    stack = np.stack([np.eye(3)] * 2)
    stack[1, 0, 2] = stack[1, 2, 0] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        balanced_eigvalsh(stack)
    with pytest.raises(NumericalError, match="non-finite"):
        balanced_eigvalsh(stack[1])


def test_invert_psd_names_an_inverse_beyond_double_range():
    """Information at the bottom of double range balances to a unit spectrum,
    but its inverse overflows: a named error, not a warning and an inf."""
    with np.errstate(all="raise"), pytest.raises(NumericalError, match="inverse overflows"):
        invert_psd(np.diag([5e-324, 1.0]), floor_rel=1e-12)


def test_invert_psd_identity_and_inverse():
    inv = invert_psd(np.eye(3), floor_rel=1e-12)
    assert np.allclose(inv, np.eye(3))

    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    spd = x @ x.T + 4 * np.eye(4)
    inv = invert_psd(spd, floor_rel=1e-12)
    assert np.allclose(inv @ spd, np.eye(4), atol=1e-10)


def test_invert_psd_balancing_handles_wild_diagonal_scales():
    # diagonal scaling is removed by balancing, so this is perfectly conditioned
    a = np.diag([1.0, 1e-30])
    inv = invert_psd(a, floor_rel=1e-12)
    assert np.isclose(inv[1, 1], 1e30, rtol=1e-12)


def test_invert_psd_floors_singular_modes():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    inv = invert_psd(a, floor_rel=1e-12)
    # the zero mode is excluded: pseudo-inverse of ones/2 on the kept mode
    assert np.allclose(inv, 0.25 * np.ones((2, 2)))


def test_invert_psd_rejects_indefinite():
    with pytest.raises(NumericalError):
        invert_psd(np.diag([1.0, -1.0]), floor_rel=1e-12)


def test_stacked_invert_psd_equals_per_matrix_calls_bit_for_bit():
    """One stacked inverse is each matrix's own, floored singular modes and an
    all-zero matrix (whose inverse is zero) included."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(6, 5, 5))
    scale = np.logspace(-8, 8, 5)
    stack = scale[:, None] * (x @ x.mT) * scale
    stack[1] = np.outer(stack[1, 0], stack[1, 0])  # rank one: four floored modes
    stack[2, 3, :] = stack[2, :, 3] = 0.0  # an unobserved coordinate
    stack[4] = 0.0
    stack = stack.reshape(2, 3, 5, 5)
    got = invert_psd(stack, floor_rel=1e-10)
    assert got.shape == stack.shape
    for index in np.ndindex(2, 3):
        assert got[index].tobytes() == invert_psd(stack[index], floor_rel=1e-10).tobytes()
    assert not np.any(got[1, 1])
    assert invert_psd(np.zeros((3, 0, 0)), floor_rel=1e-10).shape == (3, 0, 0)


def test_indefinite_matrix_in_a_stack_raises_its_own_message():
    """The first indefinite matrix in stack order raises what a call on it
    alone raises."""
    stack = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([-1.0, -1.0])])
    for matrix, within, message in (
        (stack[1], stack, "matrix is indefinite (min/max eigenvalue -5.000e-01)"),
        (stack[2], stack[[0, 2]], "matrix is indefinite, not PSD"),
    ):
        for call in (matrix, within, within[None]):
            with pytest.raises(NumericalError) as raised:
                invert_psd(call, floor_rel=1e-12)
            assert str(raised.value) == message
