"""Signal descriptors: SNR conversion, effective frequency, spectral weights."""

import numpy as np
import pytest

from leofim.geometry import EulerAngles, SlotGrid
from leofim.signals import (
    SignalProps,
    effective_frequency,
    omega,
    rect_window_rms_duration,
    snr_from_db,
)


def test_snr_from_db():
    assert snr_from_db(0.0) == 1.0
    assert np.isclose(snr_from_db(20.0), 100.0, rtol=1e-15)
    assert np.isclose(snr_from_db(3.0), 1.9952623149688795, rtol=1e-14)


def test_rect_window_rms_duration():
    assert np.isclose(rect_window_rms_duration(1e-3), 8.164965809277261e-4, rtol=1e-14)
    with pytest.raises(ValueError):
        rect_window_rms_duration(0.0)


def test_effective_frequency_frozen_value():
    # 40 GHz carrier closing at ~8 km/s: 4e10 * (1 - 2.66851e-5) = 39998932596.0
    assert np.isclose(effective_frequency(40e9, 2.66851e-5, 0.0), 39998932596.0, rtol=1e-15)
    assert effective_frequency(1e9, 0.0, 5.0) == 1e9 + 5.0


def test_effective_frequency_broadcasts():
    nu = np.array([0.0, 1e-5])
    out = effective_frequency(1e10, nu, 0.0)
    assert out.shape == (2,)
    assert out[0] == 1e10


def test_omega_formula():
    # alpha1^2 + 2 f_o alpha1 alpha2 + f_o^2 on small numbers: 4 + 60 + 25
    assert omega(2.0, 3.0, 5.0) == 89.0
    # flagship-scale value: 1e16 + 1.6e21
    assert np.isclose(omega(1e8, 0.0, 4e10), 1.60001e21, rtol=1e-15)


def test_omega_broadcasts():
    f_o = np.array([1.0, 2.0])
    assert np.allclose(omega(0.0, 0.0, f_o), [1.0, 4.0])


def test_offset_params_validation():
    """A link's frequency offset is the last field of its ``SignalProps``,
    zero by default, and must be finite."""
    assert SignalProps(1e8, 0.0, 1e-3, 1.0, 1e9).freq_offset == 0.0
    assert SignalProps(1e8, 0.0, 1e-3, 1.0, 1e9, freq_offset=10.0).freq_offset == 10.0
    with pytest.raises(ValueError, match="^freq_offset must be finite$"):
        SignalProps(1e8, 0.0, 1e-3, 1.0, 1e9, freq_offset=np.nan)


def test_signal_props_validation():
    props = SignalProps(
        eff_bandwidth=1e8, bcc=0.0, rms_duration=1e-3, snr_linear=100.0, carrier_freq=40e9
    )
    assert props.snr_grid((2, 3)).shape == (2, 3)
    assert np.all(props.snr_grid((2, 3)) == 100.0)
    with pytest.raises(ValueError):
        SignalProps(eff_bandwidth=-1.0, bcc=0.0, rms_duration=1e-3, snr_linear=1.0, carrier_freq=1e9)
    with pytest.raises(ValueError):
        SignalProps(eff_bandwidth=1e8, bcc=2.0, rms_duration=1e-3, snr_linear=1.0, carrier_freq=1e9)
    with pytest.raises(ValueError):
        SignalProps(eff_bandwidth=1e8, bcc=0.0, rms_duration=0.0, snr_linear=1.0, carrier_freq=1e9)
    with pytest.raises(ValueError):
        SignalProps(eff_bandwidth=1e8, bcc=0.0, rms_duration=1e-3, snr_linear=-1.0, carrier_freq=1e9)


@pytest.mark.parametrize(
    "snr",
    [np.nan, np.inf, -1.0, np.float64(np.nan), np.float64(np.inf), np.float64(-1.0),
     np.array([[1.0, 2.0], [np.nan, 4.0]]), np.array([1.0, -1.0])],
    ids=["nan", "inf", "-1", "np.nan", "np.inf", "np.-1", "array_nan", "array_-1"],
)
def test_signal_props_rejects_non_finite_or_negative_snr(snr):
    """A scalar SNR (a float or a numpy scalar) and every entry of an SNR
    array must be finite and >= 0."""
    with pytest.raises(ValueError, match="^snr_linear entries must be finite and >= 0$"):
        SignalProps(eff_bandwidth=1e8, bcc=0.0, rms_duration=1e-3, snr_linear=snr, carrier_freq=1e9)


def test_signal_props_per_observation_snr():
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    props = SignalProps(
        eff_bandwidth=1e8, bcc=0.0, rms_duration=1e-3, snr_linear=grid, carrier_freq=40e9
    )
    assert np.array_equal(props.snr_grid((2, 2)), grid)


# Every scalar field these records check with ``math.isfinite``, built with
# that field set to a value and every other field valid.
SCALAR_FIELDS = {
    "eff_bandwidth": lambda v: SignalProps(v, 0.0, 1e-3, 1.0, 1e9),
    "bcc": lambda v: SignalProps(1e8, v, 1e-3, 1.0, 1e9),
    "rms_duration": lambda v: SignalProps(1e8, 0.0, v, 1.0, 1e9),
    "carrier_freq": lambda v: SignalProps(1e8, 0.0, 1e-3, 1.0, v),
    "freq_offset": lambda v: SignalProps(1e8, 0.0, 1e-3, 1.0, 1e9, v),
    "angle alpha": lambda v: EulerAngles(v, 0.0, 0.0),
    "angle psi": lambda v: EulerAngles(0.0, v, 0.0),
    "angle phi": lambda v: EulerAngles(0.0, 0.0, v),
    "spacing_s": lambda v: SlotGrid(n_slots=1, spacing_s=v),
}
POSITIVE = ("rms_duration", "carrier_freq", "spacing_s")
NON_NEGATIVE = ("eff_bandwidth", *POSITIVE)
# (value, outcome in every field, {field: outcome} where the range decides);
# an outcome is None (accepted) or the exception type.
SCALAR_TABLE = {
    "half": (0.5, None, {}),
    "int": (1, None, {}),
    "bool": (True, None, {}),
    "float32": (np.float32(0.25), None, {}),
    "0-d array": (np.array(0.5), None, {}),
    "zero": (0.0, None, dict.fromkeys(POSITIVE, ValueError)),
    "negative": (-0.5, None, dict.fromkeys(NON_NEGATIVE, ValueError)),
    "two": (2.0, None, {"bcc": ValueError}),
    "nan": (np.nan, ValueError, {}),
    "inf": (np.inf, ValueError, {}),
    "-inf": (-np.inf, ValueError, {}),
    "int beyond int64": (10**300, None, {"bcc": ValueError}),
    "int beyond float": (10**400, OverflowError, {}),
    "None": (None, TypeError, {}),
    "str": ("0.5", TypeError, {}),
    "complex": (1j, TypeError, {}),
    "1-element array": (np.array([0.5]), TypeError, {}),
    "list": ([0.5], TypeError, {}),
}


@pytest.mark.parametrize("field", list(SCALAR_FIELDS))
@pytest.mark.parametrize("name", list(SCALAR_TABLE))
def test_scalar_field_checks_accept_and_reject_as_pinned(field, name):
    """The finiteness and range checks of ``SignalProps``, ``EulerAngles``
    and ``SlotGrid``: a range or finiteness failure is a
    ``ValueError`` naming the field, anything that is not a real number a
    ``TypeError`` (an integer beyond float range an ``OverflowError``)."""
    value, outcome, by_field = SCALAR_TABLE[name]
    outcome = by_field.get(field, outcome)
    if outcome is None:
        SCALAR_FIELDS[field](value)
    else:
        with pytest.raises(outcome, match=f"^{field} " if outcome is ValueError else None):
            SCALAR_FIELDS[field](value)
