"""Signal descriptors: SNR conversion, effective frequency, spectral weights."""

import numpy as np
import pytest

from leofim.signals import (
    OffsetParams,
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
    p = OffsetParams(freq_offset=10.0)
    assert p.freq_offset == 10.0
    with pytest.raises(ValueError):
        OffsetParams(freq_offset=np.nan)


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


def test_signal_props_per_observation_snr():
    grid = np.array([[1.0, 2.0], [3.0, 4.0]])
    props = SignalProps(
        eff_bandwidth=1e8, bcc=0.0, rms_duration=1e-3, snr_linear=grid, carrier_freq=40e9
    )
    assert np.array_equal(props.snr_grid((2, 2)), grid)
