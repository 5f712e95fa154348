"""Unit tests for the cavity squeezing spectrum."""

import numpy as np
import pytest

from sqzlab.gaussian import db_from_variance, quadrature_variance
from sqzlab.opo import (
    OpoParams,
    SqueezeSpectrumPoint,
    opo_spectrum,
    parametric_gain,
    pump_ratio_from_gain,
    spectrum_to_state,
)


@pytest.mark.parametrize("gain", [1.0, 2.0, 10.0, 63.0, 500.0])
def test_gain_round_trip(gain):
    assert parametric_gain(pump_ratio_from_gain(gain)) == pytest.approx(
        gain, rel=1e-12
    )


def test_pump_ratio_frozen_value():
    assert pump_ratio_from_gain(63.0) == pytest.approx(
        0.8740118423302576, abs=1e-15
    )


def test_gain_one_means_no_pump():
    assert pump_ratio_from_gain(1.0) == 0.0


def test_gain_below_one_rejected():
    with pytest.raises(ValueError):
        pump_ratio_from_gain(0.99)


def test_zero_frequency_spectrum_frozen():
    params = OpoParams(0.8740118423302576, 0.914, 1.0e7)
    point = opo_spectrum(params, 0.0)
    assert point.v_squeeze == pytest.approx(0.09013105506864583, abs=1e-12)
    assert point.v_antisqueeze == pytest.approx(202.30939962024374, rel=1e-12)
    assert db_from_variance(point.v_squeeze) == pytest.approx(
        -10.451255450789894, abs=1e-9
    )
    assert db_from_variance(point.v_antisqueeze) == pytest.approx(
        23.06016061260026, abs=1e-9
    )


def test_unit_escape_output_is_pure():
    rng = np.random.default_rng(3)
    for _ in range(100):
        params = OpoParams(rng.uniform(0.0, 0.999), 1.0, 1.0e6)
        point = opo_spectrum(params, rng.uniform(0.0, 1e7))
        assert point.v_squeeze * point.v_antisqueeze == pytest.approx(
            1.0, abs=1e-9
        )


def test_escape_loss_degrades_purity():
    point = opo_spectrum(OpoParams(0.9, 0.9, 1e6), 0.0)
    assert 0.0 < point.v_squeeze < 1.0
    assert point.v_antisqueeze > 1.0
    assert point.v_squeeze * point.v_antisqueeze > 1.0


def test_spectrum_flattens_far_outside_linewidth():
    point = opo_spectrum(OpoParams(0.9, 0.914, 1e6), 1e10)
    assert point.v_squeeze == pytest.approx(1.0, abs=1e-4)
    assert point.v_antisqueeze == pytest.approx(1.0, abs=1e-4)


def test_squeezing_weakens_with_frequency():
    params = OpoParams(0.874, 0.914, 1e6)
    values = [
        opo_spectrum(params, float(f)).v_squeeze
        for f in np.geomspace(1e3, 1e9, 50)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_no_pump_gives_vacuum():
    point = opo_spectrum(OpoParams(0.0, 0.914, 1e6), 3e5)
    assert point.v_squeeze == 1.0
    assert point.v_antisqueeze == 1.0


def test_spectrum_to_state_matches_point():
    point = opo_spectrum(OpoParams(0.874, 0.914, 1e7), 2e6)
    state = spectrum_to_state(point, 0.3)
    assert quadrature_variance(state, 0.3) == pytest.approx(point.v_squeeze)
    assert quadrature_variance(state, 0.3 + np.pi / 2) == pytest.approx(
        point.v_antisqueeze
    )
    assert np.array_equal(state.mean, np.zeros(2))


def test_spectrum_to_state_rejects_an_array_point():
    point = opo_spectrum(OpoParams(0.5, 0.9, 1e6), np.array([0.0, 1e5]))
    with pytest.raises(ValueError, match="point must be a scalar spectrum point"):
        spectrum_to_state(point, 0.3)


def test_point_rejects_impossible_product():
    with pytest.raises(ValueError):
        SqueezeSpectrumPoint(0.0, 0.5, 1.5)


def test_point_rejects_squeezed_above_shot_noise():
    with pytest.raises(ValueError):
        SqueezeSpectrumPoint(0.0, 1.2, 3.0)


def test_params_reject_threshold_and_bad_escape():
    with pytest.raises(ValueError):
        OpoParams(1.0, 0.9, 1e6)
    with pytest.raises(ValueError):
        OpoParams(0.5, 1.1, 1e6)
    with pytest.raises(ValueError):
        OpoParams(0.5, 0.9, 0.0)


def test_params_reject_int_beyond_float_range():
    with pytest.raises(
        ValueError, match=r"^escape_efficiency must be finite and >= 0 and <= 1$"
    ):
        OpoParams(0.5, 10**400, 1e6)


def test_spectrum_scalar_and_array_agree():
    params = OpoParams(0.874, 0.914, 1.0e7)
    freqs = np.concatenate([[0.0], np.geomspace(1.0e3, 1.0e9, 61)])
    array = opo_spectrum(params, freqs)
    points = [opo_spectrum(params, float(f)) for f in freqs]
    assert array.v_squeeze.shape == freqs.shape
    assert np.array_equal(array.frequency, freqs)
    assert np.array_equal(array.v_squeeze, [p.v_squeeze for p in points])
    assert np.array_equal(array.v_antisqueeze, [p.v_antisqueeze for p in points])
    for point in points:
        assert type(point.v_squeeze) is float
        assert type(point.v_antisqueeze) is float


def test_spectrum_array_rejects_one_bad_frequency():
    params = OpoParams(0.874, 0.914, 1.0e7)
    with pytest.raises(ValueError):
        opo_spectrum(params, [1.0e3, -1.0, 1.0e5])
