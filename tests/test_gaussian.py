"""Unit tests for the single-mode Gaussian state layer."""

import dataclasses

import numpy as np
import pytest

from sqzlab.gaussian import (
    HBAR,
    LIGHT_SPEED,
    PLANCK,
    GaussianState,
    SqueezeSetting,
    apply_loss,
    check_range,
    coherent,
    db_from_variance,
    mean_photon_number,
    quadrature_variance,
    rotate,
    squeeze,
    vacuum,
    variance_from_db,
)

R_10DB = np.log(10.0) / 2.0


def test_vacuum_is_identity():
    state = vacuum()
    assert np.array_equal(state.cov, np.eye(2))
    assert np.array_equal(state.mean, np.zeros(2))
    assert mean_photon_number(state) == 0.0


def test_coherent_displacement_scale():
    state = coherent(1.5, -0.75)
    np.testing.assert_allclose(state.mean, [3.0, -1.5])
    assert np.array_equal(state.cov, np.eye(2))
    assert mean_photon_number(state) == pytest.approx(1.5**2 + 0.75**2)


def test_squeeze_variances_10db():
    state = squeeze(vacuum(), SqueezeSetting(R_10DB))
    assert quadrature_variance(state, 0.0) == pytest.approx(0.1, abs=1e-14)
    assert quadrature_variance(state, np.pi / 2) == pytest.approx(10.0, abs=1e-12)


def test_squeeze_angle_places_minimum():
    theta = 0.4
    state = squeeze(vacuum(), SqueezeSetting(1.0, theta))
    assert quadrature_variance(state, theta) == pytest.approx(np.exp(-2.0))
    assert quadrature_variance(state, theta + np.pi / 2) == pytest.approx(np.exp(2.0))


@pytest.mark.parametrize("angle", np.linspace(0.0, np.pi, 13))
def test_quadrature_variance_profile(angle):
    # V(theta) = e^{-2r} cos^2 + e^{2r} sin^2 for an axis-aligned state
    r = 0.7
    state = squeeze(vacuum(), SqueezeSetting(r))
    want = np.exp(-2 * r) * np.cos(angle) ** 2 + np.exp(2 * r) * np.sin(angle) ** 2
    assert quadrature_variance(state, float(angle)) == pytest.approx(want)


def test_rotate_moves_quadratures():
    state = rotate(squeeze(vacuum(), SqueezeSetting(1.0)), np.pi / 2)
    assert quadrature_variance(state, np.pi / 2) == pytest.approx(np.exp(-2.0))
    assert quadrature_variance(state, 0.0) == pytest.approx(np.exp(2.0))


def test_rotate_mean():
    state = rotate(coherent(1.0, 0.0), np.pi / 2)
    np.testing.assert_allclose(state.mean, [0.0, 2.0], atol=1e-15)


def test_loss_on_known_state():
    # 0.385 loss on variances (0.1, 10)
    lossy = apply_loss(squeeze(vacuum(), SqueezeSetting(R_10DB)), 0.385)
    assert quadrature_variance(lossy, 0.0) == pytest.approx(0.4465, abs=1e-12)
    assert quadrature_variance(lossy, np.pi / 2) == pytest.approx(6.535, abs=1e-12)
    assert db_from_variance(quadrature_variance(lossy, 0.0)) == pytest.approx(
        -3.501785367754348, abs=1e-12
    )


def test_loss_shrinks_mean():
    lossy = apply_loss(coherent(2.0, 0.0), 0.19)
    assert lossy.mean[0] == pytest.approx(4.0 * np.sqrt(0.81))
    assert lossy.mean[1] == 0.0


def test_loss_composition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = squeeze(
            vacuum(), SqueezeSetting(rng.uniform(0, 2), rng.uniform(0, np.pi))
        )
        first, second = rng.uniform(0.0, 0.9, size=2)
        combined = 1.0 - (1.0 - first) * (1.0 - second)
        once = apply_loss(state, combined)
        twice = apply_loss(apply_loss(state, first), second)
        np.testing.assert_allclose(twice.cov, once.cov, atol=1e-12)


def test_full_loss_gives_vacuum():
    state = apply_loss(squeeze(coherent(1.0, 1.0), SqueezeSetting(1.0)), 1.0)
    np.testing.assert_allclose(state.cov, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(state.mean, 0.0, atol=1e-12)


def test_determinant_preserved_by_squeeze_and_rotation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        state = vacuum()
        # cumulative squeezing stays moderate so rounding cannot mask a
        # genuine symplectic-structure bug at the 1e-12 level
        for _ in range(4):
            state = squeeze(
                state, SqueezeSetting(rng.uniform(0, 0.4), rng.uniform(0, np.pi))
            )
            state = rotate(state, rng.uniform(-np.pi, np.pi))
        assert abs(np.linalg.det(state.cov) - 1.0) < 1e-12


def test_decibel_frozen_values():
    assert db_from_variance(0.5) == pytest.approx(-3.010299956639812, abs=1e-15)
    assert variance_from_db(-3.0103) == pytest.approx(0.4999999950079739, abs=1e-15)


def test_decibel_round_trip():
    rng = np.random.default_rng(3)
    for variance in rng.uniform(0.01, 100.0, size=25):
        assert variance_from_db(db_from_variance(variance)) == pytest.approx(
            variance, rel=1e-12
        )


def test_mean_photon_number_squeezed_vacuum():
    # sinh^2(r) photons; r for 10 dB gives exactly 8.1 / 4
    state = squeeze(vacuum(), SqueezeSetting(R_10DB))
    assert mean_photon_number(state) == pytest.approx(2.025, abs=1e-12)


def test_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        db_from_variance(0.0)
    with pytest.raises(ValueError):
        db_from_variance(-1.0)


def test_squeeze_setting_rejects_negative_strength():
    with pytest.raises(ValueError):
        SqueezeSetting(-0.1)


def test_squeeze_setting_wraps_angle():
    assert SqueezeSetting(1.0, np.pi + 0.3).theta == pytest.approx(0.3)


def test_loss_bounds():
    with pytest.raises(ValueError):
        apply_loss(vacuum(), -0.01)
    with pytest.raises(ValueError):
        apply_loss(vacuum(), 1.01)


def test_state_rejects_sub_heisenberg_cov():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), 0.5 * np.eye(2))


def test_state_rejects_asymmetric_cov():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_states_are_immutable():
    state = vacuum()
    with pytest.raises(ValueError):
        state.cov[0, 0] = 2.0
    with pytest.raises(ValueError):
        state.mean[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.cov = np.eye(2)


def test_operations_do_not_mutate_input():
    state = squeeze(vacuum(), SqueezeSetting(1.0))
    before = state.cov.copy()
    apply_loss(rotate(state, 0.7), 0.3)
    np.testing.assert_array_equal(state.cov, before)


def test_quadrature_variance_scalar_and_array_agree():
    state = apply_loss(squeeze(vacuum(), SqueezeSetting(1.2, 0.4)), 0.1)
    angles = np.linspace(-np.pi, np.pi, 73)
    array = quadrature_variance(state, angles)
    scalars = [quadrature_variance(state, float(a)) for a in angles]
    assert array.shape == angles.shape
    assert np.array_equal(array, scalars)
    assert all(type(value) is float for value in scalars)


def test_quadrature_variance_at_zero_angle_is_the_covariance_entry():
    state = squeeze(vacuum(), SqueezeSetting(1.3, 0.7))
    assert quadrature_variance(state, 0.0) == state.cov[0, 0]


def test_db_from_variance_scalar_and_array_agree():
    variances = np.geomspace(1e-3, 1e3, 41)
    array = db_from_variance(variances)
    scalars = [db_from_variance(float(v)) for v in variances]
    assert array.shape == variances.shape
    assert np.array_equal(array, scalars)
    assert all(isinstance(value, float) for value in scalars)
    with pytest.raises(ValueError):
        db_from_variance([0.5, 0.0])


def test_squeeze_setting_from_db():
    assert SqueezeSetting.from_db(10.0).r == pytest.approx(R_10DB, rel=1e-15)
    assert SqueezeSetting.from_db(3.0, 0.2).theta == 0.2
    with pytest.raises(ValueError):
        SqueezeSetting.from_db(-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_range_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        check_range("x", bad)
    with pytest.raises(ValueError):
        check_range("x", [0.0, bad, 1.0])


def test_check_range_honours_each_end():
    assert check_range("x", 0.0, ge=0.0) == 0.0
    assert check_range("x", 1.0, le=1.0) == 1.0
    for bounds in ({"gt": 0.0}, {"lt": 0.0}, {"ge": 0.1}, {"le": -0.1}):
        with pytest.raises(ValueError):
            check_range("x", 0.0, **bounds)
    assert check_range("x", 0.5, gt=0.0, lt=1.0) == 0.5


def test_check_range_array_path():
    values = np.array([0.0, 0.5, 1.0])
    checked = check_range("x", [0.0, 0.5, 1.0], ge=0.0, le=1.0)
    assert checked.dtype == float
    assert np.array_equal(checked, values)
    assert check_range("x", np.array([]), gt=0.0).size == 0
    for bad in ([0.5, -0.1], [1.1, 0.5], [[0.5, 0.5], [0.5, 2.0]]):
        with pytest.raises(ValueError):
            check_range("x", bad, ge=0.0, le=1.0)
    with pytest.raises(ValueError):
        check_range("x", values, gt=0.0)
    with pytest.raises(ValueError):
        check_range("x", values, lt=1.0)


def test_check_range_message_names_the_parameter():
    with pytest.raises(ValueError, match=r"^loss must be finite and >= 0 and <= 1$"):
        check_range("loss", 1.5, ge=0.0, le=1.0)
    with pytest.raises(ValueError, match="^phase_deg must be finite$"):
        check_range("phase_deg", [0.0, np.nan])


def test_si_constants_equal_scipy_bit_for_bit():
    from scipy import constants

    assert PLANCK == constants.h
    assert LIGHT_SPEED == constants.c
    assert HBAR == constants.hbar
