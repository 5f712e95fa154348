"""Unit tests for the single-mode Gaussian state layer."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
R_100DB = 100.0 * math.log(10.0) / 20.0
EPS = 2.0**-52

ANGLES = st.floats(-10.0, 10.0)
LOSSES = st.floats(0.0, 1.0)
SQUEEZES = st.builds(SqueezeSetting, st.floats(0.0, R_100DB), ANGLES)


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


@pytest.mark.parametrize(
    "loss, axes",
    [
        (0.0, (0.25118864315095796, 3.981071705534973, 0.3)),
        (0.25, (0.43839148236321845, 3.23580377915123, 0.3)),
        (1.0, (1.0, 1.0, 0.0)),
    ],
)
def test_loss_axes_exact(loss, axes):
    state = squeeze(vacuum(), SqueezeSetting.from_db(6.0, 0.3))
    assert apply_loss(state, loss).axes == axes


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decibels_beyond_the_float_range_are_rejected_by_name():
    # 10**400 overflowed with an OverflowError that named nothing.
    with pytest.raises(ValueError, match=r"^dB value must be finite and >= -3082\.55 "):
        variance_from_db(4000.0)
    assert variance_from_db(DB_MAX) == 1.7976931348620926e308
    assert variance_from_db(-DB_MAX) == 5.562684646268695e-309


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


@settings(max_examples=200, deadline=None)
@given(log_r=st.floats(-10.0, 1.0))
@example(log_r=-8.0)  # r = 1e-8, where minor + major - 2 cancelled to 0.0
@example(log_r=-10.0)
@example(log_r=1.0)
def test_mean_photon_number_is_within_1_ulp_of_its_stored_axes(log_r):
    # The oracle is (minor + major - 2) / 4 at 50 digits, from the axes the
    # state stores: r from 1e-10 to 10.
    import mpmath

    state = squeeze(vacuum(), SqueezeSetting(10.0**log_r))
    with mpmath.workdps(50):
        exact = (mpmath.mpf(state.axes[0]) + mpmath.mpf(state.axes[1]) - 2) / 4
        error = abs(mpmath.mpf(mean_photon_number(state)) - exact)
        assert error <= mpmath.mpf(math.ulp(float(exact)))


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


def test_check_range_rejects_int_beyond_float_range():
    # math.isfinite cannot convert such an int; it must still read as infinite.
    with pytest.raises(ValueError, match=r"^x must be finite and <= 1$"):
        check_range("x", 10**400, le=1.0)
    with pytest.raises(ValueError, match=r"^x must be finite$"):
        check_range("x", -(10**400))


def test_si_constants_equal_scipy_bit_for_bit():
    from scipy import constants

    assert PLANCK == constants.h
    assert LIGHT_SPEED == constants.c
    assert HBAR == constants.hbar


def _ulps(actual: float, expected: float) -> float:
    """Distance of ``actual`` from ``expected`` in units of the latter's ulp."""
    return abs(actual - expected) / math.ulp(expected)


def _product_error(state) -> float:
    """Exact ``minor * major - 1`` of the stored floats, in units of eps."""
    minor, major, _ = state.axes
    return float(abs(Fraction(minor) * Fraction(major) - 1) / Fraction(EPS))


@pytest.mark.parametrize(
    "db, theta",
    [(60.0, 0.3), (80.0, 0.3), (100.0, 0.3), (160.0, 0.3), (160.0, 0.7), (160.0, 1.2)],
)
def test_strong_tilted_squeezing_is_exact(db, theta):
    # A Cartesian covariance rounded these states to sub-Heisenberg or
    # indefinite matrices, and 160 dB at 0.3 rad to one reading -6.02 dB.
    setting = SqueezeSetting.from_db(db, theta)
    state = squeeze(vacuum(), setting)
    variance = quadrature_variance(state, theta)
    assert _ulps(variance, math.exp(-2.0 * setting.r)) <= 2
    # r = db ln(10) / 20 carries about 2 ulp of its own rounding, which
    # exp(-2 r) turns into about 4 r ulp of relative error.
    target = 10.0 ** (-db / 10.0)
    assert abs(variance / target - 1.0) <= (4.0 * setting.r + 4.0) * EPS
    assert _product_error(state) <= 4


def test_strong_squeezing_survives_rotation_and_loss():
    state = squeeze(vacuum(), SqueezeSetting.from_db(60.0, 0.7))
    lossy = apply_loss(rotate(state, 0.4), 0.1)
    minor, major, theta = state.axes
    assert _product_error(state) <= 4
    assert lossy.axes == (0.9 * minor + 0.1, 0.9 * major + 0.1, 0.7 + 0.4)
    assert _ulps(quadrature_variance(lossy, 0.7 + 0.4), 0.9e-6 + 0.1) <= 2


def test_squeeze_overflow_still_raises():
    with pytest.raises(ValueError, match="finite"):
        squeeze(vacuum(), SqueezeSetting(400.0))


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_largest_representable_squeeze_builds(theta):
    # r = 300, about 2,606 dB: exp(-600) and exp(600) are still finite.
    state = squeeze(vacuum(), SqueezeSetting(300.0, theta))
    assert state.axes == (
        np.exp(-300.0) * np.exp(-300.0),
        np.exp(300.0) * np.exp(300.0),
        theta,
    )
    assert quadrature_variance(state, theta) == state.axes[0]


# The strongest squeeze a float represents: exp(2 r) is the largest float at
# r = ln(max float) / 2, and from_db reaches it at 10 log10(max float) dB.
R_MAX = 354.891356446692
DB_MAX = 3082.547155599167


@pytest.mark.parametrize(
    "setting",
    [SqueezeSetting(R_MAX), SqueezeSetting.from_db(DB_MAX), SqueezeSetting.from_db(3082.5)],
    ids=["r-max", "db-max", "3082.5-db"],
)
def test_the_strongest_representable_squeeze_builds(setting):
    minor, major, _ = squeeze(vacuum(), setting).axes
    assert 0.0 < minor and math.isfinite(major)


def test_a_squeeze_beyond_the_float_range_is_rejected_by_name():
    # One ulp beyond either bound, squeeze's exp(2 r) overflowed, and a run
    # failed naming the state covariance or mean instead of the squeeze.
    with pytest.raises(ValueError) as r_error:
        SqueezeSetting(math.nextafter(R_MAX, math.inf))
    assert str(r_error.value) == "squeeze parameter r must be finite and >= 0 and <= 354.891"
    with pytest.raises(ValueError) as db_error:
        SqueezeSetting.from_db(math.nextafter(DB_MAX, math.inf))
    assert str(db_error.value) == "squeeze_db must be finite and >= 0 and <= 3082.55"


@pytest.mark.parametrize(
    "cov, message",
    [
        ([[1.0, 2.0], [2.0, 1.0]], "positive-definite"),
        ([[-1.0, 0.0], [0.0, -2.0]], "positive-definite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
        ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
    ],
)
def test_constructor_rejects_indefinite_and_non_finite_cov(cov, message):
    with pytest.raises(ValueError, match=message):
        GaussianState(np.zeros(2), cov)


def test_constructor_decomposes_the_covariance():
    assert GaussianState(np.zeros(2), np.diag([2.0, 0.5])).axes == (
        0.5,
        2.0,
        0.5 * np.pi,
    )
    state = squeeze(vacuum(), SqueezeSetting(1.0, 2.5))
    rebuilt = GaussianState(state.mean, state.cov)
    # det(cov) of the Cartesian entries cancels by about trace(cov)**2 / det.
    np.testing.assert_allclose(rebuilt.axes, state.axes, rtol=64 * EPS)


def test_isotropic_states_store_zero_angle():
    squeezed = squeeze(vacuum(), SqueezeSetting(1.0, 0.4))
    assert rotate(vacuum(), 0.3).axes == (1.0, 1.0, 0.0)
    assert apply_loss(squeezed, 1.0).axes == (1.0, 1.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(first=SQUEEZES, second=SQUEEZES, angle=ANGLES)
def test_pure_states_keep_unit_determinant(first, second, angle):
    # The second squeeze meets a tilted state: one closed-form eigen step.
    state = squeeze(rotate(squeeze(vacuum(), first), angle), second)
    assert _product_error(state) <= 8


@settings(max_examples=300, deadline=None)
@given(setting=SQUEEZES, angle=ANGLES)
def test_minor_variance_is_exp_minus_2r(setting, angle):
    state = rotate(squeeze(vacuum(), setting), angle)
    assert _ulps(state.axes[0], math.exp(-2.0 * setting.r)) <= 2


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.0, R_100DB), second=SQUEEZES, loss=LOSSES)
def test_tilted_squeeze_matches_high_precision_eigenvalues(r, second, loss):
    import mpmath

    # The first state lies on the amplitude axis, so the squeeze-frame
    # offset is exactly -second.theta and the oracle sees the same input.
    state = apply_loss(squeeze(vacuum(), SqueezeSetting(r)), loss)
    minor, major, _ = squeeze(state, second).axes
    with mpmath.workdps(60):
        c, s = mpmath.cos(second.theta), mpmath.sin(second.theta)
        rot = mpmath.matrix([[c, -s], [s, c]])
        mat = rot * mpmath.diag([mpmath.exp(-second.r), mpmath.exp(second.r)]) * rot.T
        cov = mat * mpmath.diag(state.axes[:2]) * mat.T
        half_trace = (cov[0, 0] + cov[1, 1]) / 2
        radius = mpmath.sqrt(((cov[0, 0] - cov[1, 1]) / 2) ** 2 + cov[0, 1] ** 2)
        exact_major = half_trace + radius
        # A squeeze keeps the determinant, which avoids the cancellation in
        # half_trace - radius.
        exact_minor = mpmath.mpf(state.axes[0]) * state.axes[1] / exact_major
        assert abs(minor / exact_minor - 1) <= 4 * EPS
        assert abs(major / exact_major - 1) <= 4 * EPS


@settings(max_examples=300, deadline=None)
@given(setting=SQUEEZES, angle=ANGLES, first=LOSSES, second=LOSSES)
def test_loss_composes_on_the_axes(setting, angle, first, second):
    state = rotate(squeeze(vacuum(), setting), angle)
    once = apply_loss(state, 1.0 - (1.0 - first) * (1.0 - second))
    twice = apply_loss(apply_loss(state, first), second)
    # 1 - loss and the loss itself each round by up to an ulp of 1, an
    # absolute error that the variance v it multiplies scales up.
    for a, b, v in zip(once.axes[:2], twice.axes[:2], state.axes[:2]):
        assert abs(a - b) <= 4 * EPS * (v + 1.0)
    if once.axes[0] < once.axes[1] and twice.axes[0] < twice.axes[1]:
        assert once.axes[2] == twice.axes[2] == state.axes[2]


@settings(max_examples=300, deadline=None)
@given(
    setting=SQUEEZES,
    angle=ANGLES,
    alpha=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_half_turn_keeps_axes_and_negates_mean(setting, angle, alpha):
    state = rotate(squeeze(coherent(*alpha), setting), angle)
    turned = rotate(state, np.pi)
    assert turned.axes == state.axes
    # sin(pi) is 1.2e-16, not 0, so each component picks up that much of
    # the other.
    slack = 2 * EPS * np.abs(state.mean).max()
    np.testing.assert_allclose(turned.mean, -state.mean, rtol=0, atol=slack)


@settings(max_examples=300, deadline=None)
@given(theta=ANGLES)
def test_15_db_is_exact_at_every_angle(theta):
    # Vahlbruch et al., PRL 117, 110801 (2016).
    setting = SqueezeSetting.from_db(15.0, theta)
    state = squeeze(vacuum(), setting)
    for angle, sign in ((theta, -1.0), (theta + 0.5 * np.pi, 1.0)):
        variance = quadrature_variance(state, angle)
        assert _ulps(variance, math.exp(sign * 2.0 * setting.r)) <= 2
        # The rounding of r itself, as in test_strong_tilted_squeezing_is_exact.
        target = 10.0 ** (sign * 1.5)
        assert abs(variance / target - 1.0) <= (4.0 * setting.r + 4.0) * EPS
    assert _product_error(state) <= 4
