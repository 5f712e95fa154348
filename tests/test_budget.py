"""Unit tests for the interferometer quantum noise budget."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzlab.budget import (
    BudgetCurve,
    FilterCavityParams,
    IfoConfig,
    crossover_frequency,
    filter_cavity_angle,
    kappa,
    quantum_noise_budget,
    snr_equivalent_power_gain,
    standard_quantum_limit,
)
from sqzlab.gaussian import SqueezeSetting, apply_loss, squeeze, vacuum

R_10DB = np.log(10.0) / 2.0
FREQS = np.geomspace(1.0, 1000.0, 61)


def _config(**overrides):
    base = dict(
        arm_power=1.0e6,
        mirror_mass=40.0,
        arm_length=4000.0,
        wavelength=1.064e-6,
    )
    base.update(overrides)
    return IfoConfig(**base)


def test_crossover_frequency_frozen():
    assert crossover_frequency(_config()) == pytest.approx(
        9.989503380970636, rel=1e-12
    )


def test_kappa_crosses_unity_at_crossover():
    config = _config()
    f_star = crossover_frequency(config)
    assert kappa(config, f_star) == pytest.approx(1.0, rel=1e-12)
    assert kappa(config, f_star / 2) == pytest.approx(4.0, rel=1e-12)
    assert kappa(config, f_star * 10) == pytest.approx(0.01, rel=1e-12)


def test_kappa_scalar_and_array_agree():
    config = _config()
    array = kappa(config, FREQS)
    assert array.shape == FREQS.shape
    assert array[0] == pytest.approx(kappa(config, float(FREQS[0])), rel=1e-14)


# (2 pi f)**2 overflows at f = 1e200: as a Python float it raised
# OverflowError, and as an array it warned before reading inf.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("envelope", [kappa, standard_quantum_limit])
def test_an_overflowing_omega_squared_gives_the_limit_unwarned(envelope):
    config = _config()
    assert envelope(config, 1e200) == 0.0
    far = envelope(config, np.array([1.0, 1e200]))
    assert far[0] == envelope(config, 1.0) > 0.0 and far[1] == 0.0


def test_kappa_scales_with_power_and_mass():
    config = _config()
    doubled = _config(arm_power=2.0e6)
    heavier = _config(mirror_mass=80.0)
    assert kappa(doubled, 100.0) == pytest.approx(2 * kappa(config, 100.0))
    assert kappa(heavier, 100.0) == pytest.approx(0.5 * kappa(config, 100.0))


def test_sql_falls_as_inverse_square():
    config = _config()
    assert standard_quantum_limit(config, 20.0) == pytest.approx(
        standard_quantum_limit(config, 10.0) / 4.0, rel=1e-12
    )


def test_sql_scale_is_linear():
    scaled = _config(sql_scale=2.5)
    assert standard_quantum_limit(scaled, 10.0) == pytest.approx(
        2.5 * standard_quantum_limit(_config(), 10.0), rel=1e-12
    )


def test_coherent_total_touches_sql_at_crossover():
    config = _config()
    f_star = crossover_frequency(config)
    curve = quantum_noise_budget(config, [f_star])
    assert curve.total[0] == pytest.approx(curve.sql[0], rel=1e-9)


def test_coherent_components_sum_to_total():
    curve = quantum_noise_budget(_config(), FREQS)
    np.testing.assert_allclose(curve.shot + curve.rpn, curve.total, rtol=1e-12)


def test_shot_noise_squeezing_scales_terms():
    config = _config(injected_squeeze=SqueezeSetting(R_10DB, np.pi / 2))
    plain = quantum_noise_budget(_config(), FREQS)
    squeezed = quantum_noise_budget(config, FREQS)
    np.testing.assert_allclose(squeezed.shot, 0.1 * plain.shot, rtol=1e-9)
    np.testing.assert_allclose(squeezed.rpn, 10.0 * plain.rpn, rtol=1e-9)
    np.testing.assert_allclose(squeezed.sql, plain.sql, rtol=1e-12)


def test_matched_rotation_scales_total_uniformly():
    config = _config(
        injected_squeeze=SqueezeSetting(R_10DB, 0.0), matched_rotation=True
    )
    plain = quantum_noise_budget(_config(), FREQS)
    matched = quantum_noise_budget(config, FREQS)
    np.testing.assert_allclose(matched.total, 0.1 * plain.total, rtol=1e-9)


# Up to 2,000 dB the matched total, about 1e-200 of the vacuum's, stays a
# normal float; the few-ulp comparison needs that.
@settings(max_examples=100, deadline=None)
@given(
    squeeze_db=st.floats(0.0, 2000.0),
    angles=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    injection_loss=st.floats(0.0, 0.5),
    detection_efficiency=st.floats(0.5, 1.0),
)
@example(160.0, (np.pi / 6, np.pi / 2), 0.0, 1.0)
@example(300.0, (np.pi / 6, np.pi / 2), 0.0, 1.0)
def test_matched_total_is_the_detected_minor_variance_at_any_angle(
    squeeze_db, angles, injection_loss, detection_efficiency
):
    def matched_total(angle):
        config = _config(
            injected_squeeze=SqueezeSetting.from_db(squeeze_db, angle),
            matched_rotation=True,
            injection_loss=injection_loss,
            detection_efficiency=detection_efficiency,
        )
        return quantum_noise_budget(config, FREQS).total

    injected = squeeze(vacuum(), SqueezeSetting.from_db(squeeze_db))
    detected = apply_loss(apply_loss(injected, injection_loss), 1 - detection_efficiency)
    expected = detected.axes[0] * quantum_noise_budget(_config(), FREQS).total
    first, second = map(matched_total, angles)
    ulps = 4 * np.finfo(float).eps
    np.testing.assert_allclose(first, second, rtol=ulps, atol=0.0)
    np.testing.assert_allclose(first, expected, rtol=ulps, atol=0.0)


def test_injection_loss_limits_matched_gain():
    config = _config(
        injected_squeeze=SqueezeSetting(R_10DB, 0.0),
        matched_rotation=True,
        injection_loss=0.1,
    )
    plain = quantum_noise_budget(_config(), FREQS)
    matched = quantum_noise_budget(config, FREQS)
    # 0.9 * 0.1 + 0.1 vacuum = 0.19 of the coherent level
    np.testing.assert_allclose(matched.total, 0.19 * plain.total, rtol=1e-9)


def test_detection_efficiency_mixes_vacuum():
    config = _config(
        injected_squeeze=SqueezeSetting(R_10DB, np.pi / 2),
        detection_efficiency=0.9,
    )
    plain = quantum_noise_budget(_config(), FREQS)
    curve = quantum_noise_budget(config, FREQS)
    np.testing.assert_allclose(curve.shot, (0.9 * 0.1 + 0.1) * plain.shot, rtol=1e-9)


def test_filter_cavity_angle_limits():
    cavity = FilterCavityParams(half_linewidth=10.0, detuning=10.0)
    low = filter_cavity_angle(cavity, 1e-6)
    assert low == pytest.approx(2 * np.arctan(1.0), rel=1e-3)
    high = filter_cavity_angle(cavity, 1e6)
    # the two arctan branches cancel far above the linewidth
    assert high == pytest.approx(0.0, abs=1e-3)


def test_filter_cavity_improves_both_ends():
    # cavity tuned near the crossover rotates the ellipse toward the
    # readout at low frequency; a fixed angle blows up there instead
    f_star = crossover_frequency(_config())
    cavity = FilterCavityParams(half_linewidth=f_star, detuning=f_star)
    config = _config(
        injected_squeeze=SqueezeSetting(R_10DB, np.pi / 2), filter_cavity=cavity
    )
    fixed = _config(injected_squeeze=SqueezeSetting(R_10DB, np.pi / 2))
    plain = quantum_noise_budget(_config(), FREQS)
    with_cavity = quantum_noise_budget(config, FREQS)
    without = quantum_noise_budget(fixed, FREQS)
    high = FREQS >= 10 * f_star
    low = FREQS <= 2.0
    assert low.any() and high.any()
    # high-frequency improvement survives the cavity
    assert np.all(with_cavity.total[high] < plain.total[high])
    # low-frequency blow-up of the fixed angle is reduced
    assert np.all(with_cavity.total[low] < without.total[low])


# Interferometers over many decades of arm power and mirror mass, so that
# kappa = 1 falls anywhere from below 1 Hz to above 1 kHz.
ARM_POWERS = st.floats(1.0, 1e8)
MIRROR_MASSES = st.floats(1e-3, 1e3)
ULPS = 4 * np.finfo(float).eps


def _grid(config):
    """1 Hz to 1 kHz, and the crossover frequency times 1e-2 to 1e2."""
    f_sql = crossover_frequency(config)
    return np.concatenate((FREQS, f_sql * np.geomspace(1e-2, 1e2, 41)))


@settings(max_examples=50, deadline=None)
@given(
    arm_power=ARM_POWERS,
    mirror_mass=MIRROR_MASSES,
    squeeze_db=st.floats(0.0, 60.0),
    injection_loss=st.floats(0.0, 0.5),
    detection_efficiency=st.floats(0.5, 1.0),
)
def test_one_cavity_at_the_crossover_over_root_two_matches_the_free_mass(
    arm_power, mirror_mass, squeeze_db, injection_loss, detection_efficiency
):
    # gamma = detuning = f_SQL / sqrt(2) rotates by arctan(kappa) at every f.
    def total(**rotation):
        config = _config(
            arm_power=arm_power,
            mirror_mass=mirror_mass,
            injected_squeeze=SqueezeSetting.from_db(squeeze_db, np.pi / 2),
            injection_loss=injection_loss,
            detection_efficiency=detection_efficiency,
            **rotation,
        )
        return quantum_noise_budget(config, _grid(config)).total

    f_sql = crossover_frequency(_config(arm_power=arm_power, mirror_mass=mirror_mass))
    gamma = f_sql / np.sqrt(2)
    cavity = FilterCavityParams(half_linewidth=gamma, detuning=gamma)
    np.testing.assert_allclose(
        total(filter_cavity=cavity), total(matched_rotation=True), rtol=ULPS, atol=0.0
    )


ROTATIONS = st.one_of(
    st.just({}),
    st.just({"matched_rotation": True}),
    st.builds(
        lambda gamma, detuning: {"filter_cavity": FilterCavityParams(gamma, detuning)},
        st.floats(0.1, 1e3),
        st.floats(-1e3, 1e3),
    ),
)


@settings(max_examples=50, deadline=None)
@given(
    arm_power=ARM_POWERS,
    mirror_mass=MIRROR_MASSES,
    squeeze_db=st.floats(0.0, 100.0),
    angle=st.floats(-10.0, 10.0),
    injection_loss=st.floats(0.0, 0.9),
    detection_efficiency=st.floats(0.1, 1.0),
    rotation=ROTATIONS,
)
def test_shot_times_rpn_is_at_least_the_quarter_sql_squared(
    arm_power,
    mirror_mass,
    squeeze_db,
    angle,
    injection_loss,
    detection_efficiency,
    rotation,
):
    # shot * rpn = (sql/2)^2 V(phi) V(phi + pi/2), and V(phi) V(phi + pi/2)
    # >= det >= 1 for the detected state.
    config = _config(
        arm_power=arm_power,
        mirror_mass=mirror_mass,
        injected_squeeze=SqueezeSetting.from_db(squeeze_db, angle),
        injection_loss=injection_loss,
        detection_efficiency=detection_efficiency,
        **rotation,
    )
    curve = quantum_noise_budget(config, _grid(config))
    assert np.all(curve.shot * curve.rpn >= (0.5 * curve.sql) ** 2 * (1 - ULPS))


@settings(max_examples=50, deadline=None)
@given(
    arm_power=ARM_POWERS,
    mirror_mass=MIRROR_MASSES,
    squeeze_db=st.floats(0.0, 30.0),
    quarter_turns=st.integers(-4, 4),
    injection_loss=st.floats(0.0, 0.9),
    detection_efficiency=st.floats(0.1, 1.0),
)
def test_axis_aligned_components_sum_to_the_total(
    arm_power,
    mirror_mass,
    squeeze_db,
    quarter_turns,
    injection_loss,
    detection_efficiency,
):
    config = _config(
        arm_power=arm_power,
        mirror_mass=mirror_mass,
        injected_squeeze=SqueezeSetting.from_db(squeeze_db, quarter_turns * np.pi / 2),
        injection_loss=injection_loss,
        detection_efficiency=detection_efficiency,
    )
    curve = quantum_noise_budget(config, _grid(config))
    # As in test_coherent_components_sum_to_total: the readout angle
    # pi/2 + arctan(kappa) is rounded to an ulp of pi/2.
    np.testing.assert_allclose(curve.shot + curve.rpn, curve.total, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    arm_power=ARM_POWERS,
    mirror_mass=MIRROR_MASSES,
    scale=st.floats(1e-3, 1e3),
    frequency=st.floats(0.1, 1e4),
)
def test_kappa_depends_on_arm_power_over_mirror_mass(
    arm_power, mirror_mass, scale, frequency
):
    config = _config(arm_power=arm_power, mirror_mass=mirror_mass)
    scaled = _config(arm_power=arm_power * scale, mirror_mass=mirror_mass * scale)
    assert kappa(scaled, frequency) == pytest.approx(kappa(config, frequency), rel=ULPS)


@settings(max_examples=50, deadline=None)
@given(
    arm_power=ARM_POWERS,
    mirror_mass=MIRROR_MASSES,
    arm_length=st.floats(1.0, 1e5),
    wavelength=st.floats(1e-7, 1e-5),
    detection_efficiency=st.floats(0.1, 1.0),
)
@example(1.0e6, 40.0, 4000.0, 1.064e-6, 1.0)
def test_coherent_total_never_beats_sql(
    arm_power, mirror_mass, arm_length, wavelength, detection_efficiency
):
    # (1/kappa + kappa) >= 2 with vacuum at the dark port (Caves, PRD 23,
    # 1693 (1981)).
    config = _config(
        arm_power=arm_power,
        mirror_mass=mirror_mass,
        arm_length=arm_length,
        wavelength=wavelength,
        detection_efficiency=detection_efficiency,
    )
    curve = quantum_noise_budget(config, _grid(config))
    assert np.all(curve.total >= curve.sql * (1 - ULPS))


def test_config_rejects_cavity_with_matched_rotation():
    cavity = FilterCavityParams(half_linewidth=10.0, detuning=-10.0)
    with pytest.raises(ValueError):
        _config(filter_cavity=cavity, matched_rotation=True)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(arm_power=0.0)
    with pytest.raises(ValueError):
        _config(detection_efficiency=0.0)
    with pytest.raises(ValueError):
        _config(injection_loss=1.0)
    with pytest.raises(ValueError, match=r"arm_length\*\*2 must be finite"):
        standard_quantum_limit(_config(arm_length=1e300), 100.0)
    with pytest.raises(ValueError):
        FilterCavityParams(half_linewidth=0.0, detuning=1.0)


def test_budget_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        quantum_noise_budget(_config(), [])
    with pytest.raises(ValueError):
        quantum_noise_budget(_config(), [0.0, 10.0])


def test_budget_curve_validation():
    ones = np.ones(3)
    with pytest.raises(ValueError):
        BudgetCurve(ones, ones, ones, -ones, ones)
    with pytest.raises(ValueError):
        BudgetCurve(ones, ones[:2], ones, ones, ones)


def test_snr_equivalent_power_gain_frozen():
    assert snr_equivalent_power_gain(3.0103) == pytest.approx(
        2.0000000199681045, abs=1e-12
    )
    assert snr_equivalent_power_gain(10.0) == pytest.approx(10.0, rel=1e-12)
    assert snr_equivalent_power_gain(0.0) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("improvement_db", [4000.0, -4000.0])
def test_snr_gain_beyond_the_float_range_is_rejected_by_name(improvement_db):
    # 4000 dB raised OverflowError; -4000 dB returned a power gain of 0.
    with pytest.raises(ValueError, match=r"^improvement_db must be finite and >= -3082"):
        snr_equivalent_power_gain(improvement_db)
    assert snr_equivalent_power_gain(3082.547155599167) == 1.7976931348620926e308


@pytest.mark.parametrize(
    "improvement_db, expected",
    [(-10.0, 0.1), (0.0, 1.0), (3.0, 1.9952623149688795), (10.0, 10.0)],
)
def test_snr_equivalent_power_gain_exact(improvement_db, expected):
    assert snr_equivalent_power_gain(improvement_db) == expected


@settings(max_examples=50, deadline=None)
@given(
    arm_power=ARM_POWERS,
    mirror_mass=MIRROR_MASSES,
    arm_length=st.floats(1.0, 1e5),
    wavelength=st.floats(1e-7, 1e-5),
    sql_scale=st.floats(1e-3, 1e3),
)
def test_the_budget_and_the_crossover_use_the_public_envelopes_bit_for_bit(
    arm_power, mirror_mass, arm_length, wavelength, sql_scale
):
    config = _config(
        arm_power=arm_power,
        mirror_mass=mirror_mass,
        arm_length=arm_length,
        wavelength=wavelength,
        sql_scale=sql_scale,
    )
    f = _grid(config)
    sql = standard_quantum_limit(config, f)
    assert quantum_noise_budget(config, f).sql.tobytes() == sql.tobytes()
    # kappa falls as 1 / Omega^2, so it is 1 at Omega = sqrt(kappa(Omega = 1)),
    # and f = 1 / (2 pi) puts Omega at exactly 1.0.
    one_rad_per_s = 1 / (2 * np.pi)
    assert 2.0 * np.pi * one_rad_per_s == 1.0
    root = np.sqrt(kappa(config, one_rad_per_s))
    assert crossover_frequency(config) == float(root / (2 * np.pi))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_crossover_equals_the_root_of_kappa_wherever_kappa_is_a_normal_float():
    # The crossover divides and roots the terms of kappa by mantissa and
    # exponent; scaling by a power of two commutes with a correctly rounded
    # quotient and root, so it is today's sqrt(kappa(1 rad/s)) / (2 pi).
    rng = np.random.default_rng(19)
    one_rad_per_s = 1 / (2 * np.pi)
    checked = 0
    for arm_power, mirror_mass, wavelength in (10.0 ** rng.uniform(-300, 300, (2000, 3))).tolist():
        config = _config(arm_power=arm_power, mirror_mass=mirror_mass, wavelength=wavelength)
        at_one = kappa(config, one_rad_per_s)
        if np.finfo(float).tiny <= at_one < np.inf:
            root = np.sqrt(at_one) / (2 * np.pi)
            assert crossover_frequency(config) == float(root)
            checked += 1
    assert checked > 1000


def test_the_crossover_is_finite_where_kappas_numerator_overflows():
    import mpmath

    # 8 arm_power (2 pi c / wavelength) leaves the float range; kappa at
    # 1 rad/s, about 3.9e305, and its root do not.
    config = IfoConfig(1e308, 40.0, 4000.0, 1.064e-6)
    crossover = crossover_frequency(config)
    assert kappa(config, 1 / (2 * np.pi)) == pytest.approx(3.94e305, rel=1e-3)
    with mpmath.workdps(50):
        c, two_pi = mpmath.mpf(299792458.0), 2 * mpmath.pi
        at_one = 8 * mpmath.mpf(1e308) * two_pi * c / mpmath.mpf(1.064e-6)
        exact = mpmath.sqrt(at_one / (40 * c**2)) / two_pi
        assert abs(mpmath.mpf(crossover) - exact) <= 2 * np.spacing(crossover)
