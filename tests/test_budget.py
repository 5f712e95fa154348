"""Unit tests for the interferometer quantum noise budget."""

import numpy as np
import pytest

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
from sqzlab.gaussian import SqueezeSetting

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


def test_coherent_total_never_beats_sql():
    curve = quantum_noise_budget(_config(), FREQS)
    assert np.all(curve.total >= curve.sql * (1.0 - 1e-12))


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
    assert low == pytest.approx(np.arctan(1.0), rel=1e-3)
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
