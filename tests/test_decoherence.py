"""Unit tests for loss and phase-jitter decoherence and the sweep fit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzlab.decoherence import (
    LossBudget,
    PhaseNoise,
    SqueezeMeasurement,
    apply_phase_noise,
    effective_improvement,
    fit_loss_phase,
    forward_model,
    loss_for_improvement,
    total_efficiency,
    visibility_efficiency,
)

SWEEP_LOSSES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]


def _synthesize(gain, intrinsic_loss, sigma_deg):
    noise = PhaseNoise.from_degrees(sigma_deg)
    measurements = []
    for added in SWEEP_LOSSES:
        s_db, a_db = forward_model(gain, intrinsic_loss, added, noise)
        measurements.append(SqueezeMeasurement(added, s_db, a_db))
    return measurements


def test_total_efficiency_frozen():
    budget = LossBudget(
        (
            ("escape", 0.995),
            ("propagation", 0.99**2),
            ("photodiode", 0.98),
        )
    )
    assert total_efficiency(budget) == pytest.approx(0.95569551, abs=1e-10)
    assert total_efficiency(budget) == 0.95569551
    assert total_efficiency(LossBudget(())) == 1.0


def test_loss_budget_rejects_bad_entry():
    with pytest.raises(ValueError):
        LossBudget((("bad", 1.2),))


def test_visibility_efficiency_square():
    assert visibility_efficiency(0.99) == pytest.approx(0.9801)
    with pytest.raises(ValueError):
        visibility_efficiency(0.0)


def test_phase_noise_degree_round_trip():
    noise = PhaseNoise.from_degrees(1.2)
    assert noise.degrees == pytest.approx(1.2, abs=1e-12)
    with pytest.raises(ValueError):
        PhaseNoise(-0.1)
    # The square of 1e300 degrees in radians overflows a float.
    with pytest.raises(ValueError, match=r"phase-noise sigma\*\*2 must be finite"):
        forward_model(63.0, 0.086, 0.1, PhaseNoise.from_degrees(1e300))


def test_forward_model_scalar_and_array_agree():
    noise = PhaseNoise.from_degrees(2.0)
    added = np.linspace(0.0, 1.0, 11)
    s_db, a_db = forward_model(63.0, 0.086, added, noise, 3.0e5, 1.0e6)
    pairs = [forward_model(63.0, 0.086, float(a), noise, 3.0e5, 1.0e6) for a in added]
    assert s_db.shape == added.shape
    assert np.array_equal(s_db, [s for s, _ in pairs])
    assert np.array_equal(a_db, [a for _, a in pairs])
    for pair in pairs:
        assert all(isinstance(value, float) for value in pair)


def test_forward_model_array_rejects_one_bad_loss():
    with pytest.raises(ValueError):
        forward_model(63.0, 0.086, [0.1, 1.2], PhaseNoise(0.0))


def test_apply_phase_noise_frozen():
    jittered, _ = apply_phase_noise(
        0.09013105506864583, 202.30939962024374, PhaseNoise.from_degrees(1.2)
    )
    assert jittered == pytest.approx(0.1787954538474961, abs=1e-11)
    assert 10 * np.log10(jittered) == pytest.approx(-7.476435280123987, abs=1e-9)


def test_apply_phase_noise_conserves_sum():
    noise = PhaseNoise.from_degrees(3.0)
    v_s, v_a = apply_phase_noise(0.2, 50.0, noise)
    assert v_s + v_a == pytest.approx(50.2, abs=1e-12)
    assert v_s > 0.2
    assert v_a < 50.0


def test_apply_phase_noise_matches_monte_carlo():
    # E[V(delta)] over Gaussian jitter, estimated by direct sampling
    v_s, v_a = 0.09013105506864583, 202.30939962024374
    sigma = np.deg2rad(1.2)
    rng = np.random.default_rng(17)
    delta = rng.normal(0.0, sigma, size=1_000_000)
    sampled = (v_s * np.cos(delta) ** 2 + v_a * np.sin(delta) ** 2).mean()
    expected, _ = apply_phase_noise(v_s, v_a, PhaseNoise(sigma))
    assert sampled == pytest.approx(expected, abs=7e-4)


def test_zero_jitter_is_identity():
    assert apply_phase_noise(0.3, 5.0, PhaseNoise(0.0)) == (0.3, 5.0)


def test_forward_model_frozen_points():
    s_db, a_db = forward_model(63.0, 0.086, 0.0, PhaseNoise(0.0))
    assert s_db == pytest.approx(-10.451255450789896, abs=1e-9)
    assert a_db == pytest.approx(23.06016061260026, abs=1e-9)
    s_db, a_db = forward_model(63.0, 0.056, 0.0, PhaseNoise.from_degrees(1.2))
    assert s_db == pytest.approx(-8.186102111041762, abs=1e-9)
    assert a_db == pytest.approx(23.197832274148936, abs=1e-9)


def test_forward_model_total_block_is_shot_noise():
    s_db, a_db = forward_model(63.0, 0.086, 1.0, PhaseNoise(0.0))
    assert s_db == pytest.approx(0.0, abs=1e-12)
    assert a_db == pytest.approx(0.0, abs=1e-12)


def test_fit_recovers_loss_and_jitter():
    fit = fit_loss_phase(_synthesize(63.0, 0.056, 1.2), 63.0)
    assert fit.converged
    assert fit.intrinsic_loss == pytest.approx(0.056, abs=1e-6)
    assert fit.phase_noise.degrees == pytest.approx(1.2, abs=1e-4)
    assert fit.residual < 1e-12


def test_fit_recovers_zero_jitter():
    fit = fit_loss_phase(_synthesize(63.0, 0.086, 0.0), 63.0)
    assert fit.converged
    assert fit.intrinsic_loss == pytest.approx(0.086, abs=1e-6)
    assert abs(fit.phase_noise.degrees) < 1e-3


def test_fixed_jitter_fit():
    fit = fit_loss_phase(
        _synthesize(63.0, 0.056, 1.2),
        63.0,
        fixed_phase_noise=PhaseNoise.from_degrees(1.2),
    )
    assert fit.converged
    assert fit.intrinsic_loss == pytest.approx(0.056, abs=1e-6)
    assert fit.phase_noise.degrees == pytest.approx(1.2)


def test_fit_needs_two_measurements():
    with pytest.raises(ValueError):
        fit_loss_phase(_synthesize(63.0, 0.086, 0.0)[:1], 63.0)


def test_measurement_sign_conventions():
    with pytest.raises(ValueError):
        SqueezeMeasurement(0.1, 2.0, 5.0)
    with pytest.raises(ValueError):
        SqueezeMeasurement(0.1, -3.0, -5.0)
    with pytest.raises(ValueError):
        SqueezeMeasurement(1.5, -3.0, 5.0)


def test_effective_improvement_frozen():
    assert effective_improvement(10.0, 0.3852) == pytest.approx(
        3.5000349253395857, abs=1e-12
    )
    assert effective_improvement(10.0, 0.385) == pytest.approx(
        3.501785367754348, abs=1e-12
    )


@pytest.mark.parametrize(
    "injected_db, loss, expected",
    [
        (0.0, 0.0, 0.0),
        (0.0, 0.25, 0.0),
        (0.0, 1.0, 0.0),
        (3.0, 0.0, 3.0000000000000004),
        (3.0, 0.25, 2.0350169216890914),
        (3.0, 1.0, 0.0),
        (10.0, 0.0, 10.0),
        (10.0, 0.25, 4.8811663902112565),
        (10.0, 1.0, 0.0),
    ],
)
def test_effective_improvement_exact(injected_db, loss, expected):
    assert effective_improvement(injected_db, loss) == expected


def test_effective_improvement_limits():
    assert effective_improvement(10.0, 0.0) == pytest.approx(10.0, abs=1e-12)
    assert effective_improvement(0.0, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_loss_for_improvement_frozen():
    assert loss_for_improvement(10.0, 6.0) == pytest.approx(
        0.16798738127884222, abs=1e-12
    )
    assert loss_for_improvement(10.0, 3.5) == pytest.approx(
        0.3852039912788479, abs=1e-12
    )


@pytest.mark.parametrize(
    "injected_db, effective_db, expected",
    [
        (3.0, 0.0, 1.0),
        (3.0, 1.5, 0.41450132132819056),
        (3.0, 3.0, 0.0),
        (10.0, 6.0, 0.16798738127884222),
    ],
)
def test_loss_for_improvement_exact(injected_db, effective_db, expected):
    assert loss_for_improvement(injected_db, effective_db) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_injected_squeeze_beyond_the_float_range_is_rejected_by_name():
    # 3300 dB rounded the variance to 0 and returned inf after numpy's
    # divide-by-zero warning.
    with pytest.raises(ValueError, match=r"^injected_db must be finite and >= 0 and <= 3082\.55$"):
        effective_improvement(3300.0, 0.0)
    assert effective_improvement(3082.547155599167, 0.0) == 3082.547155599167


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_injected_squeeze_too_small_to_resolve_is_rejected_by_name():
    # 10**(-1e-301) rounds to 1, and the inverse divided by zero.
    with pytest.raises(ValueError, match=r"^1 - variance_from_db\(-injected_db\) must be"):
        loss_for_improvement(1e-300, 0.0)


def test_improvement_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        injected = rng.uniform(1.0, 15.0)
        loss = rng.uniform(0.0, 0.9)
        effective = effective_improvement(injected, loss)
        assert loss_for_improvement(injected, effective) == pytest.approx(
            loss, abs=1e-10
        )


def test_improvement_validation():
    with pytest.raises(ValueError):
        effective_improvement(-1.0, 0.1)
    with pytest.raises(ValueError):
        loss_for_improvement(10.0, 11.0)


@settings(max_examples=60, deadline=None)
@given(
    gain=st.floats(20.0, 100.0),
    loss=st.floats(0.0, 0.2),
    jitter_deg=st.floats(0.0, 3.0),
)
# Jitters so small that 1 - w resolves them only in its expm1 form.
@example(gain=93.5, loss=0.0, jitter_deg=1e-5)
@example(gain=93.5, loss=1e-3, jitter_deg=1e-6)
def test_fit_recovers_exact_sweeps(gain, loss, jitter_deg):
    fit = fit_loss_phase(_synthesize(gain, loss, jitter_deg), gain)
    assert fit.converged
    assert fit.intrinsic_loss == pytest.approx(loss, abs=1e-9)
    assert fit.phase_noise.degrees == pytest.approx(jitter_deg, abs=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "gain, squeeze_db, antisqueeze_db",
    [(63.0, 0.0, 0.0), (1.0, 0.0, 0.0), (63.0, 0.0, 15.0)],
    ids=["all-0dB-gain-63", "all-0dB-gain-1", "0dB-15dB"],
)
def test_degenerate_sweeps_fit_finite(gain, squeeze_db, antisqueeze_db):
    # No loss and jitter of the model match these sweeps: the damped 2x2
    # system's determinant comes near zero, or at gain 1 no step is solved.
    sweep = [SqueezeMeasurement(a, squeeze_db, antisqueeze_db) for a in SWEEP_LOSSES]
    fit = fit_loss_phase(sweep, gain)
    assert fit.converged
    assert np.isfinite([fit.intrinsic_loss, fit.phase_noise.sigma, fit.residual]).all()


@settings(max_examples=20, deadline=None)
@given(loss=st.floats(0.0, 0.2), jitter_deg=st.floats(0.0, 3.0))
def test_fixed_jitter_fit_returns_the_given_phase_noise(loss, jitter_deg):
    noise = PhaseNoise.from_degrees(jitter_deg)
    fit = fit_loss_phase(_synthesize(63.0, loss, 1.0), 63.0, fixed_phase_noise=noise)
    assert fit.phase_noise is noise


def test_noisy_fit_is_a_constrained_minimum():
    # 0.05 dB of read noise on every reading of a seeded sweep.
    rng = np.random.default_rng(2024)
    s_db, a_db = forward_model(63.0, 0.086, SWEEP_LOSSES, PhaseNoise.from_degrees(1.0))
    s_db = s_db + rng.normal(0.0, 0.05, s_db.size)
    a_db = a_db + rng.normal(0.0, 0.05, a_db.size)
    measurements = [SqueezeMeasurement(*m) for m in zip(SWEEP_LOSSES, s_db, a_db)]
    fit = fit_loss_phase(measurements, 63.0)
    assert fit.converged

    def cost(loss, variance):
        noise = PhaseNoise(float(np.sqrt(variance)))
        model_s, model_a = forward_model(63.0, loss, SWEEP_LOSSES, noise)
        data = np.array([(m.squeeze_db, m.antisqueeze_db) for m in measurements])
        return np.sum((model_s - data[:, 0]) ** 2 + (model_a - data[:, 1]) ** 2)

    best = (fit.intrinsic_loss, fit.phase_noise.sigma**2)
    assert cost(*best) == pytest.approx(fit.residual, rel=1e-9)
    for axis in (0, 1):
        for shift in (-1e-6, 1e-6):
            moved = list(best)
            moved[axis] += shift
            if moved[axis] >= 0.0:
                assert cost(*moved) > cost(*best)
