"""Unit tests for photon counting, homodyne sampling, and the PSD."""

import hashlib
import math
import sys
import threading
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqzlab.detection as detection
from sqzlab.cli import EXPERIMENTS
from sqzlab.detection import (
    DetectorParams,
    LightSource,
    MeasurementWindowing,
    NoiseSpectrum,
    PhotonRecord,
    TimeSeries,
    add_signal_modulation,
    bhd_series,
    fano_factor,
    mean_photons_per_window,
    photon_flux,
    power_for_mean_photons,
    sample_photon_record,
    single_pd_series,
    welch_psd,
)
from sqzlab.gaussian import (
    SqueezeSetting,
    _Owned,
    apply_loss,
    quadrature_variance,
    squeeze,
    vacuum,
)
from test_cli_runs import DERIVED_FAILURES, _failing_config

R_10DB = np.log(10.0) / 2.0
WAVELENGTH = 1.064e-6
# power putting 1000 photons into a 0.1 ms window at 1064 nm
POWER_1000 = 1.8669603920572637e-12


def _source(power=POWER_1000):
    return LightSource(wavelength=WAVELENGTH, power=power, coherence_time=1e-2)


def _windowing(n_windows=20000):
    return MeasurementWindowing(1e-4, "rectangular", n_windows)


def test_power_for_mean_photons_frozen():
    assert power_for_mean_photons(1000.0, WAVELENGTH, 1e-4) == pytest.approx(
        POWER_1000, rel=1e-12
    )


def test_flux_round_trip():
    source = _source()
    assert photon_flux(source) * 1e-4 == pytest.approx(1000.0, rel=1e-12)
    assert mean_photons_per_window(source, _windowing()) == pytest.approx(
        1000.0, rel=1e-12
    )


def test_zero_power_source_counts_nothing():
    record = sample_photon_record(vacuum(), _source(power=0.0), _windowing(100), 1)
    assert record.counts.sum() == 0


def test_coherent_counts_are_poisson():
    record = sample_photon_record(vacuum(), _source(), _windowing(), seed=101)
    assert record.mean == pytest.approx(1000.0, rel=0.01)
    assert fano_factor(record) == pytest.approx(1.0, abs=0.03)


def test_squeezed_counts_are_sub_poisson():
    state = squeeze(vacuum(), SqueezeSetting(R_10DB))
    record = sample_photon_record(state, _source(), _windowing(), seed=102)
    assert record.mean == pytest.approx(1000.0, rel=0.01)
    assert fano_factor(record) == pytest.approx(0.1, abs=0.01)


def test_antisqueezed_counts_are_super_poisson():
    state = squeeze(vacuum(), SqueezeSetting(R_10DB, np.pi / 2))
    record = sample_photon_record(state, _source(), _windowing(), seed=103)
    assert fano_factor(record) == pytest.approx(10.0, rel=0.05)


def test_photon_record_reproducible():
    first = sample_photon_record(vacuum(), _source(), _windowing(5000), seed=7)
    second = sample_photon_record(vacuum(), _source(), _windowing(5000), seed=7)
    assert np.array_equal(first.counts, second.counts)
    third = sample_photon_record(vacuum(), _source(), _windowing(5000), seed=8)
    assert not np.array_equal(first.counts, third.counts)


def test_window_must_beat_coherence_time():
    with pytest.raises(ValueError):
        sample_photon_record(
            vacuum(),
            LightSource(WAVELENGTH, POWER_1000, coherence_time=1e-4),
            _windowing(100),
            seed=1,
        )


def test_dim_beam_rejects_gaussian_branch():
    state = squeeze(vacuum(), SqueezeSetting(R_10DB))
    with pytest.raises(ValueError):
        sample_photon_record(state, _source(power=POWER_1000 / 100), _windowing(100), 1)


def test_rounding_leaves_the_squeezed_fano_factor_unbiased():
    # rint adds 1/12 count**2 to each window (Sheppard 1898).  Drawn at the
    # full variance v n, these 20 seeds read a mean Fano factor of 1.084 v.
    state = squeeze(vacuum(), SqueezeSetting.from_db(20.0))
    v = quadrature_variance(state, 0.0)
    source = _source(power=POWER_1000 * 0.1005)  # 100.5 photons per window
    fanos = [
        fano_factor(sample_photon_record(state, source, _windowing(100_000), seed))
        for seed in range(20)
    ]
    standard_error = np.std(fanos, ddof=1) / np.sqrt(len(fanos))
    assert abs(np.mean(fanos) - v) < 3 * standard_error


@pytest.mark.parametrize(
    "db, angle, message",
    [
        # v n = 0.1, below the 1/12 that rounding to whole counts adds.
        (30.0, 0.0, "count variance per window of non-Poissonian light"),
        # Anti-squeezed, the count's standard deviation equals its mean, 100.
        (20.0, np.pi / 2, "non-Poissonian mean count in standard deviations"),
    ],
    ids=["variance-below-1", "mean-within-8-sd"],
)
def test_non_poissonian_light_outside_the_bright_beam_regime_is_rejected_by_name(
    db, angle, message
):
    state = squeeze(vacuum(), SqueezeSetting.from_db(db, angle))
    with pytest.raises(ValueError, match=f"^{message} must be finite and >= "):
        sample_photon_record(state, _source(power=POWER_1000 / 10), _windowing(100), 1)


@pytest.mark.parametrize("state", [vacuum(), squeeze(vacuum(), SqueezeSetting(R_10DB))])
def test_counts_beyond_int64_are_rejected_by_name(state):
    # 1 MW at 1064 nm puts 5.4e20 photons into a 0.1 ms window.
    with pytest.raises(ValueError, match="mean photons per window must be finite"):
        sample_photon_record(state, _source(power=1e6), _windowing(10), seed=1)


def test_fano_needs_two_windows():
    record = sample_photon_record(vacuum(), _source(), _windowing(1), seed=1)
    with pytest.raises(ValueError):
        fano_factor(record)


def test_windowing_validation():
    with pytest.raises(ValueError):
        MeasurementWindowing(1e-4, "triangular", 10)
    with pytest.raises(ValueError):
        MeasurementWindowing(0.0, "rectangular", 10)
    with pytest.raises(ValueError):
        MeasurementWindowing(1e-4, "rectangular", 0)


def test_single_pd_variance():
    detector = DetectorParams(quantum_efficiency=0.9, dark_noise_variance=0.05)
    state = squeeze(vacuum(), SqueezeSetting(R_10DB))
    series = single_pd_series(state, _source(), detector, 400_000, seed=21)
    # 0.9 * 0.1 + 0.1 vacuum + 0.05 dark
    assert series.samples.var() == pytest.approx(0.24, rel=0.02)
    assert series.samples.mean() == pytest.approx(0.0, abs=0.01)


# Pinned draws: 6 dB at 0.3 rad through efficiency 0.9 with dark noise and a
# visibility a single photodiode ignores, over an odd length; and vacuum.
@pytest.mark.parametrize(
    "db, detector, seed, digest",
    [
        (
            6.0,
            DetectorParams(0.9, 0.05, 0.7),
            5,
            "329e8c036d9ab3968ebf7c7fb9b9ec6a4357ce912981cd22c33cc25b704ab8a7",
        ),
        (
            0.0,
            DetectorParams(),
            6,
            "76e6d483564911216f796ad5090c732e89a11edc48de924ce3ca3348aaabf2a5",
        ),
    ],
    ids=["6db-lossy-dark", "vacuum"],
)
def test_single_pd_series_bytes_are_pinned(db, detector, seed, digest):
    state = squeeze(vacuum(), SqueezeSetting.from_db(db, 0.3))
    series = single_pd_series(state, _source(), detector, 4097, seed=seed)
    assert hashlib.sha256(series.samples.tobytes()).hexdigest() == digest


def test_single_pd_series_draws_without_default_rng(monkeypatch):
    # Every seeded draw comes from detection._rng, numpy's SFC64 generator.
    fail = "a seeded draw called numpy.random.default_rng"
    monkeypatch.setattr(np.random, "default_rng", lambda *_, **__: pytest.fail(fail))
    state = squeeze(vacuum(), SqueezeSetting.from_db(6.0, 0.3))
    series = single_pd_series(state, _source(), DetectorParams(), 4097, seed=5)
    assert series.samples.size == 4097


def test_single_pd_needs_bright_carrier():
    weak = LightSource(WAVELENGTH, 1e-22, 1e-2)
    with pytest.raises(ValueError):
        single_pd_series(vacuum(), weak, DetectorParams(), 100, seed=1)


def test_bhd_variance_frozen():
    # QE 0.995 and visibility 0.99 on 10 dB squeezing
    detector = DetectorParams(quantum_efficiency=0.995, visibility=0.99)
    state = squeeze(vacuum(), SqueezeSetting(R_10DB))
    series = bhd_series(state, 0.0, 0.005, detector, 2**20, seed=31)
    assert series.samples.var() == pytest.approx(0.12232045000000001, rel=0.01)


def test_bhd_lo_phase_selects_quadrature():
    state = squeeze(vacuum(), SqueezeSetting(R_10DB))
    detector = DetectorParams()
    anti = bhd_series(state, np.pi / 2, 0.005, detector, 200_000, seed=32)
    assert anti.samples.var() == pytest.approx(10.0, rel=0.02)
    mid = bhd_series(state, np.pi / 4, 0.005, detector, 200_000, seed=33)
    assert mid.samples.var() == pytest.approx(5.05, rel=0.02)


def test_bhd_reproducible():
    detector = DetectorParams()
    first = bhd_series(vacuum(), 0.0, 0.005, detector, 1000, seed=5)
    second = bhd_series(vacuum(), 0.0, 0.005, detector, 1000, seed=5)
    assert np.array_equal(first.samples, second.samples)


def test_balanced_lo_noise_cancels():
    detector = DetectorParams(balance_asymmetry=0.0)
    quiet = bhd_series(vacuum(), 0.0, 0.005, detector, 100_000, seed=41)
    noisy = bhd_series(
        vacuum(), 0.0, 0.005, detector, 100_000, seed=41, lo_noise_variance=100.0
    )
    assert np.array_equal(quiet.samples, noisy.samples)


def test_unbalanced_lo_noise_leaks():
    detector = DetectorParams(balance_asymmetry=0.25)
    noisy = bhd_series(
        vacuum(), 0.0, 0.005, detector, 400_000, seed=42, lo_noise_variance=4.0
    )
    # leak amplitude 2 * 0.25 * 2 = 1 adds unit variance on top of shot noise
    assert noisy.samples.var() == pytest.approx(2.0, rel=0.02)


# The anti-squeezed quadrature of 3082.5 dB, about 1.8e308, plus a leak or a
# dark noise of 1e308 leaves the float range: the one draw would be infinite.
# numpy scalars add without numpy's overflow warning too.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "detector, lo_noise",
    [
        (DetectorParams(balance_asymmetry=0.5), 1e308),
        (DetectorParams(balance_asymmetry=np.float64(0.5)), np.float64(1e308)),
        (DetectorParams(dark_noise_variance=np.float64(1e308)), 0.0),
    ],
    ids=["lo-leak", "numpy-lo-leak", "numpy-dark-noise"],
)
def test_a_homodyne_variance_beyond_the_float_range_fails_by_name(detector, lo_noise):
    state = squeeze(vacuum(), SqueezeSetting.from_db(3082.5))
    with pytest.raises(ValueError) as error:
        bhd_series(state, np.pi / 2, 0.005, detector, 16, 1, lo_noise_variance=lo_noise)
    assert str(error.value) == (
        "homodyne variance (quadrature at lo_phase + dark_noise_variance + "
        "(2 balance_asymmetry)**2 lo_noise_variance) must be finite"
    )


def test_bhd_rejects_bright_signal():
    with pytest.raises(ValueError):
        bhd_series(vacuum(), 0.0, 0.02, DetectorParams(), 100, seed=1)


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(quantum_efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorParams(visibility=0.0)
    with pytest.raises(ValueError):
        DetectorParams(balance_asymmetry=0.6)
    with pytest.raises(ValueError):
        DetectorParams(dark_noise_variance=-0.1)


def test_modulation_adds_on_bin_peak():
    # noiseless carrier: the peak must be exactly depth^2 * nperseg / 4
    fs, n, depth = 1024.0, 8192, 0.3
    series = TimeSeries(fs, np.zeros(n))
    series = add_signal_modulation(series, 128.0, depth)
    spectrum = welch_psd(series, 8.0)
    nperseg = 128
    peak_bin = int(np.argmin(np.abs(spectrum.frequencies - 128.0)))
    assert spectrum.psd[peak_bin] == pytest.approx(
        depth**2 * nperseg / 4, rel=1e-9
    )
    off = np.delete(spectrum.psd, peak_bin)
    assert np.all(off < 1e-18)


def test_modulation_validation():
    series = TimeSeries(100.0, np.zeros(64))
    for frequency in [50.0, 0.0]:
        message = "modulation frequency must be finite and > 0 and < 50$"
        with pytest.raises(ValueError, match=message):
            add_signal_modulation(series, frequency, 0.1)
    for depth in [np.nan, np.inf]:
        with pytest.raises(ValueError, match="modulation depth must be finite$"):
            add_signal_modulation(series, 25.0, depth)


def test_white_noise_psd_is_flat_at_one():
    rng = np.random.default_rng(55)
    series = TimeSeries(4096.0, rng.normal(size=2**20))
    spectrum = welch_psd(series, 32.0)
    assert spectrum.psd.mean() == pytest.approx(1.0, abs=0.01)
    assert spectrum.psd.max() < 1.3
    assert spectrum.psd.min() > 0.7


def test_psd_mean_tracks_variance():
    # Parseval consistency: mean over bins estimates the sample variance
    rng = np.random.default_rng(56)
    samples = rng.normal(0.0, np.sqrt(0.1), size=2**20)
    spectrum = welch_psd(TimeSeries(1.0, samples), 1.0 / 256)
    assert spectrum.psd.mean() == pytest.approx(samples.var(), rel=0.01)


def test_psd_matches_scipy_welch():
    from scipy import signal

    rng = np.random.default_rng(57)
    fs, nperseg = 2048.0, 256
    samples = rng.normal(size=2**16)
    spectrum = welch_psd(TimeSeries(fs, samples), fs / nperseg)
    freqs, pxx = signal.welch(
        samples,
        fs=fs,
        window="boxcar",
        nperseg=nperseg,
        noverlap=0,
        detrend=False,
    )
    # same estimator up to the one-sided density scaling of fs / 2
    interior = slice(1, (nperseg + 1) // 2)
    np.testing.assert_allclose(spectrum.frequencies, freqs[interior], rtol=1e-12)
    np.testing.assert_allclose(
        spectrum.psd, pxx[interior] * fs / 2.0, rtol=1e-10
    )


def test_psd_frequency_grid():
    spectrum = welch_psd(TimeSeries(1000.0, np.random.default_rng(1).normal(size=4000)), 100.0)
    assert spectrum.resolution_bandwidth == pytest.approx(100.0)
    np.testing.assert_allclose(spectrum.frequencies, [100.0, 200.0, 300.0, 400.0])


def test_psd_segment_bounds():
    series = TimeSeries(100.0, np.zeros(64) + 1.0)
    with pytest.raises(ValueError):
        welch_psd(series, 25.0)  # segments of 4 samples are too short
    with pytest.raises(ValueError):
        welch_psd(series, 0.5)  # segment longer than the series
    with pytest.raises(ValueError, match=r"samples per PSD segment .* must be finite"):
        welch_psd(series, 5e-324)  # 100 / 5e-324 overflows to inf


# Finite series whose |rFFT|**2 leaves the float range: at 3082.5 dB read at
# 30 degrees the largest sample is 2.7e154.  welch_psd checks its sums before
# the square, so numpy never warns.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "series",
    [
        lambda: bhd_series(
            squeeze(vacuum(), SqueezeSetting.from_db(3082.5, np.deg2rad(30.0))),
            lo_phase=0.0,
            signal_to_lo_power_ratio=0.005,
            detector=DetectorParams(),
            n_samples=65536,
            seed=1,
            sample_rate=65536.0,
        ),
        lambda: TimeSeries(65536.0, np.eye(1, 4096)[0] * 1e160),
    ],
    ids=["bhd-3082-db-at-30-deg", "one-spike"],
)
def test_a_psd_whose_summed_power_overflows_fails_by_name(series):
    with pytest.raises(ValueError) as error:
        welch_psd(series(), 16.0)
    assert str(error.value) == "PSD power summed over the segments must be finite"


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(0.0, np.zeros(8))
    with pytest.raises(ValueError):
        TimeSeries(1.0, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        TimeSeries(1.0, np.array([1.0, np.nan]))


def test_series_samples_read_only():
    series = TimeSeries(1.0, np.zeros(8))
    with pytest.raises(ValueError):
        series.samples[0] = 1.0


@pytest.mark.parametrize(
    "frequency, depth", [(8192.0, 0.5), (8192.0, 0.5 * np.sqrt(2.0)), (1234.5, -3.0)]
)
@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
# snr-equivalence's 2**20 samples, and an odd size beyond 2**18.
@example(size=2**20, seed=0)
@example(size=300001, seed=1)
def test_add_signal_modulation_is_the_written_sine_bit_for_bit(
    frequency, depth, size, seed
):
    fs = 65536.0
    series = TimeSeries(fs, np.random.default_rng(seed).normal(size=size), lo_phase=0.3)
    modulated = add_signal_modulation(series, frequency, depth)
    cycles = (np.arange(series.samples.size) / fs * frequency) % 1.0
    expected = series.samples + depth * np.sin(2.0 * np.pi * cycles)
    assert modulated.samples.tobytes() == expected.tobytes()
    assert (modulated.sample_rate, modulated.lo_phase) == (fs, 0.3)


def test_records_copy_caller_arrays_and_hand_out_read_only_ones():
    samples = np.arange(8.0)
    counts = np.array([3, 4, 5])
    series = TimeSeries(1.0, samples)
    record = PhotonRecord(_windowing(3), counts, 4.0, seed=0)
    samples[0] = counts[0] = 99
    assert series.samples[0] == 0.0 and record.counts[0] == 3
    detector = DetectorParams()
    handed_out = [
        series.samples,
        record.counts,
        bhd_series(vacuum(), 0.0, 0.005, detector, 64, seed=1).samples,
        single_pd_series(vacuum(), _source(), detector, 64, seed=2).samples,
        add_signal_modulation(series, 0.25, 1.0).samples,
        sample_photon_record(vacuum(), _source(), _windowing(64), seed=3).counts,
    ]
    for array in handed_out:
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: PhotonRecord(_windowing(3), np.array([3, 4]), 3.5, seed=0),
            "counts length must equal n_windows",
        ),
        (
            lambda: PhotonRecord(_windowing(2), np.array([3, 4]), 4.0, seed=0),
            "stored mean inconsistent with counts",
        ),
        (
            lambda: NoiseSpectrum(np.array([1.0, 2.0]), np.array([1.0]), 1.0),
            "frequencies and psd must be matching 1-D arrays",
        ),
        (
            lambda: NoiseSpectrum(np.array([2.0, 1.0]), np.ones(2), 1.0),
            "frequencies must be positive and increasing",
        ),
        (
            lambda: NoiseSpectrum(np.array([0.0, 1.0]), np.ones(2), 1.0),
            "frequencies must be positive and increasing",
        ),
    ],
    ids=["counts-short", "mean-off", "psd-short", "decreasing", "starts-at-zero"],
)
def test_records_and_spectra_reject_inconsistent_arrays(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_a_library_owned_array_is_frozen_in_place():
    samples = np.zeros(8)
    assert TimeSeries(1.0, _Owned(samples)).samples is samples
    assert not samples.flags.writeable


def _mean_periodogram(samples, n_segment):
    """Every segment's periodogram at once, then their mean: the reference."""
    n_runs = samples.size // n_segment
    segments = samples[: n_runs * n_segment].reshape(n_runs, n_segment)
    spectra = np.abs(np.fft.rfft(segments, axis=1)) ** 2 / n_segment
    return spectra.mean(axis=0)[1 : (n_segment + 1) // 2]


BLOCK = detection._BLOCK_BYTES


@settings(max_examples=200, deadline=None)
@given(
    n_segment=st.integers(8, 300),
    n_runs=st.integers(1, 40),
    tail=st.integers(0, 299),
    block_bytes=st.sampled_from([1, 8 * 20, 8 * 100, 8 * 1000, BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
# At the real block size: one segment; an odd segment length with a count
# (70) that is not a multiple of the block (31 segments); a segment larger
# than one block.
@example(n_segment=4096, n_runs=1, tail=17, block_bytes=BLOCK, seed=0)
@example(n_segment=4097, n_runs=70, tail=0, block_bytes=BLOCK, seed=1)
@example(n_segment=BLOCK // 8 + 1, n_runs=3, tail=5, block_bytes=BLOCK, seed=2)
def test_blocked_psd_is_the_mean_periodogram_bit_for_bit(
    n_segment, n_runs, tail, block_bytes, seed
):
    size = n_segment * n_runs + tail % n_segment
    samples = np.random.default_rng(seed).normal(size=size)
    with mock.patch.object(detection, "_BLOCK_BYTES", block_bytes):
        spectrum = welch_psd(TimeSeries(float(n_segment), samples), 1.0)
    expected = _mean_periodogram(samples, n_segment)
    assert spectrum.psd.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    block=st.sampled_from([8, 24, 100, 1000, BLOCK // 8]),
    n_segment=st.integers(8, 300),
    n_runs=st.integers(1, 30),
    tail=st.integers(0, 299),
    bin_index=st.integers(1, 150),
    db=st.floats(0.0, 20.0),
    depth=st.sampled_from([0.0, 0.5, 1.0e3]),
    seed=st.integers(0, 2**32 - 1),
)
# At the real block size: a tail past the last segment in a partial fifth
# buffer; exactly one buffer; a segment longer than a block, one to a buffer,
# then a tail buffer.
@example(
    block=BLOCK // 8, n_segment=4096, n_runs=73, tail=977, bin_index=511, db=3.0,
    depth=0.5, seed=13,
)
@example(
    block=BLOCK // 8, n_segment=4096, n_runs=16, tail=0, bin_index=512, db=3.0,
    depth=0.5, seed=1,
)
@example(
    block=BLOCK // 8, n_segment=2**18, n_runs=2, tail=75000, bin_index=32767,
    db=10.0, depth=1.0, seed=3,
)
def test_tone_spectrum_is_welch_psd_of_the_toned_series_bit_for_bit(
    block, n_segment, n_runs, tail, bin_index, db, depth, seed
):
    # Blocks of 8 to 1,000 samples give one buffer or many, segments shorter
    # or longer than a block, and a partial last buffer.  The reference is the
    # Welch PSD of the toned series as its segments' rFFT sees it, from whole
    # arrays: off bin k each arm's variance times welch_psd of the shared draw,
    # and on bin k the mean of |sqrt(variance) F_k - i depth N / 2|**2 / N.
    fs = 65536.0
    size = n_segment * n_runs + tail % n_segment
    k = 1 + (bin_index - 1) % ((n_segment + 1) // 2 - 1)
    arms = [(10.0 ** (-db / 10.0), depth), (1.0, depth), (1.0, depth * 2**0.5)]
    with mock.patch.object(detection, "_BLOCK_BYTES", 8 * block):
        spectra = detection._tone_spectra(arms, size, n_segment, k, seed, fs)
    z = detection._rng(seed).standard_normal(size)
    unit = welch_psd(TimeSeries(fs, z), fs / n_segment)
    on_bin = np.fft.rfft(z[: size - size % n_segment].reshape(-1, n_segment))[:, k]
    for spectrum, (variance, arm_depth) in zip(spectra, arms, strict=True):
        phasor = np.sqrt(variance) * on_bin - 1j * (arm_depth * n_segment / 2.0)
        psd = variance * unit.psd
        psd[k - 1] = np.mean(np.abs(phasor) ** 2 / n_segment)
        assert spectrum.psd.tobytes() == psd.tobytes()
        assert spectrum.frequencies.tobytes() == unit.frequencies.tobytes()
        assert spectrum.resolution_bandwidth == unit.resolution_bandwidth


@settings(max_examples=60, deadline=None)
@given(
    n_segment=st.integers(16, 300),
    n_runs=st.integers(1, 30),
    tail=st.integers(0, 299),
    bin_index=st.integers(1, 150),
    db=st.floats(0.0, 100.0),
    depth=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# At 100 dB: the default segment over 256 runs, and with a tail; a 2**18-sample
# segment, averaged only twice.
@example(
    n_segment=4096, n_runs=256, tail=0, bin_index=512, db=100.0, depth=1.0, seed=1
)
@example(
    n_segment=4096, n_runs=73, tail=977, bin_index=511, db=100.0, depth=1.0, seed=2
)
@example(
    n_segment=2**18, n_runs=2, tail=75000, bin_index=32767, db=100.0, depth=1.0, seed=3
)
@example(
    n_segment=2**18, n_runs=2, tail=0, bin_index=131070, db=100.0, depth=1.0, seed=7
)
def test_a_tone_spectrum_is_the_welch_psd_of_its_toned_series(
    n_segment, n_runs, tail, bin_index, db, depth, seed
):
    # The phasor on bin k holds within 1e-12 relative (9e-14 measured).  Every
    # other bin holds within 1e-6 of the arm's variance.  What is left there is
    # the reference sine's rounding of its phase f t, which
    # add_signal_modulation reduces mod one cycle before the multiply by 2 pi:
    # at 100 dB the gap read at most 4.4e-9 in power-of-two segments, where f t
    # is exact, and 2.2e-7 in others of up to 300 samples.  The last example,
    # next to Nyquist, read 1.3e-3 when the phase 2 pi f t went unreduced.
    fs = 65536.0
    size = n_segment * n_runs + tail % n_segment
    k = 1 + (bin_index - 1) % ((n_segment + 1) // 2 - 1)
    variance = 10.0 ** (-db / 10.0)
    arm = [(variance, depth)]
    (spectrum,) = detection._tone_spectra(arm, size, n_segment, k, seed, fs)
    z = detection._rng(seed).standard_normal(size)
    series = TimeSeries(fs, np.sqrt(variance) * z)
    toned = add_signal_modulation(series, k * fs / n_segment, depth)
    expected = welch_psd(toned, fs / n_segment)
    assert spectrum.frequencies.tobytes() == expected.frequencies.tobytes()
    assert spectrum.resolution_bandwidth == expected.resolution_bandwidth
    assert spectrum.psd[k - 1] == pytest.approx(expected.psd[k - 1], rel=1e-12)
    floor = np.delete(spectrum.psd - expected.psd, k - 1)
    assert np.abs(floor).max() <= 1e-6 * variance


def _exact_variance(samples):
    """The variance of ``samples`` as an exact fraction.

    Every float is an integer times a power of two, so scaling by a common
    ``2**s`` turns the samples into integers, whose sums Python forms exactly.
    """
    s = 53 - int(np.frexp(samples[samples != 0.0])[1].min())
    ints = [int(value) for value in np.ldexp(samples, s).tolist()]
    n, total, squares = samples.size, sum(ints), sum(i * i for i in ints)
    return Fraction(n * squares - total * total, n * n) / Fraction(4) ** s


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(0, 21).flatmap(lambda k: st.integers(2**k, 2 ** (k + 1))),
    block=st.integers(1, 8),
    decade=st.integers(-140, 140),
    offset=st.sampled_from([0.0, 1.0, -3.5, 1.0e3]),
    seed=st.integers(0, 2**32 - 1),
)
# The default bhd-psd series in its default blocks, and an odd size above 4M.
@example(size=2**21, block=2048, decade=0, offset=0.0, seed=0)
@example(size=2**22 + 1, block=1, decade=-3, offset=1.0, seed=1)
def test_series_variance_is_within_4_ulp_of_the_exact_variance(
    size, block, decade, offset, seed
):
    # Blocks of 1 to 8 samples, scaled up past 65,536 samples so that no
    # series is split into more than 65,536 blocks.
    block *= -(-size // 2**16)
    samples = 10.0**decade * (offset + np.random.default_rng(seed).normal(size=size))
    with mock.patch.object(detection, "_BLOCK_BYTES", 8 * block):
        variance = detection._series_variance(samples)
    exact = _exact_variance(samples)
    assert abs(Fraction(variance) - exact) <= 4 * Fraction(math.ulp(float(exact)))


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 20).flatmap(lambda k: st.integers(2**k, 2 ** (k + 1))),
    db=st.floats(0.0, 60.0),
    angle=st.floats(0.0, np.pi),
    efficiency=st.floats(0.01, 1.0),
    visibility=st.floats(0.1, 1.0),
    dark=st.sampled_from([0.0, 0.25, 1.0e-12, 1.0e6]),
    eps=st.floats(0.0, 0.5),
    lo_noise=st.sampled_from([0.0, 4.0, 1.0e-12, 1.0e6]),
    seed=st.integers(0, 2**32 - 1),
)
# One sample; an odd size with an LO leak; the largest size, odd and even.
@example(
    size=1, db=3.0, angle=0.0, efficiency=1.0, visibility=1.0, dark=0.0, eps=0.0,
    lo_noise=0.0, seed=0,
)
@example(
    size=300001, db=10.0, angle=0.3, efficiency=0.9, visibility=0.99, dark=0.25,
    eps=0.25, lo_noise=4.0, seed=1,
)
@example(
    size=2**21 - 1, db=0.0, angle=0.0, efficiency=1.0, visibility=1.0, dark=0.0,
    eps=0.5, lo_noise=1.0e6, seed=2,
)
@example(
    size=2**21, db=60.0, angle=1.5, efficiency=0.5, visibility=0.5, dark=1.0e6,
    eps=0.0, lo_noise=4.0, seed=3,
)
def test_the_detected_draw_is_rng_normal_bit_for_bit(
    size, db, angle, efficiency, visibility, dark, eps, lo_noise, seed
):
    # Each series is one draw at its summed variance; the LO leak is part of
    # the homodyne variance, not a second stream.
    state = squeeze(vacuum(), SqueezeSetting.from_db(db, 0.2))
    detector = DetectorParams(efficiency, dark, visibility, eps)
    homodyne = efficiency * (visibility * visibility)
    leak = (2.0 * eps) ** 2 * lo_noise
    draws = [
        (
            bhd_series(state, angle, 0.005, detector, size, seed, 1.0, lo_noise),
            quadrature_variance(apply_loss(state, 1.0 - homodyne), angle) + dark + leak,
        ),
        (
            single_pd_series(state, _source(), detector, size, seed),
            quadrature_variance(apply_loss(state, 1.0 - efficiency), 0.0) + dark,
        ),
    ]
    for series, variance in draws:
        expected = detection._rng(seed).normal(0.0, np.sqrt(variance), size)
        assert series.samples.tobytes() == expected.tobytes()


def _counted(function, calls, fail_on, error):
    """``function``, noting the thread of each call in ``calls``; call number
    ``fail_on`` raises ``error`` instead."""

    def counted(*args, **kwargs):
        calls.append(threading.current_thread())
        if len(calls) == fail_on:
            raise error
        return function(*args, **kwargs)

    return counted


def _raised_off_the_main_thread(call):
    """What ``call()`` raised, from a helper thread joined with a timeout, so
    that a deadlock fails the test instead of hanging it.  Every thread the
    call started must be gone once it returns."""
    before, raised = threading.active_count(), []

    def target():
        try:
            call()
        except BaseException as error:
            raised.append(error)

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout=60)
    assert not helper.is_alive(), "the call deadlocked"
    assert threading.active_count() == before
    return raised


@pytest.mark.parametrize(
    "failing, error",
    [
        ("add", RuntimeError("the third add")),
        ("draw", RuntimeError("the third draw")),
        ("draw", KeyboardInterrupt()),
    ],
    ids=["add-raises-on-the-worker", "draw-raises", "draw-interrupted"],
)
def test_a_failed_tone_run_raises_its_error_and_joins_its_worker(failing, error):
    # Six buffers of two segments each; the third add or the third draw
    # raises.  The error reaches the caller unchanged, the other thread stops
    # within two buffers, and the worker is joined.  The call runs on a helper
    # thread, where a KeyboardInterrupt is raised like any other exception.
    adds, draws, rng = [], [], detection._rng
    add = _counted(detection._WelchSum.add, adds, 3 if failing == "add" else 0, error)
    fail_draw = 3 if failing == "draw" else 0

    def counted_rng(seed):
        draw = _counted(rng(seed).standard_normal, draws, fail_draw, error)
        return types.SimpleNamespace(standard_normal=draw)

    def run():
        detection._tone_spectra([(1.0, 0.5)], 192, 16, 3, 1, 1.0)

    with (
        mock.patch.object(detection, "_BLOCK_BYTES", 8 * 32),
        mock.patch.object(detection._WelchSum, "add", add),
        mock.patch.object(detection, "_rng", counted_rng),
    ):
        raised = _raised_off_the_main_thread(run)
    assert len(raised) == 1 and raised[0] is error
    if failing == "add":
        # The fifth draw waits for the failed third add, so the draws stop by 4.
        assert len(adds) == 3 and 3 <= len(draws) <= 4
    else:
        # The third draw waited for the first add; the second may be added or not.
        assert len(draws) == 3 and 1 <= len(adds) <= 2
    assert len(set(adds)) == 1 and set(adds).isdisjoint(draws)


def test_tone_runs_on_eight_threads_under_fast_switching_equal_one_buffer_runs():
    # Four callers at once, each with its worker, while the interpreter
    # switches threads every microsecond.  Each run hands 65 small buffers
    # to its worker; drawing into a buffer before its last add returned
    # would change the spectrum.  With one buffer nothing overlaps.
    seeds, results, errors = range(20), {}, []

    def run(seed):
        return detection._tone_spectra([(0.5, 1.0), (1.0, 0.0)], 2085, 16, 3, seed, 1.0)

    def caller(part):
        try:
            for seed in seeds[part::4]:
                results[seed] = run(seed)
        except BaseException as error:
            errors.append(error)

    expected = {seed: run(seed) for seed in seeds}
    interval = sys.getswitchinterval()
    callers = [
        threading.Thread(target=caller, args=(i,), daemon=True) for i in range(4)
    ]
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(detection, "_BLOCK_BYTES", 8 * 32):
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers) and errors == []
    for seed in seeds:
        for got, want in zip(results[seed], expected[seed], strict=True):
            assert got.psd.tobytes() == want.psd.tobytes()


SNR_FAILURES = {
    key: case for key, case in DERIVED_FAILURES.items() if key.startswith("snr-")
}


# The signal-bin rules live in detection: each of the runner's rejections is
# raised by _tone_snrs itself, from the config's numbers, before any draw.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, params, message", list(SNR_FAILURES.values()), ids=list(SNR_FAILURES)
)
def test_the_signal_bin_rules_fail_by_name_before_any_draw(name, params, message):
    config = {key: param.default for key, param in EXPERIMENTS[name].params.items()}
    config.update(_failing_config(name, params)["parameters"])
    depth = config["modulation_depth"]
    # The runner's three arms; their variances enter no rule.
    arms = [(0.5, depth), (1.0, depth), (1.0, depth * 2.0**0.5)]
    with mock.patch.object(detection, "_rng", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError) as error:
            detection._tone_snrs(
                arms,
                config["n_samples"],
                config["sample_rate_hz"],
                config["resolution_bandwidth_hz"],
                config["signal_frequency_hz"],
                seed=1,
            )
    assert str(error.value) == message
