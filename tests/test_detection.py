"""Unit tests for photon counting, homodyne sampling, and the PSD."""

import hashlib
import math
import sys
import threading
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
from test_cli_runs import DERIVED_FAILURES, _failing_config, per_block_mean, white_blocks

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
# Each is block 0 of the seed's white series, from child 0 of the seed.
@pytest.mark.parametrize(
    "db, detector, seed, digest",
    [
        (
            6.0,
            DetectorParams(0.9, 0.05, 0.7),
            5,
            "1d7c8b75c313702f1468225fd6ff9de4eff2af839ae1a4dd59d64a8cccc38de7",
        ),
        (
            0.0,
            DetectorParams(),
            6,
            "c845d29048629fc589a22926f63168d98b277bdeddb5645762527f1433a0e8ba",
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


def _periodograms(samples, n_segment):
    """Every whole segment's periodogram |rFFT|**2 / N, from one rFFT."""
    n_runs = samples.size // n_segment
    segments = samples[: n_runs * n_segment].reshape(n_runs, n_segment)
    return np.abs(np.fft.rfft(segments, axis=1)) ** 2 / n_segment


BLOCK = detection._STREAM_BLOCK


@settings(max_examples=200, deadline=None)
@given(
    n_segment=st.integers(8, 300),
    n_runs=st.integers(1, 40),
    tail=st.integers(0, 299),
    block=st.sampled_from([1, 20, 100, 1000, BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
# At the real block size: one segment; an odd segment length, 70 of them,
# spanning two blocks; a segment larger than one block.
@example(n_segment=4096, n_runs=1, tail=17, block=BLOCK, seed=0)
@example(n_segment=4097, n_runs=70, tail=0, block=BLOCK, seed=1)
@example(n_segment=BLOCK + 1, n_runs=3, tail=5, block=BLOCK, seed=2)
def test_blocked_psd_is_the_mean_periodogram_bit_for_bit(
    n_segment, n_runs, tail, block, seed
):
    # Blocks of 1 to 1,000 samples give one unit or many, units of one
    # segment, and blocks in which no segment starts.
    size = n_segment * n_runs + tail % n_segment
    samples = np.random.default_rng(seed).normal(size=size)
    with mock.patch.object(detection, "_STREAM_BLOCK", block):
        spectrum = welch_psd(TimeSeries(float(n_segment), samples), 1.0)
    expected = per_block_mean(_periodograms(samples, n_segment), n_segment, block)
    assert spectrum.psd.tobytes() == expected[1 : (n_segment + 1) // 2].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    block=st.sampled_from([8, 24, 100, 1000, BLOCK]),
    n_segment=st.integers(8, 300),
    n_runs=st.integers(1, 30),
    tail=st.integers(0, 299),
    bin_index=st.integers(1, 150),
    db=st.floats(0.0, 20.0),
    depth=st.sampled_from([0.0, 0.5, 1.0e3]),
    seed=st.integers(0, 2**32 - 1),
)
# At the real block size: a tail past the last segment in a partial fifth
# block; 16-sample segments, 4,096 to a block; 1,000-sample segments, which
# do not divide a block, so a segment spans each boundary; 2**17-sample
# segments, each spanning two blocks; exactly one block; 2**18-sample
# segments, which start in every fourth block only, then a tail.
@example(
    block=BLOCK, n_segment=4096, n_runs=73, tail=977, bin_index=511, db=3.0,
    depth=0.5, seed=13,
)
@example(
    block=BLOCK, n_segment=16, n_runs=8200, tail=5, bin_index=3, db=3.0,
    depth=0.5, seed=21,
)
@example(
    block=BLOCK, n_segment=1000, n_runs=300, tail=999, bin_index=77, db=6.0,
    depth=0.5, seed=22,
)
@example(
    block=BLOCK, n_segment=2**17, n_runs=3, tail=4097, bin_index=40000, db=10.0,
    depth=1.0, seed=23,
)
@example(
    block=BLOCK, n_segment=4096, n_runs=16, tail=0, bin_index=512, db=3.0,
    depth=0.5, seed=1,
)
@example(
    block=BLOCK, n_segment=2**18, n_runs=2, tail=75000, bin_index=32767,
    db=10.0, depth=1.0, seed=3,
)
def test_tone_spectrum_is_welch_psd_of_the_toned_series_bit_for_bit(
    block, n_segment, n_runs, tail, bin_index, db, depth, seed
):
    # The draw's blocks, and so the units, of 8 to 1,000 samples give one
    # unit or many, segments shorter or longer than a block or spanning two,
    # and a partial last block.  Off bin k the unit arm is welch_psd of the
    # whole draw, split in the same blocks.
    fs = 65536.0
    size = n_segment * n_runs + tail % n_segment
    k = 1 + (bin_index - 1) % ((n_segment + 1) // 2 - 1)
    arms = [(10.0 ** (-db / 10.0), depth), (1.0, depth), (1.0, depth * 2**0.5)]
    z = white_blocks(seed, size, block)
    with mock.patch.object(detection, "_STREAM_BLOCK", block):
        spectra = detection._tone_spectra(arms, size, n_segment, k, seed, fs)
        whole = welch_psd(TimeSeries(fs, z), fs / n_segment)
    expected = _tone_reference(arms, z, n_segment, k, fs, block)
    for spectrum, want in zip(spectra, expected, strict=True):
        assert spectrum.psd.tobytes() == want.psd.tobytes()
        assert spectrum.frequencies.tobytes() == want.frequencies.tobytes()
        assert spectrum.resolution_bandwidth == want.resolution_bandwidth
    off_bin = np.delete(spectra[1].psd, k - 1)
    assert off_bin.tobytes() == np.delete(whole.psd, k - 1).tobytes()


def _tone_reference(arms, z, n_segment, k, fs, block):
    """The Welch PSD of each toned arm as its segments' rFFT sees it, from
    whole arrays: off bin k the arm's variance times the per-block mean
    periodogram of the shared unit draw ``z`` (:func:`per_block_mean`), and
    on bin k the mean of |sqrt(variance) F_k - i depth N / 2|**2 / N."""
    size, kept = z.size, (n_segment + 1) // 2
    on_bin = np.fft.rfft(z[: size - size % n_segment].reshape(-1, n_segment))[:, k]
    unit = per_block_mean(_periodograms(z, n_segment), n_segment, block)[1:kept]
    rbw = fs / n_segment
    spectra = []
    for variance, depth in arms:
        phasor = np.sqrt(variance) * on_bin - 1j * (depth * n_segment / 2.0)
        psd = variance * unit
        psd[k - 1] = np.mean(np.abs(phasor) ** 2 / n_segment)
        spectra.append(NoiseSpectrum(rbw * np.arange(1, kept), psd, rbw))
    return spectra


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
    z = white_blocks(seed, size)
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
# One sample; a block less one, one block and a block and one; an odd size
# with an LO leak; the largest size, odd and even.
@example(
    size=1, db=3.0, angle=0.0, efficiency=1.0, visibility=1.0, dark=0.0, eps=0.0,
    lo_noise=0.0, seed=0,
)
@example(
    size=2**16 - 1, db=6.0, angle=0.1, efficiency=0.8, visibility=0.9, dark=0.0,
    eps=0.1, lo_noise=4.0, seed=4,
)
@example(
    size=2**16, db=6.0, angle=0.1, efficiency=0.8, visibility=0.9, dark=0.25,
    eps=0.0, lo_noise=0.0, seed=5,
)
@example(
    size=2**16 + 1, db=20.0, angle=0.0, efficiency=1.0, visibility=1.0, dark=0.0,
    eps=0.0, lo_noise=0.0, seed=6,
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
    # Each series is the seed's unit white series in blocks of 2**16 samples,
    # block i from child i of the seed, times the sigma of its summed
    # variance; the LO leak is part of the homodyne variance, not a second
    # stream.
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
    unit = white_blocks(seed, size, 2**16)
    for series, variance in draws:
        expected = unit * np.sqrt(variance)
        assert series.samples.tobytes() == expected.tobytes()


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


def _loud_block(block, calls):
    """``detection._white_block``, noting the block and the thread of each
    call in ``calls``; block ``block`` reads 1e160 times its draw."""
    white_block = detection._white_block

    def loud(out, seed, i):
        calls.append((i, threading.current_thread()))
        white_block(out, seed, i)
        if i == block:
            out *= 1e160

    return loud


@pytest.mark.parametrize(
    "failing, block, error",
    [
        ("add", 3, ValueError("PSD power summed over the segments must be finite")),
        ("draw", 2, RuntimeError("block 2")),
        ("draw", 4, KeyboardInterrupt()),
    ],
    ids=["add-raises-on-the-worker", "draw-raises", "draw-interrupted"],
)
def test_a_failed_tone_run_raises_its_error_and_joins_its_worker(failing, block, error):
    # Six blocks of 32 samples, one unit of two segments each: the calling
    # thread draws and adds the even units, the worker the odd ones.  Adding
    # unit 3 to the Welch sum overflows on the worker, or the draw of block 2
    # or 4 raises on the calling thread.  The error reaches the caller
    # unchanged, the failing thread makes no further draw, the other stops
    # within two units, and the worker is joined.  The call runs on a helper
    # thread, where a KeyboardInterrupt is raised like any other exception.
    calls = []
    if failing == "add":
        patch = mock.patch.object(detection, "_white_block", _loud_block(block, calls))
    else:
        patch = mock.patch.object(detection, "_rng", _failing_block(block, error, calls))

    def run():
        detection._tone_spectra([(1.0, 0.5)], 192, 16, 3, 1, 1.0)

    with mock.patch.object(detection, "_STREAM_BLOCK", 32), patch:
        raised = _raised_off_the_main_thread(run)
    assert len(raised) == 1
    if failing == "add":  # raised by the overflow check itself
        assert type(raised[0]) is ValueError and str(raised[0]) == str(error)
    else:
        assert raised[0] is error
    threads = {}
    for i, thread in calls:
        assert threads.setdefault(i % 2, thread) is thread
    assert len(set(threads.values())) == len(threads)
    failed_at = calls.index((block, threads[block % 2]))
    assert sum(i % 2 != block % 2 for i, _ in calls[failed_at:]) <= 2
    assert sum(i % 2 == block % 2 for i, _ in calls[failed_at:]) == 1


def test_tone_runs_on_eight_threads_under_fast_switching_equal_one_buffer_runs():
    # Four callers at once, each with its worker, while the interpreter
    # switches threads every microsecond.  Each run splits 65 blocks of 32
    # samples between its two threads, each of which draws into and sums
    # from its own buffers.  The reference takes the same blocks from whole
    # arrays, with no thread.
    seeds, results, errors = range(20), {}, []
    arms = [(0.5, 1.0), (1.0, 0.0)]

    def run(seed):
        return detection._tone_spectra(arms, 2085, 16, 3, seed, 1.0)

    def caller(part):
        try:
            for seed in seeds[part::4]:
                results[seed] = run(seed)
        except BaseException as error:
            errors.append(error)

    expected = {
        seed: _tone_reference(arms, white_blocks(seed, 2085, 32), 16, 3, 1.0, 32)
        for seed in seeds
    }
    interval = sys.getswitchinterval()
    callers = [
        threading.Thread(target=caller, args=(i,), daemon=True) for i in range(4)
    ]
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(detection, "_STREAM_BLOCK", 32):
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


def test_a_one_unit_welch_or_tone_run_starts_no_thread():
    # 4,096 samples in one segment, and 2**16 + 17 in 16 segments that all
    # start in block 0: one unit each.
    start = mock.Mock(side_effect=AssertionError("started a thread"))
    samples = white_blocks(5, 2**16 + 17)
    with mock.patch.object(threading.Thread, "start", start):
        for size, n_segment in [(4096, 4096), (2**16 + 17, 4096)]:
            welch_psd(TimeSeries(1.0, samples[:size]), 1.0 / n_segment)
            detection._tone_spectra([(1.0, 0.5)], size, n_segment, 3, 5, 1.0)
        detection._series_variance(samples[: 2**16])
    assert start.call_count == 0


def _serial(n_items, work):
    """``detection._on_two_threads`` on the calling thread alone, in order."""
    for i in range(n_items):
        work(i, i % 2)


@settings(max_examples=25, deadline=None)
@given(
    n_segment=st.sampled_from([8, 1000, 4096, 2**17, 2**18]),
    extra=st.integers(0, 2**19),
    bin_index=st.integers(1, 2**17),
    seed=st.integers(0, 2**32 - 1),
)
# One-block runs, with a tail and without; segments longer than a block, two
# of them and a tail; 1,000-sample segments, which span each block boundary.
@example(n_segment=4096, extra=17, bin_index=5, seed=0)
@example(n_segment=8, extra=2**16 - 9, bin_index=3, seed=1)
@example(n_segment=2**18, extra=2**18 + 75000, bin_index=32767, seed=2)
@example(n_segment=1000, extra=300_999, bin_index=77, seed=3)
def test_whole_streamed_serial_and_concurrent_welch_means_are_equal(
    n_segment, extra, bin_index, seed
):
    # welch_psd of the whole draw, _tone_spectra's streamed draw, each with
    # its units run in order on one thread, and four callers of both at once
    # while the interpreter switches threads every microsecond: one set of
    # bytes.  Off bin k the unit arm of the streamed draw is welch_psd.
    fs, size = 65536.0, n_segment + extra
    k = 1 + (bin_index - 1) % ((n_segment + 1) // 2 - 1)
    series = TimeSeries(fs, white_blocks(seed, size))

    def both():
        whole = welch_psd(series, fs / n_segment).psd
        (streamed,) = detection._tone_spectra([(1.0, 0.0)], size, n_segment, k, seed, fs)
        return whole.tobytes(), streamed.psd.tobytes()

    whole, streamed = both()
    streamed_off_bin = np.delete(np.frombuffer(streamed), k - 1)
    assert streamed_off_bin.tobytes() == np.delete(np.frombuffer(whole), k - 1).tobytes()
    with mock.patch.object(detection, "_on_two_threads", _serial):
        assert both() == (whole, streamed)
    results, errors = [], []

    def caller():
        try:
            results.append(both())
        except BaseException as error:
            errors.append(error)

    callers = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers) and errors == []
    assert results == [(whole, streamed)] * 4


def _bhd(n_samples, seed):
    return bhd_series(vacuum(), 0.0, 0.005, DetectorParams(), n_samples, seed).samples


def test_block_i_of_a_series_is_child_i_of_its_seed():
    samples = _bhd(3 * 2**16, 7)
    child = np.random.SeedSequence(7).spawn(3)[2]
    block = np.random.Generator(np.random.SFC64(child)).standard_normal(2**16)
    assert samples[2 * 2**16 :].tobytes() == block.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
def test_no_two_blocks_share_a_stream(seed):
    # The lag-0 correlation of 2**16 independent samples has a standard
    # deviation of 1/256.  A reused child, or blocks from SeedSequence(seed +
    # i), would correlate fully with another block of this seed or of seed + 1.
    # One stream cut in blocks passes too: this guards against a regression.
    blocks = np.concatenate([_bhd(2**21, seed), _bhd(2**21, seed + 1)])
    blocks = blocks.reshape(64, 2**16)
    blocks -= blocks.mean(axis=1, keepdims=True)
    blocks /= np.sqrt(np.square(blocks).sum(axis=1, keepdims=True))
    correlation = blocks @ blocks.T
    np.fill_diagonal(correlation, 0.0)
    assert np.abs(correlation).max() <= 6 / 256


def _failing_block(block, error, calls):
    """``detection._rng``, noting the block and the thread of each call in
    ``calls``; the call for ``block`` raises ``error``."""
    rng = detection._rng

    def failing(seed):
        (i,) = seed.spawn_key
        calls.append((i, threading.current_thread()))
        if i == block:
            raise error
        return rng(seed)

    return failing


@pytest.mark.parametrize(
    "block, error",
    [
        (5, RuntimeError("block 5")),
        (4, RuntimeError("block 4")),
        (5, KeyboardInterrupt()),
        (4, KeyboardInterrupt()),
    ],
    ids=["worker-raises", "caller-raises", "worker-interrupted", "caller-interrupted"],
)
def test_a_failed_white_draw_raises_its_error_and_joins_its_worker(block, error):
    # Blocks of 32 samples: the calling thread draws the even ones, the worker
    # the odd ones.  The error reaches the caller unchanged, the other thread
    # draws at most the block it was drawing and one it had begun, and the
    # worker is joined.  The call runs on a helper thread, where a
    # KeyboardInterrupt is raised like any other exception.
    calls = []
    with (
        mock.patch.object(detection, "_STREAM_BLOCK", 32),
        mock.patch.object(detection, "_rng", _failing_block(block, error, calls)),
    ):
        raised = _raised_off_the_main_thread(lambda: _bhd(32 * 64, 3))
    assert len(raised) == 1 and raised[0] is error
    # One thread draws the even blocks and another the odd ones.  The worker
    # may fail before the caller's first block, which then draws none.
    threads = {}
    for i, thread in calls:
        assert threads.setdefault(i % 2, thread) is thread
    assert len(set(threads.values())) == len(threads)
    failed_at = calls.index((block, threads[block % 2]))
    assert sum(i % 2 != block % 2 for i, _ in calls[failed_at:]) <= 2


def test_a_one_block_series_starts_no_thread():
    start = mock.Mock(side_effect=AssertionError("started a thread"))
    with mock.patch.object(threading.Thread, "start", start):
        assert _bhd(2**16, 1).tobytes() == white_blocks(1, 2**16).tobytes()
        samples = single_pd_series(vacuum(), _source(), DetectorParams(), 2**16, 2)
        assert samples.samples.tobytes() == white_blocks(2, 2**16).tobytes()
    assert start.call_count == 0


def test_white_draws_on_eight_threads_under_fast_switching_equal_the_block_reference():
    # Four callers at once, each with its worker, while the interpreter
    # switches threads every microsecond; each series is 40 blocks of 64
    # samples and a partial block.
    seeds, results, errors = range(20), {}, []

    def caller(part):
        try:
            for seed in seeds[part::4]:
                results[seed] = _bhd(64 * 40 + 17, seed)
        except BaseException as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    callers = [
        threading.Thread(target=caller, args=(i,), daemon=True) for i in range(4)
    ]
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(detection, "_STREAM_BLOCK", 64):
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers) and errors == []
    for seed in seeds:
        expected = white_blocks(seed, 64 * 40 + 17, 64)
        assert results[seed].tobytes() == expected.tobytes()


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
