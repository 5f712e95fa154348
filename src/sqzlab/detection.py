"""Simulated photodetection: photon counting, photocurrents, and spectra.

The Gaussian state passed to these routines describes the quantum noise of
the detected mode (the sideband mode around a bright carrier), while the
carrier itself enters as classical parameters: a :class:`LightSource` for
direct detection, a local-oscillator phase and power ratio for balanced
homodyne detection.  All sampling is driven by an explicit integer seed and
is reproducible bit for bit; identical seeds give identical records no
matter how the caller schedules the work, or in how many pieces a series is
drawn and averaged.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .decoherence import visibility_efficiency
from .gaussian import (
    LIGHT_SPEED,
    PLANCK,
    GaussianState,
    _frozen_array,
    _Owned,
    apply_loss,
    check_range,
    quadrature_variance,
)

__all__ = [
    "LightSource",
    "MeasurementWindowing",
    "PhotonRecord",
    "DetectorParams",
    "TimeSeries",
    "NoiseSpectrum",
    "photon_flux",
    "mean_photons_per_window",
    "power_for_mean_photons",
    "sample_photon_record",
    "fano_factor",
    "single_pd_series",
    "bhd_series",
    "add_signal_modulation",
    "welch_psd",
]

WINDOW_SHAPES = ("rectangular", "gaussian")

# Counting windows must be much shorter than the source coherence time for
# the per-window statistics to be meaningful.
_MAX_WINDOW_TO_COHERENCE = 0.1
# Below this mean count the Gaussian bright-beam approximation for
# non-Poissonian light is not trustworthy.
_GAUSSIAN_REGIME_MIN_COUNT = 100.0
# A single photodiode linearizes quadrature noise only against a carrier of
# many photons per sample.
_BRIGHT_CARRIER_MIN_PHOTONS = 100.0
# numpy's largest Poisson mean, 2**63 - 10 sqrt(2**63); int64 holds its counts.
_MAX_MEAN_COUNT = 9.223372006484771e18
# Balanced homodyne detection assumes the signal beam is much dimmer than
# the local oscillator.
_MAX_SIGNAL_TO_LO_RATIO = 0.01

_POISSON_VARIANCE_TOL = 1e-9
_MIN_PSD_SEGMENT = 8
# welch_psd's segments are transformed and _series_variance's squared
# deviations summed this many bytes at a time; each of _tone_spectra's two
# buffers, drawn and added in turn, holds as many whole segments as fit (at
# least one).  None makes a temporary as long as the series, welch_psd stays
# under 1 MiB whenever one segment fits a block, and a block fits a 2 MiB L2.
_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class LightSource:
    """Carrier beam: wavelength (m), optical power (W), coherence time (s).

    Power may be zero (blocked beam); wavelength and coherence time must be
    positive.
    """

    wavelength: float
    power: float
    coherence_time: float

    def __post_init__(self) -> None:
        check_range("wavelength", self.wavelength, gt=0.0)
        check_range("power", self.power, ge=0.0)
        check_range("coherence_time", self.coherence_time, gt=0.0)


@dataclass(frozen=True)
class MeasurementWindowing:
    """Counting-window layout for direct detection."""

    duration: float
    shape: str = "rectangular"
    n_windows: int = 1

    def __post_init__(self) -> None:
        check_range("window duration", self.duration, gt=0.0)
        if self.shape not in WINDOW_SHAPES:
            raise ValueError(f"window shape must be one of {WINDOW_SHAPES}")
        if not isinstance(self.n_windows, (int, np.integer)) or self.n_windows < 1:
            raise ValueError("n_windows must be a positive integer")


@dataclass(frozen=True, eq=False)
class PhotonRecord:
    """Photon counts per window plus the sampling context."""

    windowing: MeasurementWindowing
    counts: np.ndarray
    mean: float
    seed: int

    def __post_init__(self) -> None:
        counts = _frozen_array(self, "counts", dtype=np.int64)
        if counts.ndim != 1 or counts.size != self.windowing.n_windows:
            raise ValueError("counts length must equal n_windows")
        check_range("counts", counts, ge=0)
        if abs(float(counts.mean()) - self.mean) > 1e-9 * max(1.0, abs(self.mean)):
            raise ValueError("stored mean inconsistent with counts")
        object.__setattr__(self, "mean", float(self.mean))


@dataclass(frozen=True)
class DetectorParams:
    """Photodiode and interference imperfections.

    ``visibility`` is the fringe visibility against the reference beam and
    enters the effective efficiency as its square.  ``balance_asymmetry`` is
    the deviation of the homodyne splitter from 50/50 (0 means balanced,
    bounded by 0.5).
    """

    quantum_efficiency: float = 1.0
    dark_noise_variance: float = 0.0
    visibility: float = 1.0
    balance_asymmetry: float = 0.0

    def __post_init__(self) -> None:
        check_range("quantum_efficiency", self.quantum_efficiency, gt=0.0, le=1.0)
        check_range("dark_noise_variance", self.dark_noise_variance, ge=0.0)
        # Visibility 0 would null the signal entirely; reject it here so
        # downstream variance formulas never divide by zero.
        visibility_efficiency(self.visibility)
        check_range("balance_asymmetry", self.balance_asymmetry, ge=0.0, le=0.5)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Evenly sampled photocurrent fluctuations in shot-noise units."""

    sample_rate: float
    samples: np.ndarray
    lo_phase: float = 0.0

    def __post_init__(self) -> None:
        check_range("sample_rate", self.sample_rate, gt=0.0)
        samples = _frozen_array(self, "samples")
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        check_range("samples", samples)
        check_range("lo_phase", self.lo_phase)


@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """One-sided PSD relative to shot noise (unit-variance white reads 1.0)."""

    frequencies: np.ndarray
    psd: np.ndarray
    resolution_bandwidth: float

    def __post_init__(self) -> None:
        freqs = _frozen_array(self, "frequencies")
        psd = _frozen_array(self, "psd")
        if freqs.ndim != 1 or freqs.size == 0 or freqs.shape != psd.shape:
            raise ValueError("frequencies and psd must be matching 1-D arrays")
        if np.any(np.diff(freqs) <= 0.0) or freqs[0] <= 0.0:
            raise ValueError("frequencies must be positive and increasing")
        check_range("psd", psd, ge=0.0)
        check_range("resolution_bandwidth", self.resolution_bandwidth, gt=0.0)


def photon_flux(source: LightSource) -> float:
    """Photons per second carried by the source power."""
    return source.power * source.wavelength / (PLANCK * LIGHT_SPEED)


def mean_photons_per_window(
    source: LightSource, windowing: MeasurementWindowing
) -> float:
    """Average photon count per window, flux times window duration."""
    return photon_flux(source) * windowing.duration


def power_for_mean_photons(
    mean_photons: float, wavelength: float, window_duration: float
) -> float:
    """Optical power that puts ``mean_photons`` into one counting window."""
    check_range("mean_photons", mean_photons, ge=0.0)
    return mean_photons * PLANCK * LIGHT_SPEED / (wavelength * window_duration)


def _rng(seed) -> np.random.Generator:
    """Every seeded draw's generator: numpy's SFC64, seeded through ``SeedSequence``."""
    return np.random.Generator(np.random.SFC64(seed))


def sample_photon_record(
    state: GaussianState,
    source: LightSource,
    windowing: MeasurementWindowing,
    seed: int,
) -> PhotonRecord:
    """Draw per-window photon counts for a carrier with the given noise state.

    A state at exact shot noise in the amplitude quadrature gives Poisson
    counts of the carrier mean.  Any other amplitude variance v uses the
    bright-beam Gaussian approximation (mean n, variance v * n, less the 1/12
    that rounding to whole counts adds), accepted for n >= 100, v * n >= 1
    and n of at least 8 standard deviations.  The window shape is
    bookkeeping metadata and does not change the statistics.

    Raises
    ------
    ValueError
        If the window is not much shorter than the coherence time, or if a
        non-Poissonian state is sampled outside that bright-beam regime.
    """
    check_range(
        "window duration",
        windowing.duration,
        lt=_MAX_WINDOW_TO_COHERENCE * source.coherence_time,
    )
    n_bar = mean_photons_per_window(source, windowing)
    check_range("mean photons per window", n_bar, le=_MAX_MEAN_COUNT)
    v_amp = quadrature_variance(state, 0.0)
    rng = _rng(seed)
    if abs(v_amp - 1.0) <= _POISSON_VARIANCE_TOL:
        counts = rng.poisson(n_bar, size=windowing.n_windows).astype(
            np.int64, copy=False
        )
    else:
        check_range(
            "photons per window of non-Poissonian light",
            n_bar,
            ge=_GAUSSIAN_REGIME_MIN_COUNT,
        )
        variance = v_amp * n_bar
        check_range("count variance per window of non-Poissonian light", variance, ge=1.0)
        sigmas = n_bar / math.sqrt(variance)
        check_range("non-Poissonian mean count in standard deviations", sigmas, ge=8.0)
        # rint adds 1/12 count**2 (Sheppard 1898), which the draw leaves out.
        draws = rng.normal(n_bar, math.sqrt(variance - 1 / 12), size=windowing.n_windows)
        counts = np.rint(draws).astype(np.int64)
    return PhotonRecord(windowing, _Owned(counts), float(counts.mean()), seed)


def fano_factor(record: PhotonRecord) -> float:
    """Count variance over count mean; 1 for Poisson, below 1 for squeezed."""
    if record.counts.size < 2:
        raise ValueError("need at least two windows for a variance")
    mean = record.counts.mean()
    if mean == 0.0:
        raise ValueError("mean count is zero, Fano factor undefined")
    return float(record.counts.var(ddof=1) / mean)


def single_pd_series(
    state: GaussianState,
    source: LightSource,
    detector: DetectorParams,
    n_samples: int,
    seed: int,
    sample_rate: float = 1.0,
) -> TimeSeries:
    """Amplitude-quadrature fluctuations seen by one photodiode.

    The carrier must be bright (at least 100 photons per sample) for the
    linearized readout to hold.  Quantum efficiency mixes in vacuum before
    detection; dark noise adds on top.  The mean is removed, only
    fluctuations are returned.
    """
    check_range("n_samples", n_samples, ge=1)
    check_range(
        "carrier photons per sample",
        photon_flux(source) / sample_rate,
        ge=_BRIGHT_CARRIER_MIN_PHOTONS,
    )
    variance = _detected_variance(state, 0.0, detector.quantum_efficiency, detector)
    samples = _rng(seed).standard_normal(n_samples)
    samples *= np.sqrt(variance)
    return TimeSeries(sample_rate, _Owned(samples), lo_phase=0.0)


def _detected_variance(state, angle, efficiency, detector) -> float:
    """Variance of the quadrature at ``angle`` through ``efficiency``, plus dark noise."""
    detected = apply_loss(state, 1.0 - efficiency)
    return quadrature_variance(detected, angle) + float(detector.dark_noise_variance)


def bhd_series(
    signal_state: GaussianState,
    lo_phase: float,
    signal_to_lo_power_ratio: float,
    detector: DetectorParams,
    n_samples: int,
    seed: int,
    sample_rate: float = 1.0,
    lo_noise_variance: float = 0.0,
) -> TimeSeries:
    """Balanced homodyne readout of the quadrature selected by the LO phase.

    The effective efficiency is ``quantum_efficiency * visibility**2``.
    Classical local-oscillator noise cancels in the balanced difference
    current; a splitter asymmetry ``eps`` lets an amplitude fraction
    ``2 * eps`` of it leak through, so ``lo_noise_variance`` contributes
    ``(2 * eps)**2`` times itself to the output variance.  The leak is white
    and independent of the quantum noise, so the series is one draw at the sum.

    Raises
    ------
    ValueError
        If the signal beam is not much weaker than the local oscillator
        (power ratio >= 0.01), or if the summed variance overflows.
    """
    check_range("n_samples", n_samples, ge=1)
    variance = _bhd_noise(
        signal_state, lo_phase, signal_to_lo_power_ratio, detector, lo_noise_variance
    )
    samples = _rng(seed).standard_normal(n_samples)
    samples *= np.sqrt(variance)
    return TimeSeries(sample_rate, _Owned(samples), lo_phase=float(lo_phase))


def _bhd_noise(state, lo_phase, ratio, detector, lo_noise_variance) -> float:
    """The homodyne variance, once its inputs are checked: the quadrature at
    ``lo_phase`` detected through ``quantum_efficiency * visibility**2``, plus
    dark noise, plus the LO leak ``(2 eps)**2 lo_noise_variance``.  The terms
    add as Python floats, so a sum beyond the float range fails by name, unwarned."""
    check_range("lo_phase", lo_phase)
    check_range("signal_to_lo_power_ratio", ratio, ge=0.0, lt=_MAX_SIGNAL_TO_LO_RATIO)
    efficiency = detector.quantum_efficiency * visibility_efficiency(detector.visibility)
    check_range("lo_noise_variance", lo_noise_variance, ge=0.0)
    leak = float((2.0 * detector.balance_asymmetry) ** 2 * lo_noise_variance)
    variance = _detected_variance(state, lo_phase, efficiency, detector) + leak
    name = "homodyne variance (quadrature at lo_phase + dark_noise_variance"
    name += " + (2 balance_asymmetry)**2 lo_noise_variance)"
    return check_range(name, variance)


def _tone_spectra(arms, n_samples, n_segment, k, seed, sample_rate):
    """Per ``(variance, depth)`` arm, the :func:`welch_psd` of ``sqrt(variance)
    * z + depth * sin(2 pi k m / N)``, N = ``n_segment``, for one unit white
    draw ``z`` from ``_rng(seed)`` that every arm shares.

    With no window, a segment's rFFT of the tone is ``-i depth N / 2`` on bin
    ``k`` and 0 elsewhere.  So an arm's PSD is ``variance`` times the draw's,
    but on bin ``k`` the mean over segments of ``|sqrt(variance) F - i depth N
    / 2|**2 / N``, ``F`` being the draw's rFFT there.  Two buffers of whole
    segments stream the draw: a worker thread adds one to the Welch sum while
    this thread draws the other, in order, so the bytes are a serial run's.
    """
    rng = _rng(seed)
    welch = _WelchSum(n_segment, n_samples // n_segment, k)
    whole = n_samples - n_samples % n_segment
    size = n_segment * max(1, _BLOCK_BYTES // 8 // n_segment)
    buffers = np.empty((2, size))
    parts = [buffers[i % 2, : whole - s] for i, s in enumerate(range(0, whole, size))]
    turn, failed = threading.Barrier(2), []

    def add_each_drawn():
        try:
            for part in parts:
                turn.wait()
                welch.add(part)
        except BaseException as error:
            failed.append(error)
            turn.abort()

    worker = threading.Thread(target=add_each_drawn)
    worker.start()
    try:
        for part in parts:
            rng.standard_normal(out=part)
            turn.wait()  # the worker has added the part before and takes this one
    except threading.BrokenBarrierError:
        pass  # the worker failed, and its error is raised below
    except BaseException:
        turn.abort()
        raise
    finally:
        worker.join()
    if failed:
        raise failed[0]
    unit = welch.spectrum(sample_rate)
    spectra = []
    for variance, depth in arms:
        phasor = np.sqrt(variance) * welch.on_bin - 1j * (depth * n_segment / 2.0)
        psd = variance * unit.psd
        psd[k - 1] = np.mean(np.square(np.abs(phasor)) / n_segment)
        spectra.append(NoiseSpectrum(unit.frequencies, psd, unit.resolution_bandwidth))
    return spectra


def _tone_snrs(arms, n_samples, sample_rate, resolution_bandwidth, frequency, seed):
    """Per ``(variance, depth)`` arm, the SNR ``psd[k - 1] / mean(psd[floor])``
    of its :func:`_tone_spectra` PSD, once ``detection``'s signal-bin rules hold:
    bin ``k`` is one :func:`welch_psd` keeps (not DC, not Nyquist), a floor bin
    lies beyond its two neighbours, and the largest depth's power on bin ``k``,
    summed over the segments, is finite.  Each fails by name before any draw."""
    n_segment = _psd_segment(sample_rate, resolution_bandwidth, n_samples)
    n_bins = (n_segment + 1) // 2 - 1  # welch_psd keeps bins 1 to n_bins
    check_range("signal_frequency_hz", frequency, gt=0.0, lt=sample_rate / 2.0)
    bin_position = frequency / (sample_rate / n_segment)  # finite: round() won't raise
    k = round(bin_position)
    if not 1 <= k <= n_bins or abs(bin_position - k) > 1e-9:
        raise ValueError("signal_frequency_hz must sit on a spectrum bin")
    floor = np.abs(np.arange(1, n_bins + 1) - k) > 1
    if not floor.any():
        raise ValueError(
            "signal_frequency_hz must leave a noise-floor bin beyond its neighbours"
        )
    depths = check_range("modulation depth", [abs(depth) for _, depth in arms])
    peak = float(depths.max()) * n_segment / 2.0  # (depth N / 2)**2 / N per segment
    name = "modulation depth's power on the signal bin, summed over the PSD segments"
    check_range(name, peak * peak / n_segment * (n_samples // n_segment))
    spectra = _tone_spectra(arms, n_samples, n_segment, k, seed, sample_rate)
    return [float(s.psd[k - 1]) / float(s.psd[floor].mean()) for s in spectra]


def add_signal_modulation(
    series: TimeSeries, frequency: float, depth: float
) -> TimeSeries:
    """Return a copy of the series with a coherent sine added.

    ``depth`` is the modulation amplitude in the same shot-noise-relative
    units as the samples.  The frequency must sit below Nyquist.
    """
    fs = series.sample_rate
    check_range("modulation frequency", frequency, gt=0.0, lt=fs / 2.0)
    check_range("modulation depth", depth)
    t = np.arange(series.samples.size) / fs
    # The phase in cycles is reduced mod 1 before the multiply by 2 pi, so the
    # angle passed to sin rounds by an ulp of 2 pi however long the series.
    cycles = (frequency * t) % 1.0
    samples = series.samples + depth * np.sin(2.0 * np.pi * cycles)
    return TimeSeries(fs, _Owned(samples), lo_phase=series.lo_phase)


def _series_variance(samples: np.ndarray) -> float:
    """The two-pass variance, without a temporary as long as the series.

    numpy sums each block's squared deviations from ``samples.mean()`` in the
    scratch, and ``math.fsum`` adds the block sums exactly, so the result is
    within a few ulp of the exact variance of the samples.
    """
    mean = samples.mean()
    scratch = np.empty(min(samples.size, _BLOCK_BYTES // 8))
    sums = []
    for start in range(0, samples.size, scratch.size):
        part = scratch[: samples.size - start]
        np.subtract(samples[start : start + scratch.size], mean, out=part)
        sums.append(np.add.reduce(np.square(part, out=part)))
    return math.fsum(sums) / samples.size


def _psd_segment(sample_rate: float, rbw: float, n_samples: int) -> int:
    """Samples per :func:`welch_psd` segment, checked before it becomes an int."""
    check_range("resolution_bandwidth", rbw, gt=0.0)
    n_segment = np.rint(sample_rate / rbw)  # inf stays a float, where round() raises
    name = "samples per PSD segment (sample_rate / resolution_bandwidth)"
    return int(check_range(name, n_segment, ge=_MIN_PSD_SEGMENT, le=n_samples))


def welch_psd(series: TimeSeries, resolution_bandwidth: float) -> NoiseSpectrum:
    """Averaged-periodogram PSD calibrated so shot noise reads 1.0 per bin.

    The series is cut into non-overlapping segments of
    ``sample_rate / resolution_bandwidth`` samples; per segment and bin the
    squared rFFT magnitude over the segment length estimates the variance
    contribution, and segments are averaged in order, a block of about
    512 KiB of segments at a time.  DC and Nyquist bins are dropped.  For a
    white unit-variance input every returned bin averages to 1.0, and the
    mean over bins estimates the total sample variance (Parseval consistency).

    Raises
    ------
    ValueError
        If ``sample_rate / resolution_bandwidth`` is not finite or rounds to
        under 8 samples or past the series, or if the summed power overflows.
    """
    n_samples = series.samples.size
    n_segment = _psd_segment(series.sample_rate, resolution_bandwidth, n_samples)
    welch = _WelchSum(n_segment, n_samples // n_segment)
    welch.add(series.samples[: n_samples - n_samples % n_segment])
    return welch.spectrum(series.sample_rate)


class _WelchSum:
    """The running sum of :func:`welch_psd`, fed whole segments in order.

    Row 0 of ``power`` carries it, so each reduce adds the segments in their
    order: the mean is ``spectra.mean(axis=0)`` bit for bit however they
    arrive, without every segment's spectrum held at once.  Given a bin
    ``k``, ``on_bin`` keeps each segment's complex rFFT value there.
    """

    def __init__(self, n_segment: int, max_segments: int, k: int | None = None):
        self.n_segment, self.max_segments, self.n_runs = n_segment, max_segments, 0
        self.k = k
        rows = min(max_segments, max(1, _BLOCK_BYTES // (8 * n_segment)))
        self.power = np.zeros((rows + 1, n_segment // 2 + 1))
        self.on_bin = np.empty(0 if k is None else max_segments, complex)

    def add(self, samples: np.ndarray) -> None:
        """Add the segments of ``samples``, whose length is a multiple of one."""
        segments = samples.reshape(-1, self.n_segment)
        block_rows = self.power.shape[0] - 1
        for start in range(0, len(segments), block_rows):
            spectra = np.fft.rfft(segments[start : start + block_rows], axis=1)
            if self.k is not None:
                first = self.n_runs + start
                self.on_bin[first : first + len(spectra)] = spectra[:, self.k]
            block = self.power[1 : len(spectra) + 1]
            np.abs(spectra, out=block)
            top = float(block.max())  # bounds each bin's sum over every segment
            power = top * top / self.n_segment * self.max_segments
            check_range("PSD power summed over the segments", power)
            np.square(block, out=block)
            block /= self.n_segment
            self.power[0] = np.add.reduce(self.power[: len(spectra) + 1], axis=0)
        self.n_runs += len(segments)

    def spectrum(self, sample_rate: float) -> NoiseSpectrum:
        """The mean of the segments added so far, DC and Nyquist dropped."""
        n_bins = (self.n_segment + 1) // 2
        psd = self.power[0, 1:n_bins] / self.n_runs
        actual_rbw = sample_rate / self.n_segment
        return NoiseSpectrum(actual_rbw * np.arange(1, n_bins), psd, actual_rbw)
