"""Run-level guarantees of ``sqzlab run``: size limits checked before any
allocation, ``snr-equivalence``'s streamed arms equal to a whole-array
reference bit for bit and its SNRs right at any squeeze, and no config that
passes config validation ending in an unexpected runtime failure."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import threading
import tracemalloc
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqzlab.cli as cli
import sqzlab.detection as detection
from sqzlab.cli import EXPERIMENTS, MAX_RUN_BYTES, _validate_config, main
from sqzlab.gaussian import (
    SqueezeSetting,
    apply_loss,
    quadrature_variance,
    squeeze,
    vacuum,
)
from test_cli import REJECTED_CONFIGS

# Power putting 1000 photons into a 0.1 ms window at 1064 nm.
REQUIRED = {"photon-record": {"power_w": 1.8669603920572637e-12}}
SIZE_PARAMS = [
    (name, pname, param)
    for name, experiment in EXPERIMENTS.items()
    for pname, param in experiment.params.items()
    if param.bytes_each
]
IDS = [f"{name}.{pname}" for name, pname, _ in SIZE_PARAMS]
# Sizes the benchmark's scaling sweep runs, besides every default.
SWEEP_SIZES = {("bhd-psd", "n_samples"): 2**22, ("photon-record", "n_windows"): 10**6}


def _config(name, pname, value, fmt="csv"):
    return {
        "experiment": name,
        "seed": 1,
        "parameters": {pname: value, **REQUIRED.get(name, {})},
        "output_format": fmt,
    }


def _run(tmp_path, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    return main(["run", "--config", str(config), "--out", str(tmp_path / "out")])


def test_every_array_size_parameter_is_guarded():
    assert {(name, pname) for name, pname, _ in SIZE_PARAMS} == {
        ("opo-spectrum", "frequency_points"),
        ("photon-record", "n_windows"),
        ("bhd-psd", "n_samples"),
        ("snr-equivalence", "n_samples"),
        ("noise-budget", "frequency_points"),
    }


def _must_not_run(params, seed):
    raise AssertionError("the experiment ran past its size guard")


@pytest.mark.parametrize("name, pname, param", SIZE_PARAMS, ids=IDS)
def test_a_request_over_the_limit_exits_2_before_running(
    tmp_path, monkeypatch, capsys, name, pname, param
):
    # The runner is replaced, so a missing guard fails here without allocating.
    blocked = dataclasses.replace(EXPERIMENTS[name], run=_must_not_run)
    monkeypatch.setitem(EXPERIMENTS, name, blocked)
    value = MAX_RUN_BYTES // param.bytes_each + 1
    assert param.bytes_each * value > MAX_RUN_BYTES
    assert _run(tmp_path, _config(name, pname, value)) == 2
    assert f"parameter {pname!r} = {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, pname, param", SIZE_PARAMS, ids=IDS)
def test_requests_up_to_the_limit_pass_config_validation(name, pname, param):
    sizes = [param.default, MAX_RUN_BYTES // param.bytes_each]
    sizes += [SWEEP_SIZES[name, pname]] if (name, pname) in SWEEP_SIZES else []
    for value in sizes:
        assert _validate_config(_config(name, pname, value))[1][pname] == value


def test_every_traced_call_runs_on_the_main_thread(tmp_path, monkeypatch):
    # The benchmark's spans wrap each sqzlab.cli global that is a function
    # from another sqzlab module, and keep one open-span stack per process:
    # a wrapped call off the main thread would be filed under whatever span
    # the main thread has open.  Every default experiment runs here with
    # those functions wrapped.
    called = []

    def on_the_main_thread(function):
        def wrapped(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread()
            called.append(function.__name__)
            return function(*args, **kwargs)

        return wrapped

    for attr, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "")
        if isinstance(value, types.FunctionType) and module.startswith("sqzlab."):
            if module != cli.__name__:
                monkeypatch.setattr(cli, attr, on_the_main_thread(value))
    for name, experiment in EXPERIMENTS.items():
        payload = {"experiment": name, "seed": 1 if experiment.stochastic else None}
        payload["parameters"] = REQUIRED.get(name, {})
        (tmp_path / name).mkdir()
        assert _run(tmp_path / name, payload) == 0
    assert {"_tone_snrs", "bhd_series", "welch_psd", "write_csv"} <= set(called)


# Modest sizes, large enough that the per-unit cost dominates fixed costs.
PEAK_SIZES = {
    "frequency_points": 4000,
    "n_windows": 20000,
    "n_samples": 2**18,
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, pname, param", SIZE_PARAMS, ids=IDS)
def test_bytes_each_bounds_the_measured_peak(tmp_path, name, pname, param, fmt):
    size = PEAK_SIZES[pname]
    tracemalloc.start()
    try:
        assert _run(tmp_path, _config(name, pname, size, fmt)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= param.bytes_each * size


def test_a_default_bhd_psd_run_peaks_at_10_bytes_per_sample(tmp_path):
    # The series takes 8 bytes a sample.  samples.var() held a second array
    # as long as the series; the variance now goes through a small scratch.
    n_samples = EXPERIMENTS["bhd-psd"].params["n_samples"].default
    tracemalloc.start()
    try:
        assert _run(tmp_path, {"experiment": "bhd-psd", "seed": 1}) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n_samples


def test_a_default_snr_equivalence_run_peaks_at_4_bytes_per_sample(tmp_path):
    # One buffer of whole segments is in flight, with the Welch sum, its
    # spectra and each segment's value on the signal bin; it measured 1.3.
    # Two arms' buffers and tone periods in flight took 2.6, and a sine of
    # every sample 7.3.  A small run first imports the modules a first run
    # would, whose objects tracemalloc would count.
    n_samples = EXPERIMENTS["snr-equivalence"].params["n_samples"].default
    (tmp_path / "warm").mkdir()
    assert _run(tmp_path / "warm", _config("snr-equivalence", "n_samples", 65536)) == 0
    tracemalloc.start()
    try:
        assert _run(tmp_path, {"experiment": "snr-equivalence", "seed": 1}) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n_samples


def test_a_default_photon_record_run_peaks_at_79_bytes_per_window(tmp_path):
    # The table holds 16 bytes a window and its CSV text about 11.  The
    # digit kernel renders it through byte buffers, where the boxed ints of
    # tolist() took 72 bytes a window.  A small run first imports the
    # modules a first run would, whose objects tracemalloc would count.
    n_windows = EXPERIMENTS["photon-record"].params["n_windows"].default
    (tmp_path / "warm").mkdir()
    assert _run(tmp_path / "warm", _config("photon-record", "n_windows", 1000)) == 0
    tracemalloc.start()
    try:
        assert _run(tmp_path, _config("photon-record", "n_windows", n_windows)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 79 * n_windows


def _whole_array_snrs(params, seed):
    """The three SNRs from whole arrays: one unit draw, every segment's rFFT at
    once, and each arm's PSD as its variance times the unit PSD, but on bin k
    the mean of |sqrt(variance) F_k - i depth N / 2|**2 / N."""
    fs, n = params["sample_rate_hz"], params["n_samples"]
    n_segment = round(fs / params["resolution_bandwidth_hz"])
    k = round(params["signal_frequency_hz"] / (fs / n_segment))
    z = detection._rng(seed).standard_normal(n)
    spectra = np.fft.rfft(z[: n - n % n_segment].reshape(-1, n_segment), axis=1)
    unit = (np.abs(spectra) ** 2 / n_segment).mean(axis=0)[1 : (n_segment + 1) // 2]
    visibility = params["visibility"]
    efficiency = params["quantum_efficiency"] * (visibility * visibility)
    squeezed = squeeze(vacuum(), SqueezeSetting.from_db(params["squeeze_db"]))
    depth = params["modulation_depth"]
    arms = [(squeezed, depth), (vacuum(), depth), (vacuum(), depth * 2**0.5)]
    snrs = []
    for state, arm_depth in arms:
        variance = quadrature_variance(apply_loss(state, 1.0 - efficiency), 0.0)
        phasor = np.sqrt(variance) * spectra[:, k] - 1j * (arm_depth * n_segment / 2.0)
        psd = variance * unit
        psd[k - 1] = (np.abs(phasor) ** 2 / n_segment).mean()
        # The floor drops bin k, at psd[k - 1], and its two neighbours.
        floor = np.concatenate([psd[: max(k - 2, 0)], psd[k + 1 :]])
        snrs.append(float(psd[k - 1]) / float(floor.mean()))
    return snrs


# Samples per block: the buffer holds as many whole segments as fit one, and
# at least one; the default's.
DEFAULT_BLOCK = detection._BLOCK_BYTES // 8


@settings(max_examples=60, deadline=None)
@given(
    block=st.sampled_from([8, 24, 100, 1000, DEFAULT_BLOCK]),
    n_segment=st.integers(16, 300),
    runs=st.integers(1, 30),
    tail=st.integers(0, 299),
    bin_index=st.integers(1, 150),
    db=st.floats(0.0, 100.0),
    depth=st.sampled_from([0.0, 0.5, 1.0e3]),
    seed=st.integers(0, 2**32 - 1),
)
# At the default block: a tail past the last segment in a partial fifth
# buffer; exactly one buffer; the default run's 16 buffers; a segment longer
# than a block (resolution 0.25 Hz), one to a buffer, then a tail buffer.
# Bins 511 and 32767 are coprime to the segment.
@example(
    block=DEFAULT_BLOCK, n_segment=4096, runs=73, tail=977, bin_index=512, db=3.0103,
    depth=0.5, seed=13,
)
@example(
    block=DEFAULT_BLOCK, n_segment=4096, runs=73, tail=977, bin_index=511, db=3.0,
    depth=0.5, seed=13,
)
@example(
    block=DEFAULT_BLOCK, n_segment=4096, runs=16, tail=0, bin_index=512, db=3.0,
    depth=0.5, seed=1,
)
@example(
    block=DEFAULT_BLOCK, n_segment=4096, runs=256, tail=0, bin_index=512, db=3.0103,
    depth=0.5, seed=2,
)
@example(
    block=DEFAULT_BLOCK, n_segment=2**18, runs=2, tail=75000, bin_index=32768,
    db=3.0103, depth=0.5, seed=3,
)
@example(
    block=DEFAULT_BLOCK, n_segment=2**18, runs=2, tail=75000, bin_index=32767,
    db=10.0, depth=1.0, seed=3,
)
def test_whole_arms_are_a_serial_run_bit_for_bit(
    block, n_segment, runs, tail, bin_index, db, depth, seed
):
    # The streamed run against the whole-array reference.  Blocks of 8 to
    # 1,000 samples give one buffer or many, segments shorter or longer than a
    # block, and a partial last buffer.
    fs = 65536.0
    n_samples = n_segment * runs + tail % n_segment
    k = 1 + (bin_index - 1) % ((n_segment + 1) // 2 - 1)
    payload = _config("snr-equivalence", "n_samples", n_samples)
    payload["seed"] = seed
    payload["parameters"].update(
        resolution_bandwidth_hz=fs / n_segment,
        signal_frequency_hz=k * fs / n_segment,
        squeeze_db=db,
        modulation_depth=depth,
        quantum_efficiency=0.9,
        visibility=0.95,
    )
    _, params, seed, _, _ = _validate_config(payload)
    with mock.patch.object(detection, "_BLOCK_BYTES", 8 * block):
        result = cli._run_snr_equivalence(params, seed).result
    keys = ["snr_squeezed", "snr_coherent_equal_power", "snr_coherent_double_power"]
    assert [result[key] for key in keys] == _whole_array_snrs(params, seed)


def _snr_result(seed, **parameters):
    payload = {"experiment": "snr-equivalence", "seed": seed, "parameters": parameters}
    _, params, seed, _, _ = _validate_config(payload)
    return cli._run_snr_equivalence(params, seed).result


# Beyond about 320 dB the squeezed noise was below half an ulp of the toned
# sample and rounded away, and the improvement read 4e40 at 400 dB.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("db", [400.0, 3040.0])
def test_the_improvement_follows_the_squeeze_beyond_320_db(db):
    improvement = _snr_result(11, squeeze_db=db)["improvement_over_equal_power"]
    assert improvement == pytest.approx(10.0 ** (db / 10.0), rel=0.03)


# At 10 log10(2) dB the squeezed arm is the double-power arm over sqrt(2), up
# to rounding: the paper's claim holds on every sample path (2 ulp seen).
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64))
@example(seed=92928119)
def test_three_db_of_squeezing_is_doubled_power_on_every_sample_path(seed):
    result = _snr_result(seed, squeeze_db=10.0 * math.log10(2.0))
    assert abs(result["ratio_to_double_power"] - 1.0) <= 4 * np.spacing(1.0)


SEGMENT_ERROR = (
    "samples per PSD segment (sample_rate / resolution_bandwidth) must be finite "
    "and >= 8 and <= 65536"
)
SIGMA_SQUARED_ERROR = "phase-noise sigma**2 must be finite"
COUNT_ERROR = "mean photons per window must be finite and <= 9.22337e+18"
OFF_BIN_ERROR = "signal_frequency_hz must sit on a spectrum bin"
BHD_VARIANCE_ERROR = (
    "max(n_samples, 1024 samples per PSD segment) times the homodyne variance "
    "(squeeze_db at squeeze_angle_deg and lo_phase_deg + dark_noise_variance + "
    "(2 balance_asymmetry)**2 lo_noise_variance) must be finite"
)
# id -> (experiment, parameters, message): configs whose runs once divided by
# zero, overflowed a float, exited 3 with numpy's words or with none of the
# parameter's, or wrote an infinite fit residual or nan or off-bin SNRs,
# because a quantity derived from the parameters was used before anything
# checked it.
DERIVED_FAILURES = {
    "snr-rbw-above-sample-rate": (
        "snr-equivalence",
        {"resolution_bandwidth_hz": 1e11},
        SEGMENT_ERROR,
    ),
    "snr-rbw-negative-zero": (
        "snr-equivalence",
        {"resolution_bandwidth_hz": -0.0},
        "resolution_bandwidth must be finite and > 0",
    ),
    "snr-rbw-subnormal": (
        "snr-equivalence",
        {"resolution_bandwidth_hz": 5e-324},
        SEGMENT_ERROR,
    ),
    # The signal sits an infinite number of bins up.
    "snr-signal-infinite-bins-up": (
        "snr-equivalence",
        {
            "sample_rate_hz": 1e-9,
            "resolution_bandwidth_hz": 1e-12,
            "signal_frequency_hz": 1e300,
        },
        "signal_frequency_hz must be finite and > 0 and < 5e-10",
    ),
    # The double-power arm's depth, sqrt(2) times this, overflows.
    "snr-depth-times-sqrt-2": (
        "snr-equivalence",
        {"modulation_depth": 1.3e308},
        "modulation depth must be finite",
    ),
    # The double-power arm's depth is finite, but its power on bin k,
    # (depth sqrt(2) N / 2)**2 / N, overflows.
    "snr-depth-power-on-its-bin": (
        "snr-equivalence",
        {"modulation_depth": 1e154},
        "modulation depth's power on the signal bin, summed over the PSD segments "
        "must be finite",
    ),
    "bhd-rbw-subnormal": ("bhd-psd", {"resolution_bandwidth_hz": 5e-324}, SEGMENT_ERROR),
    # A finite homodyne variance whose PSD sums overflow: the run exited 3
    # naming the squeeze, which was not at fault.
    "bhd-dark-noise-variance": (
        "bhd-psd",
        {"dark_noise_variance": 1e308},
        BHD_VARIANCE_ERROR,
    ),
    "bhd-lo-leak": (
        "bhd-psd",
        {"lo_noise_variance": 1e308, "balance_asymmetry": 0.5},
        BHD_VARIANCE_ERROR,
    ),
    "decohere-sigma-squared": (
        "decohere",
        {"phase_noise_deg": 1e300},
        SIGMA_SQUARED_ERROR,
    ),
    "fit-loss-sigma-squared": (
        "fit-loss",
        {"fixed_phase_noise_deg": 1e303},
        SIGMA_SQUARED_ERROR,
    ),
    "fit-loss-residual": (
        "fit-loss",
        {"measurements": [[0.0, 0.0, 0.0], [0.0, 0.0, 1e300]]},
        "antisqueeze_db must be finite and >= 0 and <= 3082.55",
    ),
    "noise-budget-arm-length-squared": (
        "noise-budget",
        {"arm_length_m": 1e300},
        "arm_length**2 must be finite",
    ),
    "photon-record-coherent-counts": ("photon-record", {"power_w": 1e6}, COUNT_ERROR),
    "photon-record-squeezed-counts": (
        "photon-record",
        {"power_w": 1e6, "noise_squeeze_db": 3.0},
        COUNT_ERROR,
    ),
    # Drawn, the record exited 3 with a message that named no parameter.
    "photon-record-one-window": (
        "photon-record",
        {"n_windows": 1},
        "n_windows must be finite and >= 2",
    ),
    # v n is about 6e-306 (v 5.6e-309, n 1,000), far below the 1/12 that
    # rounding to whole counts adds: the run wrote a Fano factor of 0.
    "photon-record-3082-db": (
        "photon-record",
        {"noise_squeeze_db": 3082.5},
        "count variance per window of non-Poissonian light must be finite and >= 1",
    ),
    # An 8-sample segment has 3 bins; _peak_snr masked all of them and wrote
    # nan SNRs, with numpy's "Mean of empty slice" warning, and exit 0.
    "snr-no-off-signal-bin": (
        "snr-equivalence",
        {"resolution_bandwidth_hz": 8192.0, "signal_frequency_hz": 16384.0},
        "signal_frequency_hz must leave a noise-floor bin beyond its neighbours",
    ),
    # Within 1e-9 of bin 0 (DC) and of bin 2048 (Nyquist), both of which
    # welch_psd drops: the tone was all zeros and _peak_snr read the nearest
    # kept bin, so the run wrote SNRs of noise over noise with exit 0.
    "snr-signal-at-dc": ("snr-equivalence", {"signal_frequency_hz": 1e-12}, OFF_BIN_ERROR),
    "snr-signal-at-nyquist": (
        "snr-equivalence",
        {"signal_frequency_hz": 32767.99999999999},
        OFF_BIN_ERROR,
    ),
}


# Each run fails by name before numpy computes anything that could overflow.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, params, message",
    list(DERIVED_FAILURES.values()),
    ids=list(DERIVED_FAILURES),
)
def test_a_derived_quantity_out_of_range_exits_3_by_name(
    tmp_path, capsys, name, params, message
):
    _assert_exits_3(tmp_path, capsys, name, params, message)


def _failing_config(name, params):
    """The config of a run that :func:`_assert_exits_3` expects to fail."""
    # The segment bound in SEGMENT_ERROR is n_samples.
    size = {"n_samples": 65536} if "n_samples" in EXPERIMENTS[name].params else {}
    parameters = {**REQUIRED.get(name, {}), **size, **params}
    return {"experiment": name, "seed": 1, "parameters": parameters}


def _assert_exits_3(tmp_path, capsys, name, params, message):
    """The run exits 3 with ``message`` as its one stderr line, and no output."""
    assert _run(tmp_path, _failing_config(name, params)) == 3
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "out").exists()


# id -> (experiment, parameters): squeezes whose anti-squeezed variance
# exp(2 r) overflows a float.  Their runs warned of numpy's overflow, then
# exited 3 naming the state covariance (5,000 dB) or the state mean (1e4 dB
# and up) instead of the squeeze.
SQUEEZE_FAILURES = {
    "bhd-5000-db": ("bhd-psd", {"squeeze_db": 5000.0}),
    "bhd-1e12-db": ("bhd-psd", {"squeeze_db": 1e12}),
    "snr-1e4-db": ("snr-equivalence", {"squeeze_db": 1e4}),
    "photon-5000-db": ("photon-record", {"noise_squeeze_db": 5000.0}),
    "budget-5000-db": ("noise-budget", {"squeeze_db": 5000.0}),
}
SQUEEZE_ERROR = "squeeze_db must be finite and >= 0 and <= 3082.55"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, params", list(SQUEEZE_FAILURES.values()), ids=list(SQUEEZE_FAILURES)
)
def test_a_squeeze_beyond_the_float_range_exits_3_by_name(tmp_path, capsys, name, params):
    _assert_exits_3(tmp_path, capsys, name, params, SQUEEZE_ERROR)


def _rejection(key):
    """A DERIVED_FAILURES or SQUEEZE_FAILURES run, laid out as REJECTED_CONFIGS."""
    if key in DERIVED_FAILURES:
        name, params, message = DERIVED_FAILURES[key]
    else:
        (name, params), message = SQUEEZE_FAILURES[key], SQUEEZE_ERROR
    return _failing_config(name, params), [], 3, f"validation error: {message}"


# Config errors and exit-3 runs of each kind above, by their ids, that a
# fresh interpreter repeats.
COLD_REJECTIONS = {
    key: REJECTED_CONFIGS[key]
    for key in ["experiment-list", "added-loss-not-number", "bhd-3082-db-at-30-deg"]
} | {
    key: _rejection(key)
    for key in [
        "snr-rbw-above-sample-rate",
        "snr-depth-times-sqrt-2",
        "fit-loss-residual",
        "snr-no-off-signal-bin",
        "snr-signal-at-dc",
        "bhd-5000-db",
    ]
}


# Each run by ``python -m sqzlab.cli``, on the package outside src/, where a
# RuntimeWarning is an error too (see tests/conftest.py).
@pytest.mark.parametrize(
    "payload, extra, code, line",
    list(COLD_REJECTIONS.values()),
    ids=list(COLD_REJECTIONS),
)
def test_a_cold_rejected_run_prints_one_line_and_writes_nothing(
    tmp_path, fresh_python, payload, extra, code, line
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out_dir = tmp_path / "out"
    args = ["run", "--config", str(config), *extra, "--out", str(out_dir)]
    result = fresh_python("-m", "sqzlab.cli", *args, check=False)
    assert (result.returncode, result.stderr) == (code, line + "\n")
    assert not out_dir.exists()


# 10 log10(max float) is about 3082.547 dB.  At 30 degrees, a quarter of the
# anti-squeezed variance reaches the measured quadrature: at 3,030 dB, about
# 2.5e302, 1024 segments of 128 samples times it stays finite (at 3082.5 dB
# see REJECTED_CONFIGS).  photon-record at 3082.5 dB is outside its
# bright-beam regime (see DERIVED_FAILURES).
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name, params",
    [
        ("bhd-psd", {"squeeze_db": 3082.5, "n_samples": 65536}),
        ("snr-equivalence", {"squeeze_db": 3082.5, "n_samples": 65536}),
        ("bhd-psd", {"squeeze_db": 1545.0, "squeeze_angle_deg": 30.0}),
        (
            "bhd-psd",
            {"squeeze_db": 3030.0, "squeeze_angle_deg": 30.0, "n_samples": 65536},
        ),
    ],
    ids=["bhd", "snr", "bhd-1545-db-at-30-deg", "bhd-3030-db-at-30-deg"],
)
def test_a_squeeze_just_inside_the_float_range_runs(tmp_path, name, params):
    parameters = {**REQUIRED.get(name, {}), **params}
    assert _run(tmp_path, {"experiment": name, "seed": 1, "parameters": parameters}) == 0


# Beyond about 1.3e154 linewidths the detuning's square overflowed, and with a
# subnormal linewidth the ratio itself: the run warned of numpy's overflow,
# or exited 4 under -W error::RuntimeWarning.  Past 2**60 linewidths both
# variances round to exactly 1.0.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "params",
    [
        {"frequency_start_hz": 1e300, "frequency_stop_hz": 1.7e308},
        {"half_linewidth_hz": 5e-324},
    ],
    ids=["up-to-1.7e308-hz", "subnormal-linewidth"],
)
def test_an_opo_spectrum_far_outside_its_linewidth_reads_shot_noise(tmp_path, params):
    parameters = {"frequency_points": 5, **params}
    payload = {"experiment": "opo-spectrum", "parameters": parameters, "output_format": "json"}
    assert _run(tmp_path, payload) == 0
    rows = json.loads((tmp_path / "out" / "opo-spectrum.json").read_text())["rows"]
    assert [row[1:] for row in rows] == [[1.0, 1.0, 0.0, 0.0]] * 5


# Every seeded run builds one generator, detection._rng (numpy's SFC64), from
# its seed: the LO leak is part of bhd-psd's one draw.
@pytest.mark.parametrize(
    "name, params",
    [
        ("bhd-psd", {}),
        ("bhd-psd", {"lo_noise_variance": 4.0, "balance_asymmetry": 0.25}),
        ("snr-equivalence", {}),
        ("photon-record", {}),
        ("photon-record", {"noise_squeeze_db": 3.0}),
    ],
    ids=["bhd", "bhd-lo-leak", "snr", "photon-poisson", "photon-squeezed"],
)
def test_no_seeded_run_calls_numpys_default_rng(tmp_path, monkeypatch, name, params):
    fail = "a seeded draw called numpy.random.default_rng"
    monkeypatch.setattr(np.random, "default_rng", lambda *_, **__: pytest.fail(fail))
    seeds, rng = [], detection._rng
    monkeypatch.setattr(detection, "_rng", lambda seed: seeds.append(seed) or rng(seed))
    parameters = {**REQUIRED.get(name, {}), **params}
    assert _run(tmp_path, {"experiment": name, "seed": 1, "parameters": parameters}) == 0
    assert seeds == [1]


# Boundary floats, and values just inside the bounds the models state:
# efficiencies and losses in [0, 1], the splitter's 0.5, the 0.01 power ratio.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-12, 1e12, 1e300, -1.0, 0.999999, 0.499999, 0.009999]
# Array sizes stay at most this, so that a run takes milliseconds.
SIZE_CAP = 4096
# Validation errors that name their parameters in a sentence rather than as
# "<name> must ...".
WORDED_ERRORS = {
    "set either gain or pump_ratio",
    "filter cavity needs both half linewidth and detuning, or neither",
    "choose either a filter cavity or matched_rotation, not both",
    "mean count is zero, Fano factor undefined",
}


def _values(param):
    """Values of a parameter's declared kind: edge floats and small sizes."""
    kind = param.kind.removesuffix("?")
    if kind == "int":
        values = st.sampled_from([-1, 0, 1, 2, 8, min(param.default, SIZE_CAP)])
    elif kind == "float":
        values = st.sampled_from(EDGE_FLOATS)
    elif kind == "bool":
        values = st.booleans()
    elif kind == "str":
        values = st.sampled_from([param.default, "other"])
    elif kind == "list":
        values = st.lists(st.sampled_from(EDGE_FLOATS), max_size=4)
    else:  # "list|str", fit-loss's measurements
        triple = st.lists(st.sampled_from(EDGE_FLOATS), min_size=3, max_size=3)
        values = st.sampled_from([param.default, "other"]) | st.lists(triple, max_size=4)
    return values if kind == param.kind else st.none() | values


@st.composite
def configs(draw):
    """A config of any experiment that changes up to three of its parameters."""
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    params = EXPERIMENTS[name].params
    parameters = dict(REQUIRED.get(name, {}))
    for pname, param in params.items():
        if param.bytes_each:
            parameters[pname] = min(param.default, SIZE_CAP)
    for pname in draw(st.lists(st.sampled_from(sorted(params)), max_size=3, unique=True)):
        parameters[pname] = draw(_values(params[pname]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    return {"experiment": name, "seed": 1, "parameters": parameters, "output_format": fmt}


def _not_finite(token):
    raise AssertionError(f"the output holds {token}")


def _assert_finite_numbers(path):
    """Every number in a CSV or JSON output file is finite."""
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_not_finite)
        return
    for line in text.splitlines():
        cells = [line.partition(" = ")[2]] if line.startswith("# ") else line.split(",")
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:  # a word: a column name, a shape, a boolean
                continue
            assert math.isfinite(value), f"{path.name}: {line}"


def _check_run(config):
    """Run ``config``: it exits 0 with finite outputs, 2, or 3 by name."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        # Extreme parameters overflow intermediate values, which numpy warns
        # about before a model's check rejects them.
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()):
                code = _run(Path(tmp), config)
        message = err.getvalue()
        assert code in (0, 2, 3), message
        if code == 0:
            for output in Path(tmp, "out").iterdir():
                _assert_finite_numbers(output)
        elif code == 3:
            reason = message.removeprefix("validation error: ").rstrip("\n")
            assert " must " in reason or reason in WORDED_ERRORS, message


@settings(max_examples=300, deadline=None)
@given(config=configs())
def test_every_config_runs_or_is_rejected_by_name(config):
    _check_run(config)
