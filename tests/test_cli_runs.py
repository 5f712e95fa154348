"""Run-level guarantees of ``sqzlab run``: size limits checked before any
allocation, one modulation sine per ``snr-equivalence`` run, and its worker
thread joined whether the run succeeds or fails."""

import dataclasses
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import sqzlab.cli as cli
import sqzlab.detection as detection
from sqzlab.cli import EXPERIMENTS, MAX_RUN_BYTES, _validate_config, main
from sqzlab.gaussian import SqueezeSetting, squeeze, vacuum

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


def test_snr_equivalence_computes_its_sine_once(tmp_path, monkeypatch):
    # The sine is taken in place of this one phase array; any other tone,
    # add_signal_modulation's included, would compute a phase and show here.
    calls = []
    tone_phase = detection._tone_phase

    def spy(*args):
        calls.append(args)
        return tone_phase(*args)

    monkeypatch.setattr(cli, "_tone_phase", spy)
    monkeypatch.setattr(detection, "_tone_phase", spy)
    assert _run(tmp_path, {"experiment": "snr-equivalence", "seed": 92928119}) == 0
    assert calls == [(1048576, 65536.0, 8192.0)]


def _failing_second_psd(monkeypatch):
    welch_psd = cli.welch_psd
    calls = []

    def fails_on_second_call(series, resolution_bandwidth):
        calls.append(resolution_bandwidth)
        if len(calls) == 2:
            raise RuntimeError("injected failure in the second spectrum")
        return welch_psd(series, resolution_bandwidth)

    monkeypatch.setattr(cli, "welch_psd", fails_on_second_call)


# (parameters, fault injected, exit code, message): the message and code a
# serial run gives.  The first two fail on the worker thread, the last on
# this one while the worker takes the sine.
WORKER_FAILURES = [
    (
        {"resolution_bandwidth_hz": 16384.0, "signal_frequency_hz": 16384.0},
        None,
        3,
        "validation error: samples per PSD segment (sample_rate / "
        "resolution_bandwidth) must be finite and >= 8 and <= 65536",
    ),
    (
        {},
        _failing_second_psd,
        4,
        "runtime error: injected failure in the second spectrum",
    ),
    (
        {"signal_to_lo_power_ratio": 0.02},
        None,
        3,
        "validation error: signal_to_lo_power_ratio must be finite and >= 0 "
        "and < 0.01",
    ),
]


@pytest.mark.parametrize(
    "params, inject, code, message",
    WORKER_FAILURES,
    ids=["psd-rejects-segment", "psd-raises", "draw-rejects-ratio"],
)
def test_snr_equivalence_failure_joins_its_worker(
    tmp_path, monkeypatch, capsys, params, inject, code, message
):
    if inject is not None:
        inject(monkeypatch)
    threads = threading.active_count()
    payload = _config("snr-equivalence", "n_samples", 65536)
    payload["parameters"].update(params)
    assert _run(tmp_path, payload) == code
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "out").exists()
    assert threading.active_count() == threads


def test_snr_equivalence_success_joins_its_worker(tmp_path):
    threads = threading.active_count()
    assert _run(tmp_path, _config("snr-equivalence", "n_samples", 65536)) == 0
    assert threading.active_count() == threads


def _serial_snrs(params, seed):
    """The three arms drawn, modulated and analysed in turn on one thread."""
    fs = params["sample_rate_hz"]
    n = params["n_samples"]
    depth = params["modulation_depth"]
    # The sine of the shared phase, taken on this thread.
    tone = np.sin(detection._tone_phase(n, fs, params["signal_frequency_hz"]))
    squeezed = squeeze(vacuum(), SqueezeSetting.from_db(params["squeeze_db"]))
    detector = detection.DetectorParams(
        quantum_efficiency=params["quantum_efficiency"],
        visibility=params["visibility"],
    )
    snrs = []
    for state, case_depth, case_seed in zip(
        [squeezed, vacuum(), vacuum()],
        [depth, depth, depth * np.sqrt(2.0)],
        cli._child_seeds(seed, 3),
    ):
        series = detection.bhd_series(
            state, 0.0, params["signal_to_lo_power_ratio"], detector, n, case_seed, fs
        )
        series = detection._modulate(series, tone, case_depth)
        spectrum = detection.welch_psd(series, params["resolution_bandwidth_hz"])
        snrs.append(cli._peak_snr(spectrum, params["signal_frequency_hz"]))
    return snrs


def test_snr_equivalence_matches_a_serial_run_whatever_the_switch_interval():
    # A 1 us switch interval makes the two threads trade the interpreter
    # lock far more often than the default 5 ms does.
    payload = _config("snr-equivalence", "n_samples", 65536)
    _, params, seed, _, _ = _validate_config(payload)
    expected = _serial_snrs(params, seed)
    keys = ["snr_squeezed", "snr_coherent_equal_power", "snr_coherent_double_power"]
    interval = sys.getswitchinterval()
    try:
        for switch in [interval, 1e-6, 1e-6, 1e-6]:
            sys.setswitchinterval(switch)
            result = cli._run_snr_equivalence(params, seed).result
            assert [result[key] for key in keys] == expected
    finally:
        sys.setswitchinterval(interval)
