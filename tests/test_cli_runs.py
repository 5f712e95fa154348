"""Run-level guarantees of ``sqzlab run``: size limits checked before any
allocation, and one modulation sine per ``snr-equivalence`` run."""

import dataclasses
import json
import tracemalloc

import pytest

import sqzlab.cli as cli
import sqzlab.detection as detection
from sqzlab.cli import EXPERIMENTS, MAX_RUN_BYTES, _validate_config, main

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
    calls = []
    tone = detection._tone

    def spy(*args):
        calls.append(args)
        return tone(*args)

    monkeypatch.setattr(cli, "_tone", spy)
    monkeypatch.setattr(detection, "_tone", spy)
    assert _run(tmp_path, {"experiment": "snr-equivalence", "seed": 92928119}) == 0
    assert calls == [(1048576, 65536.0, 8192.0)]
