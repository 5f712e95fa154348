"""End-to-end tests of the command line front end."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import sqzlab.cli as cli
from sqzlab.cli import EXPERIMENTS, build_parser, main


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, payload, *extra):
    config = _write_config(tmp_path / "config.json", payload)
    return main(["run", "--config", config, *extra])


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "photon-record" in out
    assert "seed required" in out


def test_list_output_bytes_are_pinned(capsys):
    # Parameter names, kinds, defaults and help texts, in registry order;
    # unlike argparse's --help layout, this does not vary with Python.
    assert main(["list"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "090c685635ad8c24ff57d2bdb8a77249e46672f18951d60939e8c1e6e0a5234f"
    )


def test_opo_csv_run(tmp_path):
    out_dir = tmp_path / "out"
    code = _run(
        tmp_path,
        {
            "experiment": "opo-spectrum",
            "parameters": {"frequency_points": 4},
            "output_path": str(out_dir),
        },
    )
    assert code == 0
    data = (out_dir / "opo-spectrum.csv").read_text()
    lines = data.splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "frequency_hz,v_squeeze,v_antisqueeze,squeeze_db,antisqueeze_db"
    assert "# experiment = opo-spectrum" in lines
    assert len([line for line in lines if not line.startswith("#")]) == 5

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest) == {"experiment", "parameters", "seed", "version", "outputs"}
    assert manifest["outputs"] == ["opo-spectrum.csv"]
    assert manifest["parameters"]["frequency_points"] == 4
    assert manifest["parameters"]["escape_efficiency"] == 0.914


def test_a_run_interrupted_before_its_manifest_leaves_no_stale_manifest(
    tmp_path, monkeypatch
):
    # The second run stops between its data rename and its manifest write,
    # as a SIGINT there would: the gain-63 manifest must not stand beside
    # gain-10 data.
    out = str(tmp_path / "out")
    payload = {"experiment": "opo-spectrum", "output_format": "json"}
    assert _run(tmp_path, payload, "--out", out) == 0
    write_json = cli.write_json

    def write_all_but_the_manifest(path, data):
        if path.name == "manifest.json":
            raise KeyboardInterrupt
        write_json(path, data)

    monkeypatch.setattr(cli, "write_json", write_all_but_the_manifest)
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, payload, "--out", out, "--set", "parameters.gain=10")
    data = json.loads((tmp_path / "out" / "opo-spectrum.json").read_text())
    assert data["parameters"]["gain"] == 10
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["opo-spectrum.json"]


def test_stochastic_rerun_is_byte_identical(tmp_path):
    payload = {
        "experiment": "photon-record",
        "parameters": {"power_w": 1.8669603920572637e-12, "n_windows": 500},
        "seed": 11,
    }
    assert _run(tmp_path, payload, "--out", str(tmp_path / "a")) == 0
    assert _run(tmp_path, payload, "--out", str(tmp_path / "b")) == 0
    first = (tmp_path / "a" / "photon-record.csv").read_bytes()
    second = (tmp_path / "b" / "photon-record.csv").read_bytes()
    assert first == second
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_different_seed_changes_data(tmp_path):
    base = {
        "experiment": "photon-record",
        "parameters": {"power_w": 1.8669603920572637e-12, "n_windows": 500},
        "seed": 11,
    }
    assert _run(tmp_path, base, "--out", str(tmp_path / "a")) == 0
    base["seed"] = 12
    assert _run(tmp_path, base, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "photon-record.csv").read_bytes() != (
        tmp_path / "b" / "photon-record.csv"
    ).read_bytes()


def test_json_output_payload(tmp_path):
    out_dir = tmp_path / "out"
    code = _run(
        tmp_path,
        {
            "experiment": "fit-loss",
            "output_path": str(out_dir),
            "output_format": "json",
        },
    )
    assert code == 0
    payload = json.loads((out_dir / "fit-loss.json").read_text())
    assert payload["experiment"] == "fit-loss"
    assert payload["result"]["converged"] is True
    # the bundled sweep was generated at 8.6 % intrinsic loss
    assert payload["result"]["intrinsic_loss"] == pytest.approx(0.086, abs=1e-3)
    assert abs(payload["result"]["phase_noise_deg"]) < 0.01


def test_set_overrides_nested_keys(tmp_path):
    out_dir = tmp_path / "out"
    code = _run(
        tmp_path,
        {"experiment": "decohere", "output_path": str(out_dir)},
        "--set",
        "parameters.gain=100",
        "--set",
        "parameters.added_losses=[0.0,0.25]",
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["parameters"]["gain"] == 100
    assert manifest["parameters"]["added_losses"] == [0.0, 0.25]
    rows = [
        line
        for line in (out_dir / "decohere.csv").read_text().splitlines()
        if not line.startswith("#") and line
    ]
    assert len(rows) == 3  # header plus two sweep points


def _help_text(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_runs_in_one_process_share_a_parser_but_not_its_arguments(tmp_path, capsys):
    assert build_parser() is build_parser()
    help_before = _help_text(capsys)
    assert main(["list"]) == 0
    list_before = capsys.readouterr().out
    config = _write_config(
        tmp_path / "config.json",
        {"experiment": "decohere", "output_path": str(tmp_path / "b")},
    )
    override = ["--set", "parameters.gain=100", "--out", str(tmp_path / "a")]
    assert main(["run", "--config", config, *override]) == 0
    assert main(["run", "--config", config]) == 0
    assert sorted(os.listdir(tmp_path)) == ["a", "b", "config.json"]
    first = json.loads((tmp_path / "a" / "manifest.json").read_text())
    second = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert first["parameters"]["gain"] == 100
    default_gain = EXPERIMENTS["decohere"].params["gain"].default
    assert second["parameters"]["gain"] == default_gain != 100
    capsys.readouterr()
    assert _help_text(capsys) == help_before
    assert help_before == build_parser.__wrapped__().format_help()
    assert main(["list"]) == 0
    assert capsys.readouterr().out == list_before


def test_set_accepts_bare_strings(tmp_path):
    out_dir = tmp_path / "out"
    code = _run(
        tmp_path,
        {
            "experiment": "photon-record",
            "parameters": {"power_w": 1.8669603920572637e-12, "n_windows": 200},
            "seed": 3,
            "output_path": str(out_dir),
        },
        "--set",
        "parameters.window_shape=gaussian",
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["parameters"]["window_shape"] == "gaussian"


def test_unknown_top_level_key_is_config_error(tmp_path, capsys):
    assert _run(tmp_path, {"experiment": "decohere", "extra": 1}) == 2
    assert "unknown top-level keys" in capsys.readouterr().err


def test_unknown_parameter_is_config_error(tmp_path, capsys):
    code = _run(tmp_path, {"experiment": "decohere", "parameters": {"gian": 63}})
    assert code == 2
    err = capsys.readouterr().err
    assert "gian" in err


def test_missing_required_parameter(tmp_path, capsys):
    assert _run(tmp_path, {"experiment": "photon-record", "seed": 1}) == 2
    assert "power_w" in capsys.readouterr().err


def test_stochastic_without_seed_is_config_error(tmp_path, capsys):
    code = _run(
        tmp_path,
        {"experiment": "photon-record", "parameters": {"power_w": 1e-12}},
    )
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_experiment(tmp_path):
    assert _run(tmp_path, {"experiment": "nope"}) == 2


def test_wrong_parameter_type(tmp_path, capsys):
    code = _run(tmp_path, {"experiment": "decohere", "parameters": {"gain": "big"}})
    assert code == 2
    assert "must be a number" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"experiment": "decohere",\n  bad}\n')
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    config = tmp_path / "latin1.json"
    config.write_bytes(b'{"experiment": "decohere", "output_path": "caf\xe9"}')
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read {config}: 'utf-8' codec can't decode byte 0xe9"
    )


BIG = 10**400


@pytest.mark.parametrize(
    "n_samples, gib",
    [(2**26 + 1, "2.0"), (10**18, "29802322387.7"), (BIG, str(32 * BIG >> 30))],
    ids=["just-over", "float-range", "beyond-float-range"],
)
def test_size_guard_message(tmp_path, capsys, n_samples, gib):
    payload = {"experiment": "bhd-psd", "seed": 1}
    assert _run(tmp_path, payload, "--set", f"parameters.n_samples={n_samples}") == 2
    assert capsys.readouterr().err == (
        f"config error: bhd-psd: parameter 'n_samples' = {n_samples} needs about "
        f"{gib} GiB, over the 2 GiB limit\n"
    )


def test_integer_too_long_for_python_is_config_error(tmp_path, capsys):
    # Python refuses to convert a decimal integer of more than 4300 digits
    # (3.11, and 3.10.7 on); a Python without that limit hits the size guard.
    digits = "1" + "0" * 5000
    config = tmp_path / "config.json"
    config.write_text(
        '{"experiment": "bhd-psd", "seed": 1, "parameters": {"n_samples": %s}}' % digits
    )
    assert main(["run", "--config", str(config)]) == 2
    override = f"parameters.n_samples={digits}"
    assert _run(tmp_path, {"experiment": "bhd-psd", "seed": 1}, "--set", override) == 2
    assert capsys.readouterr().err.count("config error: ") == 2


@pytest.mark.parametrize(
    "experiment, parameters, message",
    [
        (
            "opo-spectrum",
            '{"escape_efficiency": %s}',
            "escape_efficiency must be finite and >= 0 and <= 1",
        ),
        (
            "decohere",
            '{"added_losses": [0.0, %s]}',
            "added_loss must be finite and >= 0 and <= 1",
        ),
        (
            "fit-loss",
            '{"measurements": [[0.0, %s, 23.0], [0.1, -7.4, 22.6]]}',
            "squeeze_db must be finite and >= -3082.55 and <= 0",
        ),
    ],
    ids=["escape_efficiency", "added_losses", "measurements"],
)
def test_integer_beyond_float_range_reads_as_1e400(
    tmp_path, capsys, experiment, parameters, message
):
    out_dir = tmp_path / "out"
    for number in [str(BIG), "1e400"]:
        config = tmp_path / "config.json"
        config.write_text(
            f'{{"experiment": "{experiment}", "parameters": {parameters % number}}}'
        )
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out_dir.exists()


def test_model_validation_maps_to_exit_3(tmp_path, capsys):
    code = _run(
        tmp_path,
        {"experiment": "opo-spectrum", "parameters": {"gain": 0.5}},
    )
    assert code == 3
    assert "validation error" in capsys.readouterr().err


def test_output_collision_maps_to_exit_4(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("in the way")
    code = _run(
        tmp_path,
        {"experiment": "decohere", "output_path": str(blocker)},
    )
    assert code == 4


def test_seed_must_be_non_negative_integer(tmp_path):
    payload = {
        "experiment": "photon-record",
        "parameters": {"power_w": 1e-12},
        "seed": -1,
    }
    assert _run(tmp_path, payload) == 2
    payload["seed"] = 1.5
    assert _run(tmp_path, payload) == 2


def test_filter_cavity_needs_both_parameters(tmp_path, capsys):
    code = _run(
        tmp_path,
        {
            "experiment": "noise-budget",
            "parameters": {"filter_cavity_detuning_hz": 10.0},
            "output_path": str(tmp_path / "out"),
        },
    )
    assert code == 3
    assert "filter cavity" in capsys.readouterr().err


def test_noise_budget_run_and_crossover_metadata(tmp_path):
    out_dir = tmp_path / "out"
    code = _run(
        tmp_path,
        {
            "experiment": "noise-budget",
            "parameters": {"frequency_points": 10},
            "output_path": str(out_dir),
        },
    )
    assert code == 0
    text = (out_dir / "noise-budget.csv").read_text()
    assert "# crossover_frequency_hz = 9.989503380970636" in text


def test_noise_budget_writes_a_finite_crossover_where_kappa_at_1_rad_s_overflows(tmp_path):
    import mpmath

    # kappa at 1 rad/s, about 1e310, leaves the float range; its root does not.
    params = {"mirror_mass_kg": 1.58e-305, "sql_scale": 1e-250}
    grid = {"frequency_start_hz": 1e5, "frequency_stop_hz": 1e6}
    out_dir = tmp_path / "out"
    payload = {"experiment": "noise-budget", "parameters": {**params, **grid}}
    assert _run(tmp_path, payload, "--out", str(out_dir)) == 0
    line = (out_dir / "noise-budget.csv").read_text().splitlines()
    [written] = [x for x in line if x.startswith("# crossover_frequency_hz = ")]
    crossover = float(written.split(" = ")[1])
    with mpmath.workdps(50):
        c, two_pi = mpmath.mpf(299792458.0), 2 * mpmath.pi
        at_one = 8 * mpmath.mpf(1e6) * two_pi * c / mpmath.mpf(1.064e-6)
        exact = mpmath.sqrt(at_one / (mpmath.mpf(1.58e-305) * c**2)) / two_pi
        assert abs(mpmath.mpf(crossover) - exact) <= 2 * np.spacing(crossover)
    assert crossover == 1.5894444360058544e154


UNKNOWN_EXPERIMENT = "config error: unknown experiment {}; choose from " + str(
    sorted(EXPERIMENTS)
)
# id -> (config, extra arguments, exit code, the one stderr line).
REJECTED_CONFIGS = {
    "root-not-object": ([1], [], 2, "config error: config root must be a JSON object"),
    "override-without-equals": (
        {"experiment": "decohere"},
        ["--set", "gain"],
        2,
        "config error: override must look like key=value, got 'gain'",
    ),
    "override-into-string": (
        {"experiment": "decohere"},
        ["--set", "experiment.gain=1"],
        2,
        "config error: cannot descend into 'experiment': not an object",
    ),
    "no-experiment": ({}, [], 2, "config error: missing required key 'experiment'"),
    "parameters-not-object": (
        {"experiment": "decohere", "parameters": [1]},
        [],
        2,
        "config error: 'parameters' must be a JSON object",
    ),
    "unknown-format": (
        {"experiment": "decohere", "output_format": "xml"},
        [],
        2,
        "config error: output_format must be 'csv' or 'json'",
    ),
    "output-path-not-string": (
        {"experiment": "decohere", "output_path": 3},
        [],
        2,
        "config error: output_path must be a string",
    ),
    "measurement-not-triple": (
        {"experiment": "fit-loss", "parameters": {"measurements": [[0.0, -10.4]]}},
        [],
        2,
        "config error: measurements must contain 3-item lists",
    ),
    "measurements-other-string": (
        {"experiment": "fit-loss", "parameters": {"measurements": "mine"}},
        [],
        2,
        "config error: measurements must be a list of [added_loss, squeeze_db, "
        "antisqueeze_db] triples or the string 'bundled'",
    ),
    "added-loss-not-number": (
        {"experiment": "decohere", "parameters": {"added_losses": [0.0, "x"]}},
        [],
        2,
        "config error: added_losses must contain numbers",
    ),
    "neither-gain-nor-pump-ratio": (
        {"experiment": "opo-spectrum", "parameters": {"gain": None}},
        [],
        3,
        "validation error: set either gain or pump_ratio",
    ),
    "snr-lo-power-ratio": (
        {
            "experiment": "snr-equivalence",
            "seed": 1,
            "parameters": {"n_samples": 65536, "signal_to_lo_power_ratio": 0.02},
        },
        [],
        3,
        "validation error: signal_to_lo_power_ratio must be finite and >= 0 "
        "and < 0.01",
    ),
    # An override's value is strict JSON too, or else a bare string.
    "override-duplicate-key": (
        {"experiment": "decohere"},
        ["--set", 'parameters={"gain": 10, "gain": 20}'],
        2,
        "config error: duplicate key 'gain'",
    ),
    "override-nan-is-a-string": (
        {"experiment": "decohere"},
        ["--set", "parameters.gain=NaN"],
        2,
        "config error: decohere: parameter 'gain' must be a number, got 'NaN'",
    ),
    # A name that is not a string exited 4: a list or an object is unhashable.
    "experiment-list": (
        {"experiment": ["x"]},
        [],
        2,
        UNKNOWN_EXPERIMENT.format("['x']"),
    ),
    "experiment-object": (
        {"experiment": {"x": 1}},
        [],
        2,
        UNKNOWN_EXPERIMENT.format("{'x': 1}"),
    ),
    # A quarter of the anti-squeezed variance, about 1e308, reaches the
    # measured quadrature, so the PSD's sums of squares leave the float range.
    "bhd-3082-db-at-30-deg": (
        {
            "experiment": "bhd-psd",
            "seed": 1,
            "parameters": {
                "squeeze_db": 3082.5,
                "squeeze_angle_deg": 30.0,
                "n_samples": 65536,
            },
        },
        [],
        3,
        "validation error: max(n_samples, 1024 samples per PSD segment) times "
        "the homodyne variance (squeeze_db at squeeze_angle_deg and lo_phase_deg "
        "+ dark_noise_variance + (2 balance_asymmetry)**2 lo_noise_variance) "
        "must be finite",
    ),
}


@pytest.mark.parametrize(
    "payload, extra, code, line",
    list(REJECTED_CONFIGS.values()),
    ids=list(REJECTED_CONFIGS),
)
def test_a_rejected_config_prints_one_line_and_writes_nothing(
    tmp_path, capsys, payload, extra, code, line
):
    out_dir = tmp_path / "out"
    assert _run(tmp_path, payload, *extra, "--out", str(out_dir)) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out_dir.exists()


# id -> (config text, the end of the one stderr line).  Each parsed before:
# a key's last value won, and NaN and Infinity failed the model's range check
# with exit 3.
STRICT_JSON_FAILURES = {
    "duplicate-top-level-key": (
        '{"experiment": "opo-spectrum", "experiment": "decohere"}',
        "duplicate key 'experiment'",
    ),
    "duplicate-parameter": (
        '{"experiment": "decohere", "parameters": {"gain": 10, "gain": 20}}',
        "duplicate key 'gain'",
    ),
    "nan": (
        '{"experiment": "decohere", "parameters": {"gain": NaN}}',
        "NaN is not a JSON number",
    ),
    "infinity": (
        '{"experiment": "opo-spectrum", "parameters": {"escape_efficiency": Infinity}}',
        "Infinity is not a JSON number",
    ),
    "minus-infinity": (
        '{"experiment": "decohere", "parameters": {"added_losses": [0.0, -Infinity]}}',
        "-Infinity is not a JSON number",
    ),
}


@pytest.mark.parametrize(
    "text, message", list(STRICT_JSON_FAILURES.values()), ids=list(STRICT_JSON_FAILURES)
)
def test_a_config_that_is_not_strict_json_exits_2_by_name(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"config error: {config}: {message}\n"
    assert not out_dir.exists()


def test_an_override_of_nan_is_a_bare_string(tmp_path, monkeypatch):
    # It read as the float nan, and the run exited 2: output_path not a string.
    monkeypatch.chdir(tmp_path)
    assert _run(tmp_path, {"experiment": "decohere"}, "--set", "output_path=NaN") == 0
    assert (tmp_path / "NaN" / "manifest.json").exists()


def test_snr_equivalence_rejects_off_bin_signal(tmp_path, capsys):
    code = _run(
        tmp_path,
        {
            "experiment": "snr-equivalence",
            "parameters": {"signal_frequency_hz": 8192.3, "n_samples": 65536},
            "seed": 1,
        },
    )
    assert code == 3
    assert "bin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "assignment",
    ["gain=100", "frequency_hz=100000.0", "half_linewidth_hz=2000000.0"],
)
def test_fit_loss_bundled_rejects_other_sweep_conditions(tmp_path, capsys, assignment):
    out_dir = tmp_path / "out"
    code = _run(
        tmp_path,
        {"experiment": "fit-loss", "output_path": str(out_dir)},
        "--set",
        f"parameters.{assignment}",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert f"validation error: {assignment.split('=')[0]} must be" in err
    assert not (out_dir / "manifest.json").exists()


def test_failed_validation_leaves_no_output_directory(tmp_path, capsys):
    out_dir = tmp_path / "made-anyway"
    code = _run(
        tmp_path,
        {"experiment": "opo-spectrum", "parameters": {"gain": 0.5}},
        "--out",
        str(out_dir),
    )
    assert code == 3
    assert "validation error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "measurements",
    [
        [["0.0", "-10.4", "23"], [True, "-7.4", "22.6"]],
        [[0.0, -10.4, 23.0], [True, -7.4, 22.6]],
        [[0.0, -10.4, 23.0], [0.1, "-7.4", 22.6]],
        [[0.0, -10.4, None], [0.1, -7.4, 22.6]],
        [[0.0, -10.4, [23.0]], [0.1, -7.4, 22.6]],
    ],
)
def test_fit_loss_rejects_measurements_that_are_not_numbers(
    tmp_path, capsys, measurements
):
    out_dir = tmp_path / "out"
    code = _run(
        tmp_path,
        {
            "experiment": "fit-loss",
            "parameters": {"measurements": measurements},
            "output_path": str(out_dir),
        },
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: measurements must contain numbers\n"
    assert not out_dir.exists()


def test_fit_loss_runs_without_scipy(tmp_path, fresh_python):
    config = _write_config(tmp_path / "config.json", {"experiment": "fit-loss"})
    out_dir = tmp_path / "out"
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from sqzlab.cli import main\n"
        f"sys.exit(main(['run', '--config', {config!r}, '--out', {str(out_dir)!r}]))\n"
    )
    fresh_python("-c", script)
    assert (out_dir / "fit-loss.csv").stat().st_size > 0


def test_no_default_run_leaves_a_thread_behind(tmp_path, fresh_python):
    # A fresh interpreter runs every default experiment in turn: none imports
    # concurrent.futures or leaves a second Python thread behind.
    configs = []
    for name, experiment in EXPERIMENTS.items():
        payload = {"experiment": name, "seed": 1 if experiment.stochastic else None}
        if name == "photon-record":
            payload["parameters"] = {"power_w": 1e-12}
        configs.append(_write_config(tmp_path / f"{name}.json", payload))
    out = str(tmp_path / "out")
    script = (
        "import sys, threading\n"
        "from sqzlab.cli import main\n"
        f"for config in {configs!r}:\n"
        f"    if main(['run', '--config', config, '--out', {out!r}]) != 0:\n"
        "        sys.exit('run failed: ' + config)\n"
        "    if 'concurrent.futures' in sys.modules:\n"
        "        sys.exit('concurrent.futures imported by ' + config)\n"
        "    if threading.active_count() != 1:\n"
        "        sys.exit(f'{threading.active_count()} threads after ' + config)\n"
    )
    fresh_python("-c", script)
    assert len(configs) == len(EXPERIMENTS) == 7


def test_a_cold_cli_import_loads_no_thread_machinery(fresh_python):
    # snr-equivalence's worker needs only threading.  concurrent.futures
    # costs a cold start about 10 ms, because it imports logging, and queue
    # about 1.5 ms.
    script = (
        "import sys\n"
        "import sqzlab.cli\n"
        "print([m for m in ('concurrent.futures', 'queue') if m in sys.modules])\n"
    )
    assert json.loads(fresh_python("-c", script).stdout) == []


def test_a_cold_cli_import_compiles_no_generated_method(fresh_python):
    # dataclasses builds its generated methods by compiling source named
    # "<string>"; the records share _Record's methods, so none is built.
    # The hook counts the methods those sources define, not the sources:
    # Python 3.13 compiles one source per class even when it defines none.
    # The standard modules the CLI needs are imported before the hook.
    script = (
        "import argparse, dataclasses, json, pathlib, re, sys, threading\n"
        "import numpy\n"
        "method = re.compile(r'def (__(?:init|repr|eq|hash|setattr|delattr)__)\\(')\n"
        "compiled = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and args[1] == '<string>':\n"
        "        compiled.extend(method.findall(str(args[0])))\n"
        "sys.addaudithook(hook)\n"
        "import sqzlab.cli\n"
        "print(json.dumps(compiled))\n"
    )
    assert json.loads(fresh_python("-c", script).stdout) == []


def test_a_cold_cli_import_leaves_importlib_resources_to_fit_loss(fresh_python):
    # Without site, nothing else imports importlib.resources (and tempfile
    # with it); only fit-loss's read of its bundled sweep needs it.
    site_packages = str(Path(np.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.append({site_packages!r})\n"
        "import sqzlab.cli\n"
        "print([m for m in ('importlib.resources', 'tempfile') if m in sys.modules])\n"
    )
    assert json.loads(fresh_python("-S", "-c", script).stdout) == []


def test_import_sqzlab_leaves_numpy_to_first_use(fresh_python):
    script = (
        "import json, sys\n"
        "import sqzlab\n"
        "numpy_at_import = 'numpy' in sys.modules\n"
        "star = {}\n"
        "exec('from sqzlab import *', star)\n"
        "print(json.dumps({\n"
        "    'numpy_at_import': numpy_at_import,\n"
        "    'all': sqzlab.__all__,\n"
        "    'star': sorted(k for k in star if k != '__builtins__'),\n"
        "    'resolved': [getattr(sqzlab, n).__name__ for n in sqzlab.__all__],\n"
        "    'gaussian': sqzlab.gaussian.__name__,\n"
        "}))\n"
    )
    report = json.loads(fresh_python("-c", script).stdout)
    assert report["numpy_at_import"] is False
    assert len(report["all"]) == 52
    assert report["resolved"] == report["all"]
    assert report["star"] == sorted(report["all"])
    assert report["gaussian"] == "sqzlab.gaussian"


# Reports what importing the CLI with {statement} did to the environment
# and the thread count, after running {first}.  ``os.environ`` writes go
# through ``os.putenv``, which records the values written to
# OPENBLAS_NUM_THREADS; other names are left out, because numpy's own import
# sets and removes OPENBLAS_MAIN_FREE.
_CLI_IMPORT_REPORT = """\
import json, os
{first}
before = dict(os.environ)
written = []
putenv = os.putenv
os.putenv = lambda key, value: (written.append((key, value)), putenv(key, value))
{statement}
os.putenv = putenv
threads = None
if os.path.exists('/proc/self/status'):
    with open('/proc/self/status') as status:
        threads = int(status.read().split('Threads:')[1].split()[0])
print(json.dumps({{
    'environ_kept': dict(os.environ) == before,
    'blas_threads_set': [v.decode() for k, v in written if k == b'OPENBLAS_NUM_THREADS'],
    'openblas': os.environ.get('OPENBLAS_NUM_THREADS'),
    'threads': threads,
}}))
"""


@pytest.mark.parametrize("statement", ["import sqzlab.cli", "from sqzlab import cli"])
def test_cli_import_starts_one_blas_thread_and_restores_environ(
    fresh_python, statement
):
    script = _CLI_IMPORT_REPORT.format(first="", statement=statement)
    report = json.loads(fresh_python("-c", script).stdout)
    assert report["environ_kept"]
    assert report["blas_threads_set"] == ["1"]
    assert report["openblas"] is None
    if report["threads"] is None:
        pytest.skip("no /proc/self/status to count threads")
    assert report["threads"] == 1


def test_cli_import_keeps_a_user_set_blas_thread_count(fresh_python):
    script = _CLI_IMPORT_REPORT.format(first="", statement="import sqzlab.cli")
    report = json.loads(fresh_python("-c", script, OPENBLAS_NUM_THREADS="2").stdout)
    assert report["environ_kept"]
    assert report["blas_threads_set"] == []
    assert report["openblas"] == "2"


def test_cli_import_after_numpy_leaves_environ_alone(fresh_python):
    script = _CLI_IMPORT_REPORT.format(first="import numpy", statement="import sqzlab.cli")
    report = json.loads(fresh_python("-c", script).stdout)
    assert report["environ_kept"]
    assert report["blas_threads_set"] == []
    assert report["openblas"] is None
