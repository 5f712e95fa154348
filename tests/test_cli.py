"""End-to-end tests of the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqzlab
from sqzlab.cli import EXPERIMENTS, main


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
    assert code == 3
    assert "validation error: measurements must contain numbers" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()


def test_fit_loss_runs_without_scipy(tmp_path):
    config = _write_config(tmp_path / "config.json", {"experiment": "fit-loss"})
    out_dir = tmp_path / "out"
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from sqzlab.cli import main\n"
        f"sys.exit(main(['run', '--config', {config!r}, '--out', {str(out_dir)!r}]))\n"
    )
    src = str(Path(sqzlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (out_dir / "fit-loss.csv").stat().st_size > 0
