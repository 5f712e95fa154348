"""The package surface: exported names, version, JSON output text, and the
layout that fresh interpreters import."""

from pathlib import Path

import numpy as np

import sqzlab
from sqzlab.io import write_json

PUBLIC_NAMES = {
    "BudgetCurve",
    "DetectorParams",
    "FilterCavityParams",
    "FitResult",
    "GaussianState",
    "IfoConfig",
    "LightSource",
    "LossBudget",
    "MeasurementWindowing",
    "NoiseSpectrum",
    "OpoParams",
    "PhaseNoise",
    "PhotonRecord",
    "SqueezeMeasurement",
    "SqueezeSetting",
    "SqueezeSpectrumPoint",
    "TimeSeries",
    "add_signal_modulation",
    "apply_loss",
    "apply_phase_noise",
    "bhd_series",
    "coherent",
    "crossover_frequency",
    "db_from_variance",
    "effective_improvement",
    "fano_factor",
    "filter_cavity_angle",
    "fit_loss_phase",
    "forward_model",
    "kappa",
    "loss_for_improvement",
    "mean_photon_number",
    "mean_photons_per_window",
    "opo_spectrum",
    "parametric_gain",
    "photon_flux",
    "power_for_mean_photons",
    "pump_ratio_from_gain",
    "quadrature_variance",
    "quantum_noise_budget",
    "rotate",
    "sample_photon_record",
    "single_pd_series",
    "snr_equivalent_power_gain",
    "spectrum_to_state",
    "squeeze",
    "standard_quantum_limit",
    "total_efficiency",
    "variance_from_db",
    "vacuum",
    "visibility_efficiency",
    "welch_psd",
}


def test_public_names_are_pinned_and_resolve():
    assert len(sqzlab.__all__) == len(PUBLIC_NAMES) == 52
    assert set(sqzlab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sqzlab, name).__name__ == name
    assert sqzlab.__version__ == "0.1.0"


def test_write_json_renders_numpy_floats_and_tuple_rows(tmp_path):
    path = tmp_path / "out.json"
    payload = {
        "seed": None,
        "metadata": {"mean": np.float64(0.1) + np.float64(0.2), "ok": True},
        "rows": [(0, 1.5), (1, np.float64(6.62607015e-34))],
    }
    write_json(path, payload)
    assert path.read_text(encoding="utf-8") == (
        "{\n"
        '  "seed": null,\n'
        '  "metadata": {\n'
        '    "mean": 0.30000000000000004,\n'
        '    "ok": true\n'
        "  },\n"
        '  "rows": [\n'
        "    [\n"
        "      0,\n"
        "      1.5\n"
        "    ],\n"
        "    [\n"
        "      1,\n"
        "      6.62607015e-34\n"
        "    ]\n"
        "  ]\n"
        "}\n"
    )


def test_fresh_interpreters_import_sqzlab_from_outside_src(fresh_python):
    script = "import os, sqzlab; print(os.path.realpath(sqzlab.__file__))"
    package = Path(fresh_python("-c", script).stdout.strip()).parent
    assert not package.is_relative_to(Path(__file__).resolve().parents[1] / "src")
    assert (package / "data" / "synthetic_loss_sweep.json").is_file()
