"""Command line front end running reproducible numerical experiments.

Usage::

    sqzlab list
    sqzlab run --config cfg.json [--set key=value ...] [--out DIR]

A config file is a JSON object with keys ``experiment``, ``parameters``,
``seed``, ``output_path``, and ``output_format`` (csv or json).  Unknown
keys anywhere are rejected.  Stochastic experiments require an integer
seed, and a rerun of the same config writes byte-identical output files.
Every run also writes a ``manifest.json`` recording the experiment name,
the fully resolved parameters, the seed, the package version, and the
output file names.

Exit codes: 0 success, 2 config error, 3 validation error from a model
precondition, 4 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Mapping

# numpy's OpenBLAS starts a worker thread at import that spins for about
# 0.1 s of CPU before it sleeps, and sqzlab makes no BLAS call that could
# use it.  When this import is the process's first of numpy and the user has
# not chosen a thread count, OpenBLAS starts with one thread; the variable
# goes again at once, so later code and child processes never see it.  A
# library user who imported numpy first keeps their pool.
_ONE_BLAS_THREAD = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .budget import (
    FilterCavityParams,
    IfoConfig,
    crossover_frequency,
    quantum_noise_budget,
    snr_equivalent_power_gain,
)
from .decoherence import (
    PhaseNoise,
    SqueezeMeasurement,
    fit_loss_phase,
    forward_model,
)
from .detection import (
    DetectorParams,
    LightSource,
    MeasurementWindowing,
    _bhd_noise,
    _psd_segment,
    _series_variance,
    _tone_snrs,
    bhd_series,
    fano_factor,
    mean_photons_per_window,
    sample_photon_record,
    welch_psd,
)
from .gaussian import SqueezeSetting, _Record, check_range, db_from_variance, squeeze, vacuum
from .io import write_csv, write_json
from .opo import OpoParams, opo_spectrum, parametric_gain, pump_ratio_from_gain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

_TOP_LEVEL_KEYS = {"experiment", "parameters", "seed", "output_path", "output_format"}
_REQUIRED = object()
_BUNDLED_DATASET = "data/synthetic_loss_sweep.json"
# A run whose size parameter asks for more estimated memory than this fails
# at config time, before anything is allocated.
MAX_RUN_BYTES = 2**31
# Parameter kind -> (accepted JSON value types, wording of the type error).
# A kind ending in "?" also accepts null.
_KINDS = {
    "float": ((int, float), "a number"),
    "int": (int, "an integer"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
    "list": (list, "a list"),
    "list|str": ((list, str), "a list or a string"),
}


class ConfigError(Exception):
    """Raised for config-file or override problems (exit code 2)."""


class Param(_Record):
    """One experiment parameter: its kind, default, help and bytes per unit."""

    kind: str
    default: Any = _REQUIRED
    help: str = ""
    # For a size parameter: the run's peak memory per unit of its value, an
    # upper bound of what tracemalloc sees for CSV and JSON output alike.
    bytes_each: int = 0


class ExperimentOutcome(_Record):
    """What a runner returns: metadata, the table and an optional result."""

    metadata: dict
    columns: list
    rows: np.ndarray | list
    result: dict | None = None


class Experiment(_Record):
    """A runnable experiment: summary, seeding, parameters and runner."""

    summary: str
    stochastic: bool
    params: dict[str, Param]
    run: Callable[[dict, int | None], ExperimentOutcome]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _frequency_grid(params: Mapping[str, Any]) -> np.ndarray:
    start = params["frequency_start_hz"]
    stop = params["frequency_stop_hz"]
    points = params["frequency_points"]
    check_range("frequency_points", points, ge=2)
    check_range("frequency_start_hz", start, gt=0.0, lt=stop)
    if params["log_spacing"]:
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


def _check_numbers(name: str, values: list) -> None:
    """Reject entries that are not JSON numbers; bool is an int subclass."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ConfigError(f"{name} must contain numbers")


def _float(value: int | float) -> float:
    """``float(value)``; an int beyond the float range reads as +-inf, as the
    JSON number ``1e400`` does, so that the model's range check rejects it."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _run_opo_spectrum(params: dict, seed: int | None) -> ExperimentOutcome:
    if params["pump_ratio"] is not None:
        pump = params["pump_ratio"]
    elif params["gain"] is not None:
        pump = pump_ratio_from_gain(params["gain"])
    else:
        raise ValueError("set either gain or pump_ratio")
    cavity = OpoParams(pump, params["escape_efficiency"], params["half_linewidth_hz"])
    point = opo_spectrum(cavity, _frequency_grid(params))
    f, v_s, v_a = point.frequency, point.v_squeeze, point.v_antisqueeze
    rows = np.column_stack([f, v_s, v_a, db_from_variance(v_s), db_from_variance(v_a)])
    metadata = {
        "pump_ratio": pump,
        "parametric_gain": parametric_gain(pump),
        "escape_efficiency": params["escape_efficiency"],
        "half_linewidth_hz": params["half_linewidth_hz"],
    }
    columns = [
        "frequency_hz",
        "v_squeeze",
        "v_antisqueeze",
        "squeeze_db",
        "antisqueeze_db",
    ]
    return ExperimentOutcome(metadata, columns, rows)


def _run_decohere(params: dict, seed: int | None) -> ExperimentOutcome:
    noise = PhaseNoise.from_degrees(params["phase_noise_deg"])
    added = params["added_losses"]
    _check_numbers("added_losses", added)
    added = [_float(value) for value in added]
    s_db, a_db = forward_model(
        params["gain"],
        params["intrinsic_loss"],
        added,
        noise,
        params["frequency_hz"],
        params["half_linewidth_hz"],
    )
    rows = np.column_stack([added, s_db, a_db])
    metadata = {
        "gain": params["gain"],
        "intrinsic_loss": params["intrinsic_loss"],
        "phase_noise_deg": params["phase_noise_deg"],
    }
    return ExperimentOutcome(
        metadata, ["added_loss", "squeeze_db", "antisqueeze_db"], rows
    )


def _load_bundled_measurements() -> dict:
    from importlib import resources  # with its tempfile chain, only for this read
    text = resources.files("sqzlab").joinpath(_BUNDLED_DATASET).read_text("utf-8")
    return json.loads(text)


def _run_fit_loss(params: dict, seed: int | None) -> ExperimentOutcome:
    triples = params["measurements"]
    origin = "config"
    if isinstance(triples, str):
        if triples != "bundled":
            raise ConfigError(
                "measurements must be a list of [added_loss, squeeze_db, "
                "antisqueeze_db] triples or the string 'bundled'"
            )
        payload = _load_bundled_measurements()
        # The bundled sweep was taken at fixed conditions; a fit under others
        # would silently disagree with the parameters the manifest records.
        for key in ("gain", "frequency_hz", "half_linewidth_hz"):
            if params[key] != payload[key]:
                raise ValueError(
                    f"{key} must be {payload[key]!r}, the bundled sweep's value, "
                    f"got {params[key]!r}"
                )
        triples = payload["measurements"]
        origin = "bundled"
    gain = params["gain"]
    if any(not isinstance(t, (list, tuple)) or len(t) != 3 for t in triples):
        raise ConfigError("measurements must contain 3-item lists")
    _check_numbers("measurements", [value for triple in triples for value in triple])
    measurements = [SqueezeMeasurement(*map(_float, triple)) for triple in triples]
    fixed = params["fixed_phase_noise_deg"]
    fixed_noise = None if fixed is None else PhaseNoise.from_degrees(fixed)
    fit = fit_loss_phase(
        measurements,
        gain,
        params["frequency_hz"],
        params["half_linewidth_hz"],
        fixed_phase_noise=fixed_noise,
    )
    result = {
        "intrinsic_loss": fit.intrinsic_loss,
        "phase_noise_deg": fit.phase_noise.degrees,
        "residual": fit.residual,
        "converged": fit.converged,
    }
    metadata = {
        "measurement_source": origin,
        "gain": gain,
        "n_measurements": len(measurements),
        "fit_mode": "fixed-jitter" if fixed_noise is not None else "free-jitter",
    }
    columns = ["intrinsic_loss", "phase_noise_deg", "residual", "converged"]
    rows = [tuple(result[c] for c in columns)]
    return ExperimentOutcome(metadata, columns, rows, result)


def _run_photon_record(params: dict, seed: int | None) -> ExperimentOutcome:
    state = squeeze(vacuum(), SqueezeSetting.from_db(params["noise_squeeze_db"]))
    source = LightSource(
        params["wavelength_m"], params["power_w"], params["coherence_time_s"]
    )
    windowing = MeasurementWindowing(
        params["window_s"], params["window_shape"], params["n_windows"]
    )
    check_range("n_windows", windowing.n_windows, ge=2)  # for the Fano factor
    record = sample_photon_record(state, source, windowing, seed)
    metadata = {
        "expected_mean_count": mean_photons_per_window(source, windowing),
        "mean_count": record.mean,
        "fano_factor": fano_factor(record),
        "window_shape": windowing.shape,
    }
    rows = np.column_stack([np.arange(record.counts.size), record.counts])
    result = {"mean_count": record.mean, "fano_factor": metadata["fano_factor"]}
    return ExperimentOutcome(metadata, ["window_index", "count"], rows, result)


def _run_bhd_psd(params: dict, seed: int | None) -> ExperimentOutcome:
    setting = SqueezeSetting.from_db(
        params["squeeze_db"], np.deg2rad(params["squeeze_angle_deg"])
    )
    state = squeeze(vacuum(), setting)
    n_segment = _psd_segment(
        params["sample_rate_hz"], params["resolution_bandwidth_hz"], params["n_samples"]
    )
    detector = DetectorParams(
        quantum_efficiency=params["quantum_efficiency"],
        dark_noise_variance=params["dark_noise_variance"],
        visibility=params["visibility"],
        balance_asymmetry=params["balance_asymmetry"],
    )
    lo_phase = np.deg2rad(params["lo_phase_deg"])
    ratio, lo_noise = params["signal_to_lo_power_ratio"], params["lo_noise_variance"]
    n_samples, fs = params["n_samples"], params["sample_rate_hz"]
    # A segment's |rFFT|**2 passes 1024 n_segment times the variance with odds
    # e**-1024; welch_psd's and _series_variance's sums reach n_samples times it.
    variance = _bhd_noise(state, lo_phase, ratio, detector, lo_noise)
    name = "max(n_samples, 1024 samples per PSD segment) times the homodyne variance"
    name += " (squeeze_db at squeeze_angle_deg and lo_phase_deg + dark_noise_variance"
    name += " + (2 balance_asymmetry)**2 lo_noise_variance)"
    check_range(name, max(n_samples, 1024 * n_segment) * variance)
    series = bhd_series(state, lo_phase, ratio, detector, n_samples, seed, fs, lo_noise)
    spectrum = welch_psd(series, params["resolution_bandwidth_hz"])
    rows = np.column_stack(
        [spectrum.frequencies, spectrum.psd, db_from_variance(spectrum.psd)]
    )
    metadata = {
        "series_variance": _series_variance(series.samples),
        "resolution_bandwidth_hz": spectrum.resolution_bandwidth,
        "n_averages": n_samples // n_segment,
    }
    columns = ["frequency_hz", "psd_rel_shot", "psd_db"]
    return ExperimentOutcome(metadata, columns, rows)


def _run_snr_equivalence(params: dict, seed: int | None) -> ExperimentOutcome:
    detector = DetectorParams(
        quantum_efficiency=params["quantum_efficiency"],
        visibility=params["visibility"],
    )
    squeezed = squeeze(vacuum(), SqueezeSetting.from_db(params["squeeze_db"]))
    depth, ratio = params["modulation_depth"], params["signal_to_lo_power_ratio"]
    # Doubling the carrier power scales the shot-relative modulation depth by
    # sqrt(2) while the noise floor stays at shot noise.
    cases = [(squeezed, depth), (vacuum(), depth), (vacuum(), depth * 2.0**0.5)]
    # A squeezer scales the vacuum quadrature it acts on, so each arm is one
    # unit draw scaled by its own homodyne sigma.
    arms = [(_bhd_noise(s, 0.0, ratio, detector, 0.0), d) for s, d in cases]
    f_signal, fs = params["signal_frequency_hz"], params["sample_rate_hz"]
    rbw = params["resolution_bandwidth_hz"]
    squeezed_snr, equal_snr, double_snr = _tone_snrs(
        arms, params["n_samples"], fs, rbw, f_signal, seed
    )
    result = {
        "snr_squeezed": squeezed_snr,
        "snr_coherent_equal_power": equal_snr,
        "snr_coherent_double_power": double_snr,
        "improvement_over_equal_power": squeezed_snr / equal_snr,
        "ratio_to_double_power": squeezed_snr / double_snr,
        "equivalent_power_gain": snr_equivalent_power_gain(params["squeeze_db"]),
    }
    metadata = {
        "squeeze_db": params["squeeze_db"],
        "modulation_depth": depth,
        "signal_frequency_hz": f_signal,
    }
    columns = list(result)
    return ExperimentOutcome(metadata, columns, [tuple(result.values())], result)


def _run_noise_budget(params: dict, seed: int | None) -> ExperimentOutcome:
    half_linewidth = params["filter_cavity_half_linewidth_hz"]
    detuning = params["filter_cavity_detuning_hz"]
    if (half_linewidth is None) != (detuning is None):
        raise ValueError(
            "filter cavity needs both half linewidth and detuning, or neither"
        )
    cavity = (
        None
        if half_linewidth is None
        else FilterCavityParams(half_linewidth, detuning)
    )
    config = IfoConfig(
        arm_power=params["arm_power_w"],
        mirror_mass=params["mirror_mass_kg"],
        arm_length=params["arm_length_m"],
        wavelength=params["wavelength_m"],
        detection_efficiency=params["detection_efficiency"],
        injection_loss=params["injection_loss"],
        injected_squeeze=SqueezeSetting.from_db(
            params["squeeze_db"], float(np.deg2rad(params["squeeze_angle_deg"]))
        ),
        filter_cavity=cavity,
        matched_rotation=params["matched_rotation"],
        sql_scale=params["sql_scale"],
    )
    curve = quantum_noise_budget(config, _frequency_grid(params))
    rows = np.column_stack(
        [curve.frequencies, curve.shot, curve.rpn, curve.total, curve.sql]
    )
    metadata = {"crossover_frequency_hz": crossover_frequency(config)}
    columns = ["frequency_hz", "shot", "rpn", "total", "sql"]
    return ExperimentOutcome(metadata, columns, rows)


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    "opo-spectrum": Experiment(
        "squeezing and anti-squeezing spectra of a below-threshold cavity "
        "versus sideband frequency",
        False,
        {
            "gain": Param(
                "float?", 63.0, "parametric gain; ignored when pump_ratio is set"
            ),
            "pump_ratio": Param(
                "float?", None, "pump amplitude over threshold in [0, 1); overrides gain"
            ),
            "escape_efficiency": Param("float", 0.914, "output-coupler escape efficiency"),
            "half_linewidth_hz": Param("float", 1.0e7, "cavity half linewidth"),
            "frequency_start_hz": Param("float", 1.0e4, "first sideband frequency"),
            "frequency_stop_hz": Param("float", 1.0e8, "last sideband frequency"),
            "frequency_points": Param(
                "int", 200, "number of grid points", bytes_each=1024
            ),
            "log_spacing": Param("bool", True, "log-spaced grid if true"),
        },
        _run_opo_spectrum,
    ),
    "decohere": Experiment(
        "squeeze and anti-squeeze factors along a deliberate loss sweep, "
        "including phase jitter",
        False,
        {
            "gain": Param("float", 63.0, "parametric gain of the source"),
            "intrinsic_loss": Param("float", 0.086, "loss already in the setup"),
            "phase_noise_deg": Param("float", 0.0, "RMS quadrature jitter"),
            "added_losses": Param(
                "list", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], "added-loss sweep values"
            ),
            "frequency_hz": Param("float", 0.0, "sideband frequency"),
            "half_linewidth_hz": Param("float", 1.0e6, "cavity half linewidth"),
        },
        _run_decohere,
    ),
    "fit-loss": Experiment(
        "infer intrinsic loss and phase jitter from a measured loss sweep",
        False,
        {
            "measurements": Param(
                "list|str",
                "bundled",
                "[added_loss, squeeze_db, antisqueeze_db] triples, or 'bundled' "
                "for the packaged synthetic sweep",
            ),
            "gain": Param("float", 63.0, "parametric gain during the sweep"),
            "frequency_hz": Param("float", 0.0, "sideband frequency"),
            "half_linewidth_hz": Param("float", 1.0e6, "cavity half linewidth"),
            "fixed_phase_noise_deg": Param(
                "float?", None, "hold the jitter fixed and fit only the loss"
            ),
        },
        _run_fit_loss,
    ),
    "photon-record": Experiment(
        "per-window photon counts of a carrier with coherent or squeezed "
        "amplitude noise",
        True,
        {
            "noise_squeeze_db": Param(
                "float", 0.0, "amplitude squeezing of the noise state; 0 is coherent"
            ),
            "power_w": Param("float", _REQUIRED, "carrier optical power"),
            "wavelength_m": Param("float", 1.064e-6, "carrier wavelength"),
            "coherence_time_s": Param("float", 1.0e-2, "source coherence time"),
            "window_s": Param("float", 1.0e-4, "counting-window duration"),
            "window_shape": Param(
                "str", "rectangular", "rectangular or gaussian (metadata only)"
            ),
            "n_windows": Param(
                "int", 100000, "number of counting windows", bytes_each=512
            ),
        },
        _run_photon_record,
    ),
    "bhd-psd": Experiment(
        "balanced-homodyne noise spectrum of a squeezed mode, relative to "
        "shot noise",
        True,
        {
            "squeeze_db": Param("float", 10.0, "injected squeezing magnitude"),
            "squeeze_angle_deg": Param("float", 0.0, "squeezed-axis angle"),
            "lo_phase_deg": Param("float", 0.0, "local-oscillator phase"),
            "quantum_efficiency": Param("float", 0.995, "photodiode efficiency"),
            "visibility": Param("float", 0.99, "signal/LO fringe visibility"),
            "dark_noise_variance": Param("float", 0.0, "detector dark noise"),
            "balance_asymmetry": Param("float", 0.0, "splitter deviation from 50/50"),
            "lo_noise_variance": Param(
                "float", 0.0, "classical LO intensity noise relative to shot"
            ),
            "signal_to_lo_power_ratio": Param("float", 0.005, "must stay below 0.01"),
            "sample_rate_hz": Param("float", 262144.0, "photocurrent sample rate"),
            "n_samples": Param("int", 2097152, "number of samples", bytes_each=32),
            "resolution_bandwidth_hz": Param("float", 2048.0, "PSD bin width"),
        },
        _run_bhd_psd,
    ),
    "snr-equivalence": Experiment(
        "signal-to-noise of a modulation on a squeezed floor versus raising "
        "the carrier power",
        True,
        {
            "squeeze_db": Param(
                "float", 3.0103, "squeezing magnitude (3.0103 dB halves the variance)"
            ),
            "modulation_depth": Param("float", 0.5, "signal amplitude over shot noise"),
            "signal_frequency_hz": Param("float", 8192.0, "must sit on a PSD bin"),
            "sample_rate_hz": Param("float", 65536.0, "photocurrent sample rate"),
            "n_samples": Param("int", 1048576, "samples per case", bytes_each=40),
            "resolution_bandwidth_hz": Param("float", 16.0, "PSD bin width"),
            "quantum_efficiency": Param("float", 1.0, "photodiode efficiency"),
            "visibility": Param("float", 1.0, "signal/LO fringe visibility"),
            "signal_to_lo_power_ratio": Param("float", 0.005, "must stay below 0.01"),
        },
        _run_snr_equivalence,
    ),
    "noise-budget": Experiment(
        "interferometer quantum noise budget with optional squeezed-light "
        "injection and input filtering",
        False,
        {
            "arm_power_w": Param("float", 1.0e6, "circulating arm power"),
            "mirror_mass_kg": Param("float", 40.0, "test-mass mirror mass"),
            "arm_length_m": Param("float", 4000.0, "arm length"),
            "wavelength_m": Param("float", 1.064e-6, "laser wavelength"),
            "detection_efficiency": Param("float", 1.0, "readout efficiency"),
            "injection_loss": Param("float", 0.0, "squeezed-path injection loss"),
            "squeeze_db": Param("float", 0.0, "injected squeezing; 0 is vacuum"),
            "squeeze_angle_deg": Param(
                "float", 90.0, "90 squeezes the shot-noise quadrature"
            ),
            "filter_cavity_half_linewidth_hz": Param(
                "float?", None, "rotation-cavity half linewidth"
            ),
            "filter_cavity_detuning_hz": Param("float?", None, "rotation-cavity detuning"),
            "matched_rotation": Param(
                "bool", False, "idealized frequency-dependent angle matching"
            ),
            "sql_scale": Param("float", 1.0, "overall envelope scale"),
            "frequency_start_hz": Param("float", 1.0, "first sideband frequency"),
            "frequency_stop_hz": Param("float", 1000.0, "last sideband frequency"),
            "frequency_points": Param(
                "int", 120, "number of grid points", bytes_each=1024
            ),
            "log_spacing": Param("bool", True, "log-spaced grid if true"),
        },
        _run_noise_budget,
    ),
}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def _json_dict(pairs: list) -> dict:
    if len(obj := dict(pairs)) < len(pairs):  # a key comes twice: name the first
        key = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
        raise ConfigError(f"duplicate key {key!r}")
    return obj


def _json_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")  # to --set, a bare word


def _load_config(path_text: str) -> dict:
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        config = json.loads(text, object_pairs_hook=_json_dict, parse_constant=_json_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, ConfigError) as exc:  # too many digits, NaN, a key twice
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _apply_override(config: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"override must look like key=value, got {assignment!r}")
    try:
        value = json.loads(raw, object_pairs_hook=_json_dict, parse_constant=_json_constant)
    except ValueError:  # not JSON (NaN too), or an integer with too many digits
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise ConfigError(f"cannot descend into {part!r}: not an object")
        node = child
    node[parts[-1]] = value


def _coerce(experiment: str, name: str, param: Param, value: Any) -> Any:
    kind = param.kind.removesuffix("?")
    if value is None and kind != param.kind:
        return None
    types, expected = _KINDS[kind]
    # bool is an int subclass, so only the bool kind accepts it.
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ConfigError(
            f"{experiment}: parameter {name!r} must be {expected}, "
            f"got {value!r}"
        )
    return _float(value) if kind == "float" else value


def _validate_config(config: dict) -> tuple[str, dict, int | None, str, str]:
    unknown = sorted(set(config) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown top-level keys {unknown}; allowed: {sorted(_TOP_LEVEL_KEYS)}"
        )
    if "experiment" not in config:
        raise ConfigError("missing required key 'experiment'")
    name = config["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS:  # a list is unhashable
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    experiment = EXPERIMENTS[name]
    raw = config.get("parameters", {})
    if not isinstance(raw, dict):
        raise ConfigError("'parameters' must be a JSON object")
    unknown = sorted(set(raw) - set(experiment.params))
    if unknown:
        raise ConfigError(
            f"unknown parameters for {name}: {unknown}; "
            f"allowed: {sorted(experiment.params)}"
        )
    params = {}
    for pname, param in experiment.params.items():
        if pname in raw:
            params[pname] = _coerce(name, pname, param, raw[pname])
        elif param.default is _REQUIRED:
            raise ConfigError(f"{name}: missing required parameter {pname!r}")
        else:
            params[pname] = param.default
    for pname, param in experiment.params.items():
        need = param.bytes_each and param.bytes_each * params[pname]
        if need > MAX_RUN_BYTES:
            try:
                gib = f"{need / 2**30:.1f}"
            except OverflowError:  # an integer beyond the float range
                gib = f"{need >> 30}"
            raise ConfigError(
                f"{name}: parameter {pname!r} = {params[pname]} needs about "
                f"{gib} GiB, over the {MAX_RUN_BYTES / 2**30:g} GiB limit"
            )
    seed = config.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ConfigError("seed must be a non-negative integer")
    if experiment.stochastic and seed is None:
        raise ConfigError(f"experiment {name} samples noise: an integer seed is required")
    output_format = config.get("output_format", "csv")
    if output_format not in ("csv", "json"):
        raise ConfigError("output_format must be 'csv' or 'json'")
    output_path = config.get("output_path", ".")
    if not isinstance(output_path, str):
        raise ConfigError("output_path must be a string")
    return name, params, seed, output_path, output_format


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    for assignment in args.set or []:
        _apply_override(config, assignment)
    name, params, seed, output_path, output_format = _validate_config(config)
    if args.out:
        output_path = args.out
    out_dir = Path(output_path)

    outcome = EXPERIMENTS[name].run(params, seed)
    # Only a run that passed validation leaves a directory behind.
    out_dir.mkdir(parents=True, exist_ok=True)
    # Written last, a manifest never stands beside data it does not describe.
    (out_dir / "manifest.json").unlink(missing_ok=True)
    data_name = f"{name}.{output_format}"
    header = {"experiment": name, "seed": seed, "version": __version__}
    if output_format == "csv":
        header["seed"] = "none" if seed is None else seed
        header.update(outcome.metadata)
        write_csv(out_dir / data_name, header, outcome.columns, outcome.rows)
    else:
        header.update(parameters=params, metadata=outcome.metadata)
        header.update(columns=outcome.columns, rows=outcome.rows, result=outcome.result)
        write_json(out_dir / data_name, header)
    manifest = {
        "experiment": name,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "outputs": [data_name],
    }
    write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {out_dir / data_name} and {out_dir / 'manifest.json'}")
    return EXIT_OK


def _cmd_list() -> int:
    for name, experiment in EXPERIMENTS.items():
        seed_note = "seed required" if experiment.stochastic else "deterministic"
        print(f"{name}: {experiment.summary} [{seed_note}]")
        for pname, param in experiment.params.items():
            if param.default is _REQUIRED:
                default = "required"
            else:
                default = f"default {json.dumps(param.default)}"
            print(f"  {pname} ({param.kind}, {default}): {param.help}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="sqzlab",
        description="Reproducible squeezed-light simulation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one experiment from a JSON config")
    run_parser.add_argument("--config", required=True, help="path to the JSON config")
    run_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry, e.g. --set parameters.gain=100 "
        "(values parse as JSON, bare words as strings)",
    )
    run_parser.add_argument(
        "--out", help="output directory (overrides output_path in the config)"
    )
    sub.add_parser("list", help="describe the available experiments")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
