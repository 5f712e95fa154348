"""Correctness checks on one op's output files.

An op passes when its data file and ``manifest.json`` parse, the manifest
records the experiment, seed and parameters the op was given, and the data
obey a physics invariant.  Each invariant uses the tolerance of the
matching acceptance criterion in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import C, H, opo_variances, sweep_point_db

# Criterion 6 accepts [-9.6, -9.0] dB for a configuration whose expected
# level is -9.125 dB: the band may sit 0.475 dB below or 0.125 dB above.
BAND_BELOW_DB = 0.475
BAND_ABOVE_DB = 0.125
# Each bin is a mean of n_averages periodograms, so it scatters by about
# 10/ln(10)/sqrt(n_averages) dB (0.034 dB at the default 2^21 samples).  A bin
# may leave the band by BIN_SIGMAS of that, so a correct bin at the expected
# level has more than 9 sigma to either edge.
BIN_SIGMAS = 6.0
_BOOLS = {"true": "1", "false": "0"}


class OutputError(Exception):
    """An output file is malformed or violates an invariant."""


class Table:
    """A data file's metadata and rows, with the rows as a float matrix."""

    def __init__(self, meta: dict, columns: list, values: np.ndarray):
        if values.shape != (values.shape[0], len(columns)):
            raise OutputError(f"rows do not match the {len(columns)} columns")
        if not np.all(np.isfinite(values)):
            raise OutputError("non-finite value in the rows")
        self.meta = meta
        self.columns = columns
        self.values = values

    def col(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise OutputError(f"missing column {name!r}")
        return self.values[:, self.columns.index(name)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_op(op: dict, out_dir: Path) -> tuple[str | None, dict]:
    """Check one op's outputs in ``out_dir``.

    Returns the first problem found (None when the op is correct) and the
    sha256 of each output file that exists.
    """
    config = op["config"]
    name = config["experiment"]
    data_name = f"{name}.{config.get('output_format', 'csv')}"
    try:
        data = (out_dir / data_name).read_bytes()
        manifest_bytes = (out_dir / "manifest.json").read_bytes()
    except OSError as exc:
        return f"{name}: missing output: {exc}", {}
    hashes = {data_name: sha256(data), "manifest.json": sha256(manifest_bytes)}
    try:
        params = _check_manifest(config, json.loads(manifest_bytes), data_name)
        if data_name.endswith(".json"):
            table = _parse_json(data, config, params)
        else:
            table = _parse_csv(data, config)
        INVARIANTS[name](params, table, op["expect"])
    except (OutputError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{name}: {type(exc).__name__}: {exc}", hashes
    return None, hashes


def _check_manifest(config: dict, manifest: dict, data_name: str) -> dict:
    if manifest["experiment"] != config["experiment"]:
        raise OutputError(f"manifest experiment {manifest['experiment']!r}")
    if manifest["seed"] != config.get("seed"):
        raise OutputError(f"manifest seed {manifest['seed']!r}")
    if manifest["outputs"] != [data_name]:
        raise OutputError(f"manifest outputs {manifest['outputs']!r}")
    params = manifest["parameters"]
    for key, value in config["parameters"].items():
        if params.get(key) != value:
            raise OutputError(f"manifest parameter {key} = {params.get(key)!r}")
    return params


def _parse_json(data: bytes, config: dict, params: dict) -> Table:
    payload = json.loads(data)
    for key, want in (
        ("experiment", config["experiment"]),
        ("seed", config.get("seed")),
        ("parameters", params),
    ):
        if payload[key] != want:
            raise OutputError(f"data file {key} differs from the manifest")
    return Table(
        payload["metadata"],
        payload["columns"],
        np.array(payload["rows"], dtype=float).reshape(len(payload["rows"]), -1),
    )


def _parse_csv(data: bytes, config: dict) -> Table:
    text = data.decode("utf-8")
    if not text.endswith("\n"):
        raise OutputError("file does not end with a newline")
    lines = text[:-1].split("\n")
    meta = {}
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, sep, value = lines[i][2:].partition(" = ")
        if not sep:
            raise OutputError(f"bad metadata line {lines[i]!r}")
        meta[key] = value
        i += 1
    if i == len(lines):
        raise OutputError("no header row")
    if meta.get("experiment") != config["experiment"]:
        raise OutputError(f"metadata experiment {meta.get('experiment')!r}")
    if meta.get("seed") != str(config.get("seed", "none")):
        raise OutputError(f"metadata seed {meta.get('seed')!r}")
    columns = lines[i].split(",")
    body = lines[i + 1 :]
    commas = len(columns) - 1
    if any(line.count(",") != commas for line in body):
        raise OutputError("ragged row")
    cells = ",".join(body).split(",") if body else []
    if "true" in cells or "false" in cells:
        cells = [_BOOLS.get(cell, cell) for cell in cells]
    values = np.array(cells, dtype=float).reshape(len(body), len(columns))
    return Table(meta, columns, values)


def _require(ok, message: str) -> None:
    if not ok:
        raise OutputError(message)


def _bhd_psd(params: dict, table: Table, expect: dict) -> None:
    efficiency = params["quantum_efficiency"] * params["visibility"] ** 2
    r = params["squeeze_db"] * math.log(10.0) / 20.0
    offset = math.radians(params["lo_phase_deg"] - params["squeeze_angle_deg"])
    variance = (
        math.exp(-2.0 * r) * math.cos(offset) ** 2
        + math.exp(2.0 * r) * math.sin(offset) ** 2
    )
    expected = (
        efficiency * variance
        + 1.0
        - efficiency
        + params["dark_noise_variance"]
        + (2.0 * params["balance_asymmetry"]) ** 2 * params["lo_noise_variance"]
    )
    psd = table.col("psd_rel_shot")
    _require(psd.size > 0 and np.all(psd > 0.0), "empty or non-positive PSD")
    level = 10.0 * math.log10(psd.mean()) - 10.0 * math.log10(expected)
    _require(
        -BAND_BELOW_DB <= level <= BAND_ABOVE_DB,
        f"band level {level:+.4f} dB from the expected {expected:.5f}",
    )
    # criterion 6 bounds every bin, not just their mean
    n_averages = params["n_samples"] // round(
        params["sample_rate_hz"] / params["resolution_bandwidth_hz"]
    )
    margin = BIN_SIGMAS * 10.0 / math.log(10.0) / math.sqrt(n_averages)
    bins = 10.0 * np.log10(psd / expected)
    _require(
        bins.min() >= -BAND_BELOW_DB - margin and bins.max() <= BAND_ABOVE_DB + margin,
        f"bins from {bins.min():+.4f} to {bins.max():+.4f} dB from the expected level",
    )
    _require(
        np.allclose(table.col("psd_db"), 10.0 * np.log10(psd), rtol=0, atol=1e-9),
        "psd_db disagrees with psd_rel_shot",
    )


def _snr_equivalence(params: dict, table: Table, expect: dict) -> None:
    efficiency = params["quantum_efficiency"] * params["visibility"] ** 2
    floor = efficiency * 10.0 ** (-params["squeeze_db"] / 10.0) + 1.0 - efficiency
    improvement = float(table.col("improvement_over_equal_power")[0])
    ratio = float(table.col("ratio_to_double_power")[0])
    # criterion 9: improvement within 0.1 of 2, double-power ratio within 0.05 of 1
    _require(abs(improvement - 1.0 / floor) <= 0.1, f"improvement {improvement}")
    _require(abs(ratio - 0.5 / floor) <= 0.05, f"ratio to double power {ratio}")


def _photon_record(params: dict, table: Table, expect: dict) -> None:
    counts = table.col("count")
    n = params["n_windows"]
    _require(counts.size == n, f"{counts.size} windows, expected {n}")
    _require(
        np.array_equal(table.col("window_index"), np.arange(n)), "bad window index"
    )
    expected_mean = (
        params["power_w"] * params["wavelength_m"] * params["window_s"] / (H * C)
    )
    mean = counts.mean()
    _require(abs(mean / expected_mean - 1.0) <= 0.01, f"mean count {mean}")
    fano = counts.var(ddof=1) / mean
    expected_fano = 10.0 ** (-params["noise_squeeze_db"] / 10.0)
    # criterion 5: coherent Fano factor within 0.02 of 1
    _require(abs(fano - expected_fano) <= 0.02, f"Fano factor {fano}")
    reported = float(table.meta["fano_factor"])
    _require(math.isclose(reported, fano, rel_tol=1e-9), f"reported Fano {reported}")


def _fit_loss(params: dict, table: Table, expect: dict) -> None:
    loss, jitter = expect["truth"]
    fit_loss = float(table.col("intrinsic_loss")[0])
    fit_jitter = float(table.col("phase_noise_deg")[0])
    # criterion 3: loss within 0.005, jitter within 0.2 degrees
    _require(table.col("converged")[0] == 1.0, "fit did not converge")
    _require(abs(fit_loss - loss) <= 0.005, f"loss {fit_loss}, truth {loss}")
    _require(abs(fit_jitter - jitter) <= 0.2, f"jitter {fit_jitter}, truth {jitter}")


def _opo_spectrum(params: dict, table: Table, expect: dict) -> None:
    pump = params["pump_ratio"]
    if pump is None:
        pump = 1.0 - 1.0 / math.sqrt(params["gain"])
    freq = table.col("frequency_hz")
    v_s, v_a = table.col("v_squeeze"), table.col("v_antisqueeze")
    _require(freq.size == params["frequency_points"], f"{freq.size} frequencies")
    # criterion 7: the variance product never drops below 1 (tolerance 1e-9)
    _require(np.all(v_s * v_a >= 1.0 - 1e-9), "v_squeeze * v_antisqueeze < 1")
    want_s, want_a = opo_variances(
        pump, params["escape_efficiency"], freq, params["half_linewidth_hz"]
    )
    # criterion 2: within 0.05 dB of the closed-form spectrum
    worst = max(
        np.abs(table.col("squeeze_db") - 10.0 * np.log10(want_s)).max(),
        np.abs(table.col("antisqueeze_db") - 10.0 * np.log10(want_a)).max(),
    )
    _require(worst < 0.05, f"spectrum off by {worst} dB")


def _decohere(params: dict, table: Table, expect: dict) -> None:
    added = table.col("added_loss")
    _require(added.tolist() == params["added_losses"], "added-loss column")
    for a, s_db, a_db in zip(added, table.col("squeeze_db"), table.col("antisqueeze_db")):
        want = sweep_point_db(
            params["gain"],
            params["intrinsic_loss"],
            a,
            params["phase_noise_deg"],
            params["frequency_hz"],
            params["half_linewidth_hz"],
        )
        _require(
            abs(s_db - want[0]) <= 1e-6 and abs(a_db - want[1]) <= 1e-6,
            f"sweep point at added loss {a}",
        )


def _noise_budget(params: dict, table: Table, expect: dict) -> None:
    shot, rpn = table.col("shot"), table.col("rpn")
    total, sql = table.col("total"), table.col("sql")
    _require(total.size == params["frequency_points"], f"{total.size} frequencies")
    _require(np.all(table.values[:, 1:] > 0.0), "non-positive budget term")
    if params["squeeze_db"] == 0.0:
        # criterion 8: without squeezing the budget is shot plus radiation
        # pressure and touches the SQL only at the crossover.
        _require(np.allclose(total, shot + rpn, rtol=1e-9, atol=0), "total != shot + rpn")
        _require(np.all(total >= sql * (1.0 - 1e-9)), "total below the SQL")


INVARIANTS = {
    "bhd-psd": _bhd_psd,
    "snr-equivalence": _snr_equivalence,
    "photon-record": _photon_record,
    "fit-loss": _fit_loss,
    "opo-spectrum": _opo_spectrum,
    "decohere": _decohere,
    "noise-budget": _noise_budget,
}
