"""The benchmark's own tests (about two minutes).

    python -m pytest bench/selftest.py

Minimal runs of every workload must emit every metric of BENCHMARK.json
with its unit, traced and untraced runs must count the same ops, a
corrupted output must count as a failed op, and the benchmark must refuse
to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(root / "bench" / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "0",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            proc = _bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_emits_every_metric_with_its_unit(results, workload, trace):
    result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_count_the_same_ops(results, workload):
    # A zero-second run stops after one cycle of the mix: one round in
    # process, one cold process per experiment in cli-cold.
    cycle = 1 if workload in workloads.IN_PROCESS else len(workloads.WORKLOADS[workload])
    assert results(workload, 0)["attempted"] == results(workload, 1)["attempted"] == cycle


def _truncate(cli, monkeypatch):
    write_csv = cli.write_csv

    def truncated(path, *args):
        write_csv(path, *args)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(cli, "write_csv", truncated)


def _louder_spectrum(cli, monkeypatch):
    welch_psd = cli.welch_psd

    def louder(series, resolution_bandwidth):
        spectrum = welch_psd(series, resolution_bandwidth)
        return type(spectrum)(
            spectrum.frequencies, 2.0 * spectrum.psd, spectrum.resolution_bandwidth
        )

    monkeypatch.setattr(cli, "welch_psd", louder)


@pytest.mark.parametrize("corrupt", [_truncate, _louder_spectrum])
def test_corrupted_output_counts_as_failed_op(tmp_path, monkeypatch, corrupt):
    cli, ops, group = worker.set_up("sampled-csv", 3)
    corrupt(cli, monkeypatch)
    result = worker.run(cli, "sampled-csv", ops, group, tmp_path, 0, 0, None)
    assert [r["ok"] for r in result["records"]] == [False]
    assert len(result["problems"]) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_*"))
    proc = _bench(tmp_path, "model-json", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
