"""sqzlab benchmark: one workload, one closed-loop client, checked outputs.

    python3 bench/run.py --workload {cli-cold,sampled-csv,model-json}
        --seed N --seconds S --trace {0,1}

Run from anywhere; it benchmarks the ``src/`` tree next to this directory
and writes only under ``bench/``.  It prints a report and, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics (from spans, fresh interpreters,
floors and the scaling sweep) with ``--trace 1``.  ``--seconds 0`` runs one
cycle of the workload's mix, which the benchmark's own tests use.

Set-up (``setup_s``) is timed from spawning a fresh interpreter until it has
imported ``sqzlab.cli`` and generated the workload's ops, and divided by
that process's pace (see ``worker.calibrate``); the median of SETUP_SAMPLES
spawns is reported.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "sampled-csv", "model-json")
SETUP_SAMPLES = 5
FRESH_SAMPLES = 5
# The whole run has to end within 180 s.
DEADLINE_S = 170.0

# Fresh-interpreter probes; each prints one JSON line.
_IMPORT_PROBE = """\
import sys, time
before = len(sys.modules)
start = time.perf_counter()
import sqzlab.cli
elapsed = time.perf_counter() - start
scipy = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print('{"s": %r, "modules": %d, "scipy": %d}' % (elapsed, len(sys.modules) - before, scipy))
"""
_NUMPY_PROBE = """\
import time
start = time.perf_counter()
import numpy
print('{"s": %r}' % (time.perf_counter() - start))
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def _spawn_worker(cmd: list[str], start: float) -> tuple[float, str]:
    """Start a worker; return its set-up time over its pace, and its output.

    The set-up time runs from the spawn to the worker's ready line.
    """
    spawned = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "worker.py"), *cmd]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    # Kills a worker that outlives the run's deadline, which ends the reads.
    watchdog = threading.Timer(_remaining(start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - spawned
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.strip():
        raise BenchError(f"worker {cmd[2]} exited with code {proc.returncode}")
    pace = json.loads(rest.split("\n", 1)[0])["pace"]
    return setup_s / pace, rest


def _probe(code: str, start: float) -> tuple[float, dict]:
    """Run a fresh interpreter; return its wall time and parsed output."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=_remaining(start),
    )
    wall = time.perf_counter() - spawned
    if proc.returncode != 0:
        raise BenchError(f"probe failed: {proc.stderr.strip()[-300:]}")
    return wall, json.loads(proc.stdout) if proc.stdout.strip() else {}


def fresh_interpreters(start: float) -> dict:
    """Import cost of sqzlab.cli, and the interpreter and numpy floors."""
    imports = [_probe(_IMPORT_PROBE, start)[1] for _ in range(FRESH_SAMPLES)]
    numpy = [_probe(_NUMPY_PROBE, start)[1]["s"] for _ in range(FRESH_SAMPLES)]
    bare = [_probe("pass", start)[0] for _ in range(FRESH_SAMPLES)]
    return {
        "imports.sqzlab_cli_s": statistics.median(p["s"] for p in imports),
        "imports.modules": statistics.median(p["modules"] for p in imports),
        "imports.scipy_modules": statistics.median(p["scipy"] for p in imports),
        "floor.interpreter_s": statistics.median(bare),
        "floor.import_numpy_s": statistics.median(numpy),
    }


def tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten ops beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records: list[dict], peak_rss_mb: float, setup_s: float, paced: bool) -> dict:
    """End-to-end metrics; with ``paced``, op and CPU times are divided by
    each op's pace.

    The tail is taken over each op's wall time less the time it spent off
    the CPU beyond the run's median.  On a shared machine other processes
    preempt ops in bursts, and those stalls would otherwise set the slowest
    ops of a whole run.  The stall every op has, such as a cold process's
    start, stays in.
    """
    pace = [r["pace"] if paced else 1.0 for r in records]
    times = [r["s"] / p for r, p in zip(records, pace)]
    completed = sum(r["ok"] for r in records)
    stall = statistics.median(r["s"] - r["cpu_s"] for r in records)
    return {
        "ops_per_s": completed / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(
            [min(r["s"], r["cpu_s"] + stall) / p for r, p in zip(records, pace)]
        )[0],
        "cpu_s_per_op": statistics.fmean(r["cpu_s"] / p for r, p in zip(records, pace)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def _cpu_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        info["caches"] = caches
    except OSError:
        pass
    return info


def provenance(worker: dict) -> dict:
    loc = {
        path.stem: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "sqzlab").glob("*.py"))
    }
    return {
        **worker["environment"],
        **_cpu_info(),
        "source_loc": {**loc, "total": sum(loc.values())},
        "output_sha256": worker["output_sha256"],
    }


def measure(args) -> tuple[dict, dict]:
    start = time.perf_counter()
    compileall.compile_dir(str(SRC / "sqzlab"), quiet=2)
    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [_spawn_worker(["setup", *workload], start)[0] for _ in range(SETUP_SAMPLES - 1)]
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        setup_s, output = _spawn_worker(
            [
                "run",
                *workload,
                "--work", str(work),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            start,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(setup_s)
    worker = json.loads(output.strip().splitlines()[-1])
    records = worker["records"]
    if args.trace:
        metrics = {**worker["layers"], **fresh_interpreters(start)}
    else:
        metrics = end_to_end(records, worker["peak_rss_mb"], statistics.median(setups), True)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in contract["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    failed = sum(not r["ok"] for r in records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(records),
        "error_rate": failed / len(records),
        "op_s.tail_percentile": tail([r["s"] for r in records])[1],
        "pace": statistics.median(r["pace"] for r in records),
        "unpaced": end_to_end(records, worker["peak_rss_mb"], statistics.median(setups), False),
        "setup_s_samples": setups,
        "problems": (worker["problems"] + worker["rerun_problems"])[:10],
        "provenance": provenance(worker),
    }
    if args.trace:
        report["layer_breakdown"] = worker["breakdown"]
        report["sweep_ns"] = worker["sweep"]
    result = {
        "correct": failed == 0 and not worker["rerun_problems"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def _print_report(report: dict, result: dict) -> None:
    print(
        f"sqzlab benchmark: workload {report['workload']}, seed {report['seed']}, "
        f"trace {report['trace']}, {report['ops']} ops, pace {report['pace']:.3f}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  {'error_rate':<58} {report['error_rate']:>14.6g} ratio "
        f"({result['failed']} of {result['attempted']} ops failed)"
    )
    if report["trace"]:
        print("  self time per traced op:")
        for row in report["layer_breakdown"]:
            print(
                f"    {row['span']:<40} {1e3 * row['self_s_per_op']:>10.3f} ms "
                f"{100 * row['share_of_op']:>6.1f} %"
            )
    else:
        print(
            f"  op_s.tail is the p{report['op_s.tail_percentile']:.1f} of "
            f"{report['ops']} ops, less stalls beyond the median; "
            "op and CPU times are divided by the pace"
        )
    print(json.dumps(report, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "sqzlab" / "cli.py").is_file():
        print(f"bench: no sqzlab sources at {SRC}", file=sys.stderr)
        return 2
    try:
        report, result = measure(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _print_report(report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
