"""One benchmark process: set up a workload, run its timed ops, check them.

    python bench/worker.py setup --workload W --seed N
    python bench/worker.py run --workload W --seed N --work DIR
        [--seconds S] [--trace 0|1]

Both modes import ``sqzlab.cli``, generate the workload's ops and print a
ready line; ``setup`` stops there.  ``run`` then runs ops in one closed
loop until about ``--seconds`` have passed, writing each op's configs and
outputs under DIR, checks every op's outputs, reruns the first op of each
sampled experiment to confirm its bytes repeat, and prints its raw
measurements as one JSON line.
``run.py`` turns those into the benchmark's metrics.

An op of ``cli-cold`` is one ``sqzlab run`` process, and the loop stops only
between whole cycles of the seven experiments, so every run has the same
mix.  An op of the in-process workloads is one round: one
``sqzlab.cli.main`` call per experiment of the workload's mix.  With
``--seconds 0`` a run is one cycle: seven ops of ``cli-cold``, one round of
the others.

With ``--trace 1`` every other op runs with spans on (the rest give the
untraced op times the tracing overhead is measured against), and the
scaling sweep and the sampling floor are measured after the loop.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OP_TIMEOUT_S = 120
# About a millisecond of pure Python, timed once per op outside its timing;
# times are reported at the pace where it takes CALIBRATION_REF_S.
CALIBRATION_LOOPS = 25_000
CALIBRATION_REF_S = 1.0e-3
# An op's pace is the median calibration sample of the op and of this many
# ops on either side of it, so no single sample sets it.
PACE_NEIGHBOURS = 2
# What the ``sqzlab`` console script runs, after timing the calibration loop
# in the same process and writing that time to the file named by argv[1].
ENTRY = """\
import sys, time
def calibrate():
    start = time.perf_counter()
    total = 0
    for i in range(%d):
        total += i
    return time.perf_counter() - start
with open(sys.argv[1], "w") as f:
    f.write(repr(calibrate()))
from sqzlab.cli import main
sys.exit(main(sys.argv[2:]))
""" % CALIBRATION_LOOPS
# Scaling sweep: experiment -> (size parameter, sizes, (layer, unit) pairs).
SWEEPS = {
    "bhd-psd": (
        "n_samples",
        [2**k for k in range(16, 23)],
        (("detection.bhd_series", "ns_per_sample"), ("detection.welch_psd", "ns_per_sample")),
    ),
    "photon-record": (
        "n_windows",
        [10**k for k in range(3, 7)],
        (("detection.sample_photon_record", "ns_per_sample"), ("io.write_csv", "ns_per_row")),
    ),
}
FLOOR_SIZES = (2**21, 2**20)
# Per-layer metrics read off the spans: "<module>.<function>.<calls|s>".
SPAN_METRICS = (
    "opo.opo_spectrum.calls",
    "opo.opo_spectrum.s",
    "gaussian.db_from_variance.calls",
    "decoherence.fit_loss_phase.s",
    "decoherence.forward_model.calls",
    "decoherence.forward_model.s",
    "budget.quantum_noise_budget.s",
    "budget.crossover_frequency.s",
    "detection.bhd_series.s",
    "detection.sample_photon_record.s",
    "detection.add_signal_modulation.s",
    "detection.welch_psd.s",
    "io.write_csv.s",
    "io.write_json.s",
)
COUNT_METRICS = (
    "cli.rows",
    "io.cells",
    "io.bytes_written",
    "detection.samples",
    "detection.welch_psd.bytes",
)


def _import_cli():
    import sqzlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"sqzlab imported from {cli.__file__}, not from {SRC}")
    return cli


def _write_config(op: dict, out: Path) -> None:
    """Write the op's config into ``out``, where its outputs will go too."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(op["config"]), encoding="utf-8")
    op["argv"] = ["run", "--config", str(out / "config.json"), "--out", str(out)]
    op["out"] = out


def set_up(workload: str, seed: int):
    """Import the program and generate the workload's ops.

    An op is a list of configs run back to back: one config per op for
    ``cli-cold``, one round for the in-process workloads.  Also returns how
    many ops make one cycle of the mix; a run stops only between cycles.
    """
    cli = _import_cli()
    pool = workloads.rounds(workload, seed)
    if workload in workloads.IN_PROCESS:
        return cli, pool, 1
    return cli, [[op] for round_ in pool for op in round_], len(pool[0])


class Runner:
    """Runs ops either in this process or as cold processes.

    Each untraced op also yields one calibration sample: the calibration
    loop's time in the process that ran the op.  In this process the loop
    runs just after the op; a cold child runs it before it imports sqzlab.
    """

    def __init__(self, cli, cold: bool, tracer, work: Path):
        self.cli = cli
        self.cold = cold
        self.tracer = tracer
        self.spans_path = work / "child-spans.json"
        self.pace_path = work / "child-pace.txt"

    def __call__(self, op: list[dict], traced: bool) -> tuple[float, float, float | None, list]:
        return (self._cold if self.cold else self._in_process)(op, traced)

    def _in_process(self, op, traced):
        main = self.cli.main
        originals = {}
        if traced:
            originals = self.tracer.install(self.cli)
            main = self.tracer.wrap("cli.main", main)
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            codes = [main(config["argv"]) for config in op]
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        finally:
            spans.uninstall(self.cli, originals)
        return wall, cpu, None if traced else calibrate(), codes

    def _cold(self, op, traced):
        (config,) = op
        if traced:
            cmd = [sys.executable, str(BENCH / "tracechild.py"), str(self.spans_path)]
        else:
            cmd = [sys.executable, "-c", ENTRY, str(self.pace_path)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall = time.perf_counter()
        try:
            code = subprocess.run(
                cmd + config["argv"], stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S
            ).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        wall = time.perf_counter() - wall
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        calibration_s = None
        if traced and code == 0:
            child = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.tracer.merge(child["spans"], child["counts"])
        elif not traced and self.pace_path.exists():
            calibration_s = float(self.pace_path.read_text(encoding="utf-8"))
            self.pace_path.unlink()
        # The child's calibration loop is not part of the op.
        spent = calibration_s or 0.0
        return wall - spent, cpu - spent, calibration_s, [code]


def _check(op: list[dict], codes: list) -> tuple[str | None, list]:
    """First problem of an op (None if correct) and its per-config hashes."""
    hashes = []
    for config, code in zip(op, codes):
        if code != 0:
            return f"{config['config']['experiment']}: exit code {code}", hashes
        problem, digest = checks.check_op(config, config["out"])
        if problem:
            return problem, hashes
        hashes.append(digest)
    return None, hashes


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes.

    On a shared 2-vCPU VM this loop ran between 0.85 and 1.4 ms, in spells
    of seconds to minutes, and op times moved with it (correlation 0.9 over
    2.5 s windows of model-json).  Dividing each op's time by its pace (see
    ``_pace``) removes most of that drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return time.perf_counter() - start


def _pace(records: list[dict]) -> None:
    """Set each op's pace: the median calibration sample of the ops within
    PACE_NEIGHBOURS of it, over CALIBRATION_REF_S."""
    samples = [r["calibration_s"] for r in records]
    for i, record in enumerate(records):
        near = samples[max(0, i - PACE_NEIGHBOURS) : i + PACE_NEIGHBOURS + 1]
        near = [s for s in near if s is not None]
        record["pace"] = statistics.median(near) / CALIBRATION_REF_S if near else 1.0


def timed_loop(runner, ops, group, work, seconds, trace):
    """Closed loop of ops; stops at the cycle boundary nearest the deadline.

    Each op's configs are written just before it runs, outside its timing.
    """
    records = []
    problems = []
    firsts = {}
    start = time.perf_counter()
    i = 0
    while True:
        if i and i % group == 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / (i // group) > seconds:
                break
        op = ops[i % len(ops)]
        for config in op:
            _write_config(config, work / "out" / config["config"]["experiment"])
        traced = bool(trace) and i % 2 == 0
        if runner.tracer is not None:
            runner.tracer.op = i
        wall, cpu, calibration_s, codes = runner(op, traced)
        problem, hashes = _check(op, codes)
        for config in op:
            # Every op writes fresh files, so a stale output of an earlier
            # op can never pass another op's check.
            for path in config["out"].iterdir():
                path.unlink()
        if problem:
            problems.append(problem)
        else:
            for config, digest in zip(op, hashes):
                firsts.setdefault(config["config"]["experiment"], (config, digest))
        records.append(
            {
                "s": wall,
                "cpu_s": cpu,
                "calibration_s": calibration_s,
                "traced": traced,
                "ok": problem is None,
            }
        )
        i += 1
    return records, problems, firsts


def _hash_run(cli, op: dict, out: Path) -> tuple[str | None, dict]:
    _write_config(op, out)
    code = cli.main(op["argv"])
    if code != 0:
        return f"{op['config']['experiment']}: exit code {code}", {}
    return checks.check_op(op, out)


def reproducibility(cli, firsts: dict, work: Path) -> list[str]:
    """Rerun the first op of each sampled experiment; its bytes must repeat."""
    problems = []
    for name, (op, digest) in firsts.items():
        if name not in workloads.SAMPLED:
            continue
        rerun = {"config": op["config"], "expect": op["expect"]}
        problem, again = _hash_run(cli, rerun, work / "rerun" / name)
        if problem or again != digest:
            problems.append(f"{name}: same-seed rerun is not byte-identical")
    return problems


def reference_hashes(cli, work: Path) -> tuple[dict, list]:
    """sha256 of every experiment's outputs at its defaults and fixed seeds."""
    hashes, problems = {}, []
    for op in workloads.rounds("cli-cold", 0)[0]:
        name = op["config"]["experiment"]
        problem, digest = _hash_run(cli, op, work / "reference" / name)
        hashes[name] = digest
        if problem:
            problems.append(f"reference {problem}")
    return dict(sorted(hashes.items())), problems


def layer_metrics(tracer, records) -> tuple[dict, list]:
    """Per-layer values per traced op, and the self-time breakdown."""
    traced = [r["s"] for r in records if r["traced"]]
    plain = [r["s"] for r in records if not r["traced"]]
    n = len(traced)
    summary = spans.summarize(tracer.spans)

    def span(name, field):
        return summary.get(name, {}).get(field, 0.0) / n

    out = {}
    for name in SPAN_METRICS:
        layer, field = name.rsplit(".", 1)
        out[name] = span(layer, field)
    out["cli.self_s"] = span("cli.main", "self_s")
    for name in COUNT_METRICS:
        out[name] = tracer.counts.get(name, 0.0) / n
    sampling_s = out["detection.bhd_series.s"] + out["detection.sample_photon_record.s"]
    samples = out["detection.samples"]
    out["detection.ns_per_sample"] = 1e9 * sampling_s / samples if samples else 0.0
    # Positive when traced ops are slower than the untraced ops between them.
    out["trace.overhead_frac"] = (
        statistics.fmean(traced) / statistics.fmean(plain) - 1.0 if plain else 0.0
    )
    op_s = statistics.fmean(traced)
    self_s = {name: v["self_s"] / n for name, v in summary.items()}
    # Process start-up and teardown of cli-cold ops lie outside every span.
    self_s["(outside spans)"] = op_s - sum(self_s.values())
    breakdown = [
        {"span": name, "self_s_per_op": value, "share_of_op": value / op_s}
        for name, value in sorted(self_s.items(), key=lambda item: -item[1])
    ]
    return out, breakdown


def scaling_sweep(cli, work: Path) -> tuple[dict, dict]:
    """ns per sample (or row) of the sampled layers against input size."""
    metrics, table = {}, {}
    for experiment, (param, sizes, layers) in SWEEPS.items():
        for size in sizes:
            params = {param: size}
            if experiment == "photon-record":
                params["power_w"] = workloads.photon_power(1000.0)
            op = {"config": {"experiment": experiment, "parameters": params, "seed": size}}
            out = work / "sweep" / f"{experiment}-{size}"
            _write_config(op, out)
            per_layer = {layer: [] for layer, _ in layers + (("cli.main", ""),)}
            for _ in range(max(1, min(5, sizes[-1] // size))):
                tracer = spans.Tracer()
                originals = tracer.install(cli)
                try:
                    code = tracer.wrap("cli.main", cli.main)(op["argv"])
                finally:
                    spans.uninstall(cli, originals)
                if code != 0:
                    raise RuntimeError(f"sweep {experiment} {param}={size}: exit {code}")
                summary = spans.summarize(tracer.spans)
                for layer in per_layer:
                    per_layer[layer].append(1e9 * summary[layer]["s"] / size)
            for layer, unit in layers:
                metrics[f"sweep.{layer}.{unit}.n{size}"] = statistics.median(per_layer[layer])
            for layer, values in per_layer.items():
                table.setdefault(f"{experiment} {layer}", {})[size] = round(
                    statistics.median(values), 3
                )
    return metrics, table


def sampling_floor() -> dict:
    """ns per sample of numpy's normal draw at each sampled array size."""
    import numpy as np

    out = {}
    for size in FLOOR_SIZES:
        times = []
        for seed in range(5):
            start = time.perf_counter()
            np.random.default_rng(seed).normal(size=size)
            times.append(time.perf_counter() - start)
        out[f"floor.rng_normal.ns_per_sample.n{size}"] = 1e9 * statistics.median(times) / size
    return out


def environment(cli) -> dict:
    import numpy as np
    import scipy

    def default(name, param):
        return cli.EXPERIMENTS[name].params[param].default

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        "sampled_array_bytes": {
            name: 8 * default(name, param)
            for name, param in (
                ("bhd-psd", "n_samples"),
                ("snr-equivalence", "n_samples"),
                ("photon-record", "n_windows"),
            )
        },
    }


def run(cli, workload, ops, group, work, seconds, trace, spans_out) -> dict:
    tracer = spans.Tracer() if trace else None
    cold = workload not in workloads.IN_PROCESS
    runner = Runner(cli, cold, tracer, work)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        records, problems, firsts = timed_loop(runner, ops, group, work, seconds, trace)
        _pace(records)
        who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        rerun_problems = reproducibility(cli, firsts, work)
        hashes, reference_problems = reference_hashes(cli, work)
        result = {
            "records": records,
            "problems": problems,
            "rerun_problems": rerun_problems + reference_problems,
            "peak_rss_mb": peak_rss_mb,
            "output_sha256": hashes,
            "environment": environment(cli),
        }
        if trace:
            result["layers"], result["breakdown"] = layer_metrics(tracer, records)
            sweep, result["sweep"] = scaling_sweep(cli, work)
            result["layers"].update(sweep)
            result["layers"].update(sampling_floor())
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli, ops, group = set_up(args.workload, args.seed)
    print(json.dumps({"ready": True}), flush=True)
    # The pace of this process, which run.py divides its set-up time by.
    pace = statistics.median(calibrate() for _ in range(5)) / CALIBRATION_REF_S
    print(json.dumps({"pace": pace}), flush=True)
    if args.mode == "setup":
        return 0
    spans_out = BENCH / "_traces" / f"{args.workload}-seed{args.seed}.json"
    result = run(cli, args.workload, ops, group, args.work, args.seconds, args.trace, spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
