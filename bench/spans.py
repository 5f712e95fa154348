"""Spans around the calls ``sqzlab.cli`` makes into the other sqzlab modules.

:meth:`Tracer.install` replaces each function that ``sqzlab.cli`` imported
from a sibling module with a wrapper in the ``sqzlab.cli`` namespace, so no
file of the package is edited.  A span is the tuple
``(id, name, start, end, parent, op)``: ``parent`` is the id of the
enclosing span (-1 at the top) and ``op`` the benchmark op it belongs to.
Spans stay in memory until the benchmark writes them out.  Counters record
the work done at the same boundaries.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_samples(counts, args, kwargs, result):
    counts["detection.samples"] += result.samples.size


def _count_windows(counts, args, kwargs, result):
    counts["detection.samples"] += result.counts.size


def _count_welch(counts, args, kwargs, result):
    # Computed bytes: the series read plus the complex rfft of its segments.
    series = _arg(args, kwargs, 0, "series")
    n_segment = round(series.sample_rate / result.resolution_bandwidth)
    n_runs = series.samples.size // n_segment
    counts["detection.welch_psd.bytes"] += (
        series.samples.nbytes + n_runs * (n_segment // 2 + 1) * 16
    )


def _count_csv(counts, args, kwargs, result):
    columns = _arg(args, kwargs, 2, "columns")
    rows = _arg(args, kwargs, 3, "rows")
    counts["cli.rows"] += len(rows)
    counts["io.cells"] += len(rows) * len(columns)
    counts["io.bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _count_json(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 1, "payload").get("rows", ())
    counts["cli.rows"] += len(rows)
    counts["io.cells"] += sum(len(row) for row in rows)
    counts["io.bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


COUNTERS = {
    "detection.bhd_series": _count_samples,
    "detection.sample_photon_record": _count_windows,
    "detection.welch_psd": _count_welch,
    "io.write_csv": _count_csv,
    "io.write_json": _count_json,
}


class Tracer:
    """In-memory spans and counters of one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._next_id = 0
        self._open: list[tuple] = []

    def begin(self, name: str) -> None:
        self._open.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        span_id, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((span_id, name, start, end, parent, self.op))

    def merge(self, spans: list, counts: dict) -> None:
        """Add another process's spans and counts to the current op."""
        offset = self._next_id
        for span_id, name, start, end, parent, _ in spans:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append((span_id + offset, name, start, end, parent, self.op))
        self._next_id += len(spans)
        for key, value in counts.items():
            self.counts[key] += value

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span named ``name``."""
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, cli) -> dict:
        """Wrap the sibling-module functions in ``cli``; return the originals."""
        originals = {}
        for attr, value in vars(cli).items():
            module = getattr(value, "__module__", "")
            if (
                isinstance(value, types.FunctionType)
                and module.startswith("sqzlab.")
                and module != cli.__name__
            ):
                originals[attr] = value
        for attr, value in originals.items():
            layer = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
            setattr(cli, attr, self.wrap(layer, value))
        return originals


def uninstall(cli, originals: dict) -> None:
    for attr, value in originals.items():
        setattr(cli, attr, value)


def summarize(spans: list) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap except by nesting.
    """
    inner: dict[int, float] = defaultdict(float)
    for span_id, name, start, end, parent, op in spans:
        if parent >= 0:
            inner[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, name, start, end, parent, op in spans:
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - inner.get(span_id, 0.0)
    return out
