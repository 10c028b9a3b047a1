"""Spans and counters recorded around the benchmark's calls into flowspace.

A workload calls every flowspace function through `tracer.call(name,
fn, *args)`.  `NullTracer` just calls the function; `Tracer` also
keeps a span (name, start, end, unit) in memory, where the unit is the
operation or set-up repetition that caused it.  Spans are written out
when the run ends.  Spans come only from the benchmark's own files:
calls that one flowspace layer makes into another are not split out.
"""

from __future__ import annotations

import json
import statistics
import time

#: Per-layer metrics: name -> (unit, kind).  A "time" metric sums the
#: durations of the spans of that name; a "count" metric sums the
#: values recorded under that name.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "scenario.load_ms": ("ms", "time"),
    "scenario.doc_kb": ("KB", "count"),
    "transforms.chain_ms": ("ms", "time"),
    "transforms.normalize_ms": ("ms", "time"),
    "transforms.pieces_in": ("count", "count"),
    "transforms.pieces_out": ("count", "count"),
    "transforms.apply_ms": ("ms", "time"),
    "transforms.flow_mod_ms": ("ms", "time"),
    "nib.stats_ms": ("ms", "time"),
    "nib.flows": ("count", "count"),
    "tables.reduce_ms": ("ms", "time"),
    "tables.reduce_entries_in": ("count", "count"),
    "tables.reduce_entries_out": ("count", "count"),
    "analysis.check_congruence_ms": ("ms", "time"),
    "analysis.behavioral_diff_ms": ("ms", "time"),
    "analysis.detect_loops_ms": ("ms", "time"),
    "analysis.what_if_ms": ("ms", "time"),
    "analysis.entries_scanned": ("count", "count"),
    "analysis.loop_findings": ("count", "count"),
    "cli.congruence_ms": ("ms", "time"),
    "cli.apply_ms": ("ms", "time"),
    "cli.loops_ms": ("ms", "time"),
    "cli.whatif_ms": ("ms", "time"),
    "cli.output_kb": ("KB", "count"),
}


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def unit(self, kind: str, index: int) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, tuple]] = []
        self.counts: list[tuple[str, float, tuple]] = []
        self._unit: tuple = ("none", 0)

    def unit(self, kind: str, index: int) -> None:
        """Attribute the following spans to set-up repetition or operation `index`."""
        self._unit = (kind, index)

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self._unit))

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self._unit))

    def metrics(self) -> dict[str, dict]:
        """Each layer metric as a median over operations.

        A layer's value in one operation is the sum of its spans (ms) or
        counts there.  Layers reached only during set-up report the
        median over set-up repetitions; layers never reached report 0.
        """
        per_unit: dict[str, dict[tuple, float]] = {}
        for name, start, end, unit in self.spans:
            cell = per_unit.setdefault(name + "_ms", {})
            cell[unit] = cell.get(unit, 0.0) + (end - start) * 1e3
        for name, value, unit in self.counts:
            cell = per_unit.setdefault(name, {})
            cell[unit] = cell.get(unit, 0.0) + value
        unknown = sorted(set(per_unit) - set(LAYER_METRICS))
        if unknown:
            raise KeyError(f"spans or counts without a layer metric: {unknown}")
        out = {}
        for name, (unit_name, _) in LAYER_METRICS.items():
            cells = per_unit.get(name, {})
            ops = [v for (kind, _), v in cells.items() if kind == "op"]
            setup = [v for (kind, _), v in cells.items() if kind == "setup"]
            values = ops or setup
            out[name] = {"value": statistics.median(values) if values else 0.0,
                         "unit": unit_name}
        return out

    def dump(self, path) -> None:
        """Write the spans and counts, with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [{"name": n, "start_ms": (s - t0) * 1e3, "end_ms": (e - t0) * 1e3,
                       "unit": list(u)} for n, s, e, u in self.spans],
            "counts": [{"name": n, "value": v, "unit": list(u)} for n, v, u in self.counts],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
