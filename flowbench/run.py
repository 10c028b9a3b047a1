"""The flowspace benchmark: one workload per run, closed loop, one thread.

    python3 flowbench/run.py --workload steer --seed 1 --seconds 25 --trace 0
    python3 flowbench/run.py --selftest

One caller issues operations back to back: each starts when the
previous one ends.  Operations come in whole rounds and the run stops at
the first round boundary after `--seconds`.  Every output is checked
(untimed).  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and the metrics, which are the
end-to-end metrics with `--trace 0` and the per-layer metrics of the
traced run with `--trace 1`.  flowspace is imported from `src/` of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fewest operations per run, so at least ten lie above the p90.
MIN_OPS = 110

#: Median time of one reference burst on the 2-core machine the figures in
#: README.md come from.  End-to-end times are reported at that speed.
REF_NOMINAL_S = 0.00107


def import_flowspace() -> None:
    """Put the checkout's `src/` first on the path and check it is used."""
    if not os.path.isfile(os.path.join(SRC, "flowspace", "__init__.py")):
        raise SystemExit(f"flowbench: no flowspace sources under {SRC}")
    sys.path.insert(0, SRC)
    import flowspace

    if not os.path.abspath(flowspace.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"flowbench: imported flowspace from {flowspace.__file__}, not {SRC}")


def reference_burst() -> float:
    """Time a fixed piece of pure-Python work of the kind flowspace does:
    tuple keys, dict inserts and a keyed sort.  The collector is held off
    so that the burst times the processor, not the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for i in range(1000):
            t = (i, i * 7 % 13, i & 0xFF)
            acc[t] = sum(t) & 0xFF
        sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pace:
    """The machine's current speed, from reference bursts run just before
    each timed step.

    On a shared host the same code runs up to half again as fast or slow
    for stretches of seconds to a minute, as other tenants come and go.
    `scale()` turns a time measured now into the time at REF_NOMINAL_S,
    using the median of the last few bursts.
    """

    WINDOW = 9

    def __init__(self):
        self.recent: collections.deque = collections.deque(maxlen=self.WINDOW)
        self.scales: list[float] = []
        for _ in range(self.WINDOW):
            self.sample()

    def sample(self) -> None:
        self.recent.append(reference_burst())

    def scale(self) -> float:
        factor = REF_NOMINAL_S / statistics.median(self.recent)
        self.scales.append(factor)
        return factor


class Timings:
    """Raw and scaled times of one run."""

    def __init__(self):
        self.pace = Pace()
        self.raw: dict[str, list[float]] = {"op": [], "setup": []}
        self.scaled: dict[str, list[float]] = {"op": [], "setup": []}

    def add(self, kind: str, raw: float) -> None:
        self.raw[kind].append(raw)
        self.scaled[kind].append(raw * self.pace.scale())


def set_up(wl, tr, times: Timings) -> None:
    """One set-up repetition: load the documents and compose the chains.

    The first repetition's state serves the operations; later ones, made
    between rounds so that they sample the whole run, are discarded.
    """
    first = not times.raw["setup"]
    tr.unit("setup", len(times.raw["setup"]))
    times.pace.sample()
    start = time.perf_counter()
    state = wl.setup(tr)
    times.add("setup", time.perf_counter() - start)
    if first:
        wl.install(state)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS) -> dict:
    """Generate, set up and measure one workload; return the result object."""
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    tr = Tracer() if trace else NullTracer()
    docs = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT)
    try:
        wl = WORKLOADS[name](seed, docs)
        times = Timings()
        set_up(wl, tr, times)
        attempted, failed, wrong, wall = measure(wl, tr, seconds, min_ops, times)
    finally:
        shutil.rmtree(docs)

    ops, setups = times.scaled["op"], times.scaled["setup"]
    raw_ops = times.raw["op"]
    print(f"{name} seed={seed} trace={int(trace)}: {len(raw_ops)} ops in {wall:.1f} s; "
          f"measured {len(raw_ops) / sum(raw_ops):.2f} ops/s, "
          f"p50 {statistics.median(raw_ops) * 1e3:.2f} ms, "
          f"setup {statistics.median(times.raw['setup']):.4f} s; "
          f"median speed scale {statistics.median(times.pace.scales):.3f}")
    if trace:
        metrics = tr.metrics()
        tr.dump(os.path.join(OUT, f"trace-{name}-{seed}.json"))
    else:
        metrics = {
            "throughput_ops_s": {"value": len(ops) / sum(ops), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": statistics.quantiles(ops, n=100)[89] * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure(wl, tr, seconds: float, min_ops: int, times: Timings):
    """The closed loop: whole rounds until `seconds` have passed.

    Set-up repetitions are spread evenly over the run, between rounds.
    """
    from flowspace.errors import FlowspaceError
    from workloads import CheckFailure

    attempted = failed = 0
    failures: list[str] = []  # operations that raised
    wrong: list[str] = []  # outputs that failed a check

    def one_round(first: int, timed: bool) -> None:
        nonlocal attempted, failed
        for i in range(first, first + wl.round_size):
            args = wl.next_op(i)
            tr.unit("op" if timed else "warmup", i)
            attempted += timed
            times.pace.sample()
            start = time.perf_counter()
            try:
                out = wl.run_op(tr, args)
            except FlowspaceError as exc:
                failures.append(f"op {i} failed: {exc}")
                failed += timed
                continue
            if timed:
                times.add("op", time.perf_counter() - start)
            try:
                wl.check(args, out)
            except CheckFailure as exc:
                wrong.append(f"op {i}: {exc}")
            if tr.enabled:
                wl.probe(tr, args, out)

    one_round(0, timed=False)  # warm-up, checked but not counted
    gc.collect()
    next_op = wl.round_size
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or attempted < min_ops:
        while (len(times.raw["setup"]) < wl.setup_reps
               and elapsed >= seconds * len(times.raw["setup"]) / wl.setup_reps):
            set_up(wl, tr, times)
        one_round(next_op, timed=True)
        next_op += wl.round_size
    wall = time.perf_counter() - start
    while len(times.raw["setup"]) < wl.setup_reps:
        set_up(wl, tr, times)

    for line in (wrong + failures)[:5]:
        print(f"flowbench: {line}", file=sys.stderr)
    return attempted, failed, wrong, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("steer", "gate", "compare", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload briefly and test that each check "
                             "rejects a corrupted result")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    import_flowspace()
    if args.selftest:
        import selftest

        return selftest.main()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
