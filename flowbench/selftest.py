"""Self-test of the benchmark: `python3 flowbench/run.py --selftest`.

Runs every workload for two rounds, untraced and traced, with every
check on; then feeds each output check a corrupted result and requires
that check, by name, to reject it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile

from flowspace import tables
from flowspace.analysis import Counterexample, detect_loops
from flowspace.nib import NIB
from flowspace.tables import FlowEntry, FlowTable

import run
from gen import LoopIndex
from spans import LAYER_METRICS, NullTracer
from workloads import WORKLOADS, CheckFailure, check_reduced

SEED = 0


def rejects(check: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailure as exc:
        if exc.check != check:
            raise AssertionError(f"expected {check} to reject, {exc.check} did: {exc}") from None
        return
    raise AssertionError(f"{check} accepted a corrupted result")


def with_table(nib: NIB, slot: int, table: FlowTable) -> NIB:
    tbls = list(nib.tables)
    tbls[slot] = table
    return NIB(nib.topology, tuple(tbls), nib.flows)


def short_runs() -> None:
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            result = run.run_workload(name, SEED, 0.0, trace, min_ops=2 * cls.round_size)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            want = set(LAYER_METRICS) if trace else {
                "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"}
            assert set(result["metrics"]) == want, (name, trace)


def workload(name: str, workdir: str):
    wl = WORKLOADS[name](SEED, workdir)
    wl.install(wl.setup(NullTracer()))
    return wl


def corrupt_steer(workdir: str) -> None:
    wl = workload("steer", workdir)
    tr = NullTracer()
    h = wl.next_op(0)
    out = wl.run_op(tr, h)
    wl.check(h, out)
    extra = FlowEntry(next(iter(out["ids-lb"].tables[1])).rule, 7)
    bad = dict(out, **{"ids-lb": with_table(out["ids-lb"], 0, FlowTable([extra]))})
    rejects("steer.staged", wl.check, h, bad)
    src = h.field("nw_src")
    wl.src_count[src] = 0 if wl.src_count[src] > wl.threshold else wl.threshold + 1
    rejects("steer.detector_arm", wl.check, h, out)


def corrupt_gate(workdir: str) -> None:
    wl = workload("gate", workdir)
    tr = NullTracer()
    for i in range(100):
        batch = wl.next_op(i)
        out = wl.run_op(tr, batch)
        wl.check(batch, out)
        if batch[0].expected_new:
            break
    else:
        raise AssertionError("no batch planted a new loop")
    add, (before, report, committed) = batch[0], out[0]
    s = add.request.switch
    wl.check_one(add, report, committed)
    short = dataclasses.replace(report, new_loops=report.new_loops[1:])
    rejects("gate.new_loops", wl.check_one, add, short, committed)
    diffs = tuple(dataclasses.replace(d, added=()) if d.switch == s else d for d in report.diffs)
    rejects("gate.diff", wl.check_one, add, dataclasses.replace(report, diffs=diffs), committed)
    rejects("gate.commit", wl.check_one, add, report, before)
    findings = detect_loops(out[-1][2])
    assert findings, "the gate tables hold no planted pair"
    rejects("gate.detect_loops", wl.audit, findings[1:])


def corrupt_compare(workdir: str) -> None:
    wl = workload("compare", workdir)
    tr = NullTracer()
    case = wl.next_op(0)
    report, witnesses = wl.run_op(tr, case)
    wl.check(case, (report, witnesses))
    rejects("compare.casestudy", wl.check, case,
            (report, [w for w in witnesses if w.index != wl.noisy]))
    noisy = next(w for w in witnesses if w.index == wl.noisy)
    moved = dataclasses.replace(noisy, differing_slots=noisy.differing_slots + (99,))
    rejects("compare.witness_slots", wl.check, case,
            (report, [moved if w is noisy else w for w in witnesses]))

    pair = next(wl.next_op(i) for i in range(1, wl.round_size)
                if wl.next_op(i)[0] == "congruent")
    report, witnesses = wl.run_op(tr, pair)
    wl.check(pair, (report, witnesses))
    rejects("compare.verdict", wl.check, pair,
            (dataclasses.replace(report, congruent=False), witnesses))
    nib, h = pair[3][0]
    fake = Counterexample(0, h, nib, nib, ())
    rejects("compare.sound", wl.check, pair, (report, [fake]))

    table = next(t for nib, _ in wl.scenarios for t in nib.tables if LoopIndex(t).pairs())
    reduced = tables.reduce(table)
    check_reduced(table, reduced)
    rejects("compare.reduce_cancelled", check_reduced, table, table)
    foreign = FlowEntry(next(iter(table)).rule, 99)
    rejects("compare.reduce_subset", check_reduced, table,
            FlowTable(list(reduced) + [foreign]))


def corrupt_cli(workdir: str) -> None:
    wl = workload("cli", workdir)
    tr = NullTracer()
    session = wl.next_op(0)
    out = wl.run_op(tr, session)
    wl.check(session, out)
    code, stdout = out[0]
    rejects("cli.exit", wl.check, session, [(1 - code, stdout)] + out[1:])
    k = next(i for i, c in enumerate(session) if c.expect[0] == "new_loops" and c.expect[1])
    doc = json.loads(out[k][1])
    doc["new_loops"] = doc["new_loops"][1:]
    bad = list(out)
    bad[k] = (out[k][0], json.dumps(doc))
    rejects("cli.output", wl.check, session, bad)


def main() -> int:
    short_runs()
    for test in (corrupt_steer, corrupt_gate, corrupt_compare, corrupt_cli):
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            test(workdir)
        finally:
            shutil.rmtree(workdir)
        print(f"selftest: {test.__name__} ok")
    print("selftest: ok")
    return 0
