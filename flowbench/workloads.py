"""The four workloads: inputs, operations, output checks and layer probes.

Each workload generates its inputs from the seed, writes its scenario
documents, and then serves operations to the closed loop in `run.py`:

* `setup(tr)` loads the scenario documents and composes their chains,
  and `install` keeps the first result for the operations;
* `next_op(i)` returns the arguments of operation `i` (untimed);
* `run_op(tr, args)` is the timed operation;
* `check(args, out)` checks the output against answers the benchmark
  computes itself, raising `CheckFailure`;
* `probe(tr, args, out)` (traced runs only) calls the layers beneath the
  operation directly, with the operation's own arguments, so each
  layer gets a span of its own.

Checks call flowspace untraced and outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from flowspace import casestudy, cli, sampling, scenario, tables, transforms
from flowspace.analysis import (
    FlowModRequest,
    behavioral_diff,
    check_congruence,
    detect_loops,
    what_if,
)
from flowspace.headers import Header
from flowspace.nib import (
    NIB,
    Flow,
    Topology,
    count_by_dest,
    count_by_src,
    effective_dest_of_header,
)
from flowspace.scenario import Scenario
from flowspace.tables import FlowEntry, FlowTable
from flowspace.transforms import ServiceChain, apply_transform

from gen import (
    LoopIndex,
    paired_entries,
    partner_stages,
    random_rule,
    random_stages,
    rng_for,
    signatures,
)


class CheckFailure(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailure(check, detail)


def write_doc(workdir: str, stem: str, scn: Scenario) -> str:
    path = os.path.join(workdir, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario.dump_scenario(scn))
    return path


def case_study_doc(workdir: str, stem: str) -> str:
    return write_doc(workdir, stem, casestudy.build_scenario())


# ---------------------------------------------------------------------------
# Layer calls shared by setup and the probes


def load_doc(tr, path: str) -> Scenario:
    scn = tr.call("scenario.load", scenario.load_scenario, path)
    if tr.enabled:
        tr.count("scenario.doc_kb", os.path.getsize(path) / 1024)
    return scn


def compose_all(tr, chains: dict[str, ServiceChain]) -> dict:
    return {name: tr.call("transforms.chain", transforms.chain, c) for name, c in chains.items()}


def _pieces(t) -> int:
    return sum(len(s) for s in t.translation)


def probe_congruence(tr, chain_a, chain_b) -> None:
    for c in (chain_a, chain_b):
        t = tr.call("transforms.chain", transforms.chain, c)
        n = tr.call("transforms.normalize", transforms.normalize, t)
        tr.count("transforms.pieces_in", _pieces(t))
        tr.count("transforms.pieces_out", _pieces(n))


def probe_stats(tr, nib: NIB, h: Header, servers=()) -> None:
    """The NIB statistics an apply of `h` reads: the source count, the
    effective destination and the load of each server in play."""
    tr.call("nib.stats", count_by_src, nib, h)
    dest = tr.call("nib.stats", effective_dest_of_header, nib, h)
    for server in servers or (dest,):
        tr.call("nib.stats", count_by_dest, nib, server)
    tr.count("nib.flows", len(nib.flows))


def probe_reduce(tr, table: FlowTable) -> None:
    out = tr.call("tables.reduce", tables.reduce, table)
    tr.count("tables.reduce_entries_in", len(table))
    tr.count("tables.reduce_entries_out", len(out))


def probe_loops(tr, nib: NIB) -> None:
    findings = tr.call("analysis.detect_loops", detect_loops, nib)
    tr.count("analysis.entries_scanned", sum(len(t) for t in nib.tables))
    tr.count("analysis.loop_findings", len(findings))


def commit(tr, table: FlowTable, request: FlowModRequest) -> FlowTable:
    if request.op == "add":
        return tr.call("transforms.flow_mod", transforms.flow_mod_add, table, request.rule)
    if request.op == "delete":
        return tr.call("transforms.flow_mod", transforms.flow_mod_delete, table, request.rule)
    return tr.call("transforms.flow_mod", transforms.flow_mod_modify, table,
                   request.old_rule, request.rule)


def check_reduced(before: FlowTable, after: FlowTable) -> None:
    """`reduce` may only drop entries, and must leave nothing cancellable."""
    require(set(after) <= set(before), "compare.reduce_subset",
            "reduce output holds entries its input lacks")
    left = LoopIndex(after)
    require(not left.pairs() and not left.self_inverse(), "compare.reduce_cancelled",
            "reduce output still holds a cancellable entry")


class Workload:
    name = ""
    #: Operations per round; a run always attempts whole rounds.
    round_size = 1
    #: Set-up repetitions per run, spread over the run; setup_s is their median.
    setup_reps = 1

    def setup(self, tr) -> dict:
        """Load the scenario documents and compose their chains; return the
        state the operations need."""
        raise NotImplementedError

    def install(self, state: dict) -> None:
        self.__dict__.update(state)


# ---------------------------------------------------------------------------
# steer: both case-study chain orders over a NIB of 10,000 observed flows


class Steer(Workload):
    name = "steer"
    round_size = 8
    setup_reps = 10
    FLOWS = 10_000
    SOURCES = 2_500
    HEADERS = 256
    #: Slot of the detector stage in each composite (see flowspace.casestudy).
    DETECTOR_SLOT = {"ids-lb": 1, "lb-ids": 0}

    def __init__(self, seed: int, workdir: str):
        rng = rng_for(self.name, seed)
        cfg = casestudy.CaseStudyConfig()
        self.threshold = cfg.anomaly_threshold
        self.servers = (cfg.server_a, cfg.server_b)
        sources = rng.sample(range(0x0B000000, 0x0B100000), self.SOURCES + 64)
        seen, unseen = sources[:self.SOURCES], sources[self.SOURCES:]
        self.src_count: Counter = Counter()
        flows = []
        for _ in range(self.FLOWS):
            src = rng.choice(seen)
            self.src_count[src] += 1
            assigned = rng.choice(self.servers + (None,))
            flows.append(Flow(Header.from_fields(nw_src=src, nw_dst=casestudy.VIRTUAL,
                                                 tp_src=rng.randint(1024, 0xFFFF)), assigned))
        base = casestudy.build_scenario(cfg)
        nib = NIB(base.topology, base.nib.tables, tuple(flows))
        self.path = write_doc(workdir, f"steer-{seed}",
                              Scenario(base.topology, nib, base.apps, base.chains, base.queries))
        # Headers address a server directly, so none is an observed flow
        # and every destination lookup scans all flows.
        self.headers = [
            Header.from_fields(nw_src=rng.choice(unseen if rng.random() < 0.1 else seen),
                               nw_dst=rng.choice(self.servers), tp_src=rng.randint(0, 0xFFFF))
            for _ in range(self.HEADERS)
        ]

    def setup(self, tr) -> dict:
        scn = load_doc(tr, self.path)
        return {"nib": scn.nib, "chains": scn.chains, "composites": compose_all(tr, scn.chains)}

    def next_op(self, i: int) -> Header:
        return self.headers[i % len(self.headers)]

    def run_op(self, tr, h: Header) -> dict[str, NIB]:
        return {name: tr.call("transforms.apply", apply_transform, t, self.nib, h)
                for name, t in self.composites.items()}

    def check(self, h: Header, out: dict[str, NIB]) -> None:
        require(set(out) == set(self.DETECTOR_SLOT), "steer.staged", "wrong chains applied")
        expect_drop = self.src_count[h.field("nw_src")] > self.threshold
        for name, result in out.items():
            staged = self.nib
            for stage in self.chains[name].stages:
                staged = apply_transform(stage, staged, h)
            require(staged.tables == result.tables, "steer.staged",
                    f"{name}: composite result differs from its stages applied in turn")
            slot = result.tables[self.DETECTOR_SLOT[name]]
            took_drop = any(not any(e.rule.action.linear) for e in slot)
            require(took_drop == expect_drop, "steer.detector_arm",
                    f"{name}: detector arm {'drop' if took_drop else 'forward'} for a source "
                    f"with {self.src_count[h.field('nw_src')]} flows")

    def probe(self, tr, h: Header, out) -> None:
        probe_stats(tr, self.nib, h, self.servers)


# ---------------------------------------------------------------------------
# gate: preview every FLOW_MOD with what_if, then commit it


@dataclass(frozen=True)
class FlowMod:
    request: FlowModRequest
    added: FlowEntry | None
    removed: FlowEntry | None
    expected_new: frozenset  # new loops, as pairs of entries


class Gate(Workload):
    """One operation is a balanced batch on one switch: an add, a modify
    and a delete, each previewed with what_if and then committed, so
    table sizes hold steady and every operation costs about the same."""

    name = "gate"
    setup_reps = 20
    SWITCHES = 2
    SIGNATURES = 16
    #: Per signature: 5 inverse pairs, 5 rules without a partner, 1 drop
    #: rule, so each table starts with 16 * 16 = 256 entries.
    GROUP = (5, 5, 1)
    PLANT_SHARE = 1 / 3

    def __init__(self, seed: int, workdir: str):
        rng = rng_for(self.name, seed)
        self.stream = rng_for(self.name, seed, "stream")
        topology = Topology(self.SWITCHES)
        self.sigs = [signatures(rng, self.SIGNATURES) for _ in range(self.SWITCHES)]
        initial = [[e for sig in sigs for e in paired_entries(rng, [sig], *self.GROUP)]
                   for sigs in self.sigs]
        nib = NIB(topology, tuple(FlowTable(t) for t in initial))
        self.path = write_doc(workdir, f"gate-{seed}", Scenario(topology, nib))
        # The benchmark's own view of the tables, advanced as batches are issued.
        self.index = [LoopIndex(t) for t in initial]
        self.live = [list(t) for t in initial]
        self.by_rule = [{e.rule: e for e in t} for t in initial]

    def setup(self, tr) -> dict:
        return {"nib": load_doc(tr, self.path).nib}

    def _fresh_rule(self, s: int):
        """A rule not in the table; a third are the inverse of a live rule."""
        while True:
            if self.stream.random() < self.PLANT_SHARE:
                donor = self.stream.choice(self.live[s]).rule
                if not all(donor.action.linear):
                    continue
                rule = tables.negate_rule(donor)
            else:
                rule = random_rule(self.stream, self.sigs[s])
            if rule not in self.by_rule[s]:
                return rule

    def _issue(self, request: FlowModRequest, removed: FlowEntry | None) -> FlowMod:
        s = request.switch
        index, live = self.index[s], self.live[s]
        if removed is not None:
            index.remove(removed)
            k = live.index(removed)
            live[k] = live[-1]
            live.pop()
            del self.by_rule[s][removed.rule]
        added = None if request.op == "delete" else FlowEntry(request.rule, 0)
        expected = frozenset()
        if added is not None:
            expected = frozenset(frozenset((added, p)) for p in index.partners(added))
            index.add(added)
            live.append(added)
            self.by_rule[s][added.rule] = added
        return FlowMod(request, added, removed, expected)

    def next_op(self, i: int) -> list[FlowMod]:
        s = i % self.SWITCHES
        batch = [self._issue(FlowModRequest("add", s, self._fresh_rule(s)), None)]
        old = self.stream.choice(self.live[s])
        batch.append(self._issue(FlowModRequest("modify", s, self._fresh_rule(s), old.rule), old))
        old = self.stream.choice(self.live[s])
        batch.append(self._issue(FlowModRequest("delete", s, old.rule), old))
        return batch

    def run_op(self, tr, batch: list[FlowMod]):
        out = []
        for mod in batch:
            before = self.nib
            report = tr.call("analysis.what_if", what_if, before, mod.request)
            s = mod.request.switch
            new_tables = list(before.tables)
            new_tables[s] = commit(tr, before.tables[s], mod.request)
            self.nib = NIB(before.topology, tuple(new_tables), before.flows)
            out.append((before, report, self.nib))
        return out

    def check(self, batch: list[FlowMod], out) -> None:
        require(len(out) == len(batch), "gate.diff", "a FLOW_MOD was not previewed")
        for mod, (_, report, committed) in zip(batch, out):
            self.check_one(mod, report, committed)
        self.audit(detect_loops(out[-1][2]))

    def check_one(self, mod: FlowMod, report, committed: NIB) -> None:
        s = mod.request.switch
        require(len(report.diffs) == self.SWITCHES, "gate.diff", "one diff per switch expected")
        for d in report.diffs:
            mine = d.switch == s
            require(set(d.added) == ({mod.added} if mine and mod.added else set())
                    and set(d.removed) == ({mod.removed} if mine and mod.removed else set()),
                    "gate.diff", f"switch {d.switch}: diff does not match the {mod.request.op}")
        require(committed.tables == report.result.tables, "gate.commit",
                "committed tables differ from the previewed result")
        got = frozenset(frozenset((f.entry_a, f.entry_b)) for f in report.new_loops)
        require(all(f.switch == s for f in report.new_loops)
                and len(got) == len(report.new_loops) and got == mod.expected_new,
                "gate.new_loops",
                f"{len(report.new_loops)} new loops reported, {len(mod.expected_new)} expected")

    def audit(self, findings) -> None:
        got = {(f.switch, frozenset((f.entry_a, f.entry_b))) for f in findings}
        expected = {(s, p) for s, index in enumerate(self.index) for p in index.pairs()}
        require(got == expected and len(findings) == len(expected), "gate.detect_loops",
                f"{len(findings)} findings, {len(expected)} inverse pairs planted")

    def probe(self, tr, batch, out) -> None:
        for before, _, after in out:
            probe_loops(tr, before)
            probe_loops(tr, after)


# ---------------------------------------------------------------------------
# compare: congruence and behavioural diff on pairs of multi-stage chains


class Compare(Workload):
    name = "compare"
    setup_reps = 20
    SWITCHES = 4
    PAIRS = 8  # of each kind: congruent by construction, differing in one stage
    STAGES = 12
    SCENARIOS = 6
    TABLE = (3, 1, 1)  # inverse pairs, rules without a partner, drop rules
    FLOWS = 16
    round_size = 1 + 2 * PAIRS

    def __init__(self, seed: int, workdir: str):
        rng = rng_for(self.name, seed)
        topology = sampling.random_topology(rng, self.SWITCHES)
        n = self.SWITCHES
        apps, chains, self.pairs = {}, {}, []
        for k in range(self.PAIRS):
            for kind, differ in (("congruent", False), ("differ", True)):
                stem = f"{kind[0]}{k}"
                a = random_stages(rng, n, self.STAGES, f"{stem}a")
                b = partner_stages(rng, a, f"{stem}b", differ)
                apps.update({app.name: app for app in a + b})
                chains[f"{stem}-a"] = ServiceChain(tuple(a))
                chains[f"{stem}-b"] = ServiceChain(tuple(b))
                self.pairs.append((kind, f"{stem}-a", f"{stem}-b"))
        empty = NIB(topology, tuple(FlowTable() for _ in range(n)))
        self.path = write_doc(workdir, f"compare-{seed}",
                              Scenario(topology, empty, apps, chains, {}))
        self.case_path = case_study_doc(workdir, f"compare-case-{seed}")
        self.scenarios = []
        for _ in range(self.SCENARIOS):
            tbls = tuple(FlowTable(paired_entries(rng, signatures(rng, 2), *self.TABLE))
                         for _ in range(n))
            flows = tuple(Flow(sampling.random_header(rng),
                               rng.choice(sampling.ADDRESS_POOL) if rng.random() < 0.5 else None)
                          for _ in range(self.FLOWS))
            self.scenarios.append((NIB(topology, tbls, flows), sampling.random_header(rng)))

    def setup(self, tr) -> dict:
        gen = load_doc(tr, self.path)
        case = load_doc(tr, self.case_path)
        chains = dict(gen.chains)
        chains.update({f"case/{k}": c for k, c in case.chains.items()})
        names = list(case.queries)
        return {"chains": chains, "composites": compose_all(tr, chains),
                "case_scenarios": [(case.nib, case.queries[q]) for q in names],
                "noisy": names.index("noisy-client")}

    def next_op(self, i: int):
        j = i % self.round_size
        if j == 0:
            return ("case", "case/ids-lb", "case/lb-ids", self.case_scenarios)
        return self.pairs[j - 1] + (self.scenarios,)

    def run_op(self, tr, args):
        _, a, b, scenarios = args
        report = tr.call("analysis.check_congruence", check_congruence,
                         self.chains[a], self.chains[b])
        witnesses = tr.call("analysis.behavioral_diff", behavioral_diff,
                            self.composites[a], self.composites[b], scenarios)
        return report, witnesses

    def check(self, args, out) -> None:
        kind, a, b, scenarios = args
        report, witnesses = out
        if kind != "case":
            require(report.congruent == (kind == "congruent"), "compare.verdict",
                    f"{a} vs {b}: verdict {report.congruent} for a {kind} pair")
        require(not (report.congruent and witnesses), "compare.sound",
                f"{a} vs {b}: congruent, yet {len(witnesses)} behavioural witnesses")
        if kind == "case":
            require(not report.congruent and self.noisy in {w.index for w in witnesses},
                    "compare.casestudy", "case study: no witness for noisy-client")
            for nib, _ in self.scenarios:
                for t in nib.tables:
                    check_reduced(t, tables.reduce(t))
        for w in witnesses:
            require(0 <= w.index < len(scenarios) and w.header == scenarios[w.index][1],
                    "compare.witness_slots", "witness names the wrong scenario")
            differing = []
            for i, (x, y) in enumerate(zip(w.result_a.tables, w.result_b.tables)):
                rx, ry = tables.reduce(x), tables.reduce(y)
                check_reduced(x, rx)
                check_reduced(y, ry)
                if rx != ry:
                    differing.append(i)
            require(tuple(differing) == w.differing_slots, "compare.witness_slots",
                    f"witness slots {w.differing_slots}, tables differ in {tuple(differing)}")

    def probe(self, tr, args, out) -> None:
        _, a, b, scenarios = args
        probe_congruence(tr, self.chains[a], self.chains[b])
        for nib, h in scenarios:
            probe_stats(tr, nib, h)
            for composite in (self.composites[a], self.composites[b]):
                result = tr.call("transforms.apply", apply_transform, composite, nib, h)
                for t in result.tables:
                    probe_reduce(tr, t)


# ---------------------------------------------------------------------------
# cli: a fixed JSON session through cli.main, in process


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


@dataclass(frozen=True)
class Command:
    layer: str
    argv: list
    exit_code: int
    expect: tuple  # (JSON key, expected value) checked on the output


class Cli(Workload):
    name = "cli"
    setup_reps = 50
    SWITCHES = 3
    TABLE = (2, 1, 1)  # inverse pairs, rules without a partner, drop rules
    FLOWS = 12
    STAGES = 4

    def __init__(self, seed: int, workdir: str):
        rng = rng_for(self.name, seed)
        topology = sampling.random_topology(rng, self.SWITCHES)
        n = self.SWITCHES
        entries = [paired_entries(rng, signatures(rng, 2), *self.TABLE) for _ in range(n)]
        index = [LoopIndex(t) for t in entries]
        apps, chains = {}, {}
        for stem, differ in (("c", False), ("d", True)):
            a = random_stages(rng, n, self.STAGES, f"{stem}a")
            b = partner_stages(rng, a, f"{stem}b", differ)
            apps.update({app.name: app for app in a + b})
            chains[f"{stem}-a"] = ServiceChain(tuple(a))
            chains[f"{stem}-b"] = ServiceChain(tuple(b))
        flows = tuple(Flow(sampling.random_header(rng),
                           rng.choice(sampling.ADDRESS_POOL) if rng.random() < 0.5 else None)
                      for _ in range(self.FLOWS))
        nib = NIB(topology, tuple(FlowTable(t) for t in entries), flows)
        queries = {"probe": sampling.random_header(rng)}
        gen = write_doc(workdir, f"cli-{seed}", Scenario(topology, nib, apps, chains, queries))
        case = case_study_doc(workdir, f"cli-case-{seed}")
        self.paths = {"gen": gen, "case": case}

        # A planted inverse of switch 0's rule without a partner, and a delete on switch 1.
        donor = next(e for e in entries[0]
                     if all(e.rule.action.linear) and not index[0].partners(e))
        planted = FlowEntry(tables.negate_rule(donor.rule), 0)
        new_loops = len(index[0].partners(planted))
        victim = entries[1][0]
        case_rule = random_rule(rng, signatures(rng, 1), drop_share=0.0)
        loops = sum(len(i.pairs()) for i in index)

        def whatif(doc, op, switch, rule):
            return ["--format", "json", "whatif", self.paths[doc], "--op", op,
                    "--switch", str(switch), "--rule", json.dumps(scenario.rule_to_obj(rule))]

        def cmd(doc, *args):
            return ["--format", "json", args[0], self.paths[doc], *args[1:]]

        self.session = [
            Command("cli.congruence", cmd("case", "congruence", "ids-lb", "lb-ids"), 1,
                    ("verdict", "not_congruent")),
            Command("cli.congruence", cmd("gen", "congruence", "c-a", "c-b"), 0,
                    ("verdict", "congruent")),
            Command("cli.congruence", cmd("gen", "congruence", "d-a", "d-b"), 1,
                    ("verdict", "not_congruent")),
            Command("cli.apply", cmd("case", "apply", "lb-ids", "--header", "@noisy-client"), 0,
                    ("tables", 2)),
            Command("cli.apply", cmd("gen", "apply", "c-a", "--header", "@probe"), 0,
                    ("tables", n)),
            Command("cli.loops", cmd("case", "loops"), 0, ("findings", 0)),
            Command("cli.loops", cmd("gen", "loops"), 1 if loops else 0, ("findings", loops)),
            Command("cli.whatif", whatif("case", "add", 0, case_rule), 0, ("new_loops", 0)),
            Command("cli.whatif", whatif("gen", "add", 0, planted.rule), 1 if new_loops else 0,
                    ("new_loops", new_loops)),
            Command("cli.whatif", whatif("gen", "delete", 1, victim.rule), 0, ("new_loops", 0)),
        ]

    def setup(self, tr) -> dict:
        docs = {k: load_doc(tr, p) for k, p in self.paths.items()}
        return {"docs": docs,
                "composites": {k: compose_all(tr, scn.chains) for k, scn in docs.items()}}

    def next_op(self, i: int):
        return self.session

    def run_op(self, tr, session):
        return [tr.call(c.layer, run_cli, c.argv) for c in session]

    def check(self, session, out) -> None:
        require(len(out) == len(session), "cli.exit", "a command did not run")
        for c, (code, stdout) in zip(session, out):
            require(code in (0, 1) and code == c.exit_code, "cli.exit",
                    f"{c.argv[2]}: exit {code}, expected {c.exit_code}")
            key, want = c.expect
            got = json.loads(stdout)[key]
            require((len(got) if isinstance(want, int) else got) == want, "cli.output",
                    f"{c.argv[2]}: {key} is not {want}")

    def probe(self, tr, session, out) -> None:
        for c, (_, stdout) in zip(session, out):
            command, doc = c.argv[2], "gen" if c.argv[3] == self.paths["gen"] else "case"
            scn = load_doc(tr, self.paths[doc])
            if command == "congruence":
                a, b = scn.chains[c.argv[4]], scn.chains[c.argv[5]]
                probe_congruence(tr, a, b)
                tr.call("analysis.check_congruence", check_congruence, a, b)
            elif command == "apply":
                h = scn.queries[c.argv[6][1:]]
                t = tr.call("transforms.chain", transforms.chain, scn.chains[c.argv[4]])
                tr.call("transforms.apply", apply_transform, t, scn.nib, h)
                probe_stats(tr, scn.nib, h)
            elif command == "loops":
                probe_loops(tr, scn.nib)
            else:
                rule = scenario.rule_from_obj(json.loads(c.argv[-1]))
                request = FlowModRequest(c.argv[5], int(c.argv[7]), rule)
                report = tr.call("analysis.what_if", what_if, scn.nib, request)
                commit(tr, scn.nib.tables[request.switch], request)
                probe_loops(tr, scn.nib)
                probe_loops(tr, report.result)
            tr.count("cli.output_kb", len(stdout) / 1024)


WORKLOADS = {w.name: w for w in (Steer, Gate, Compare, Cli)}
