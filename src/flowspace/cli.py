"""Command-line front end.

Commands read a scenario file, run an analysis and print a report in
text or JSON form.  Each command decodes only the sections of the file
its analysis reads (README has the table): `loops` and `whatif` the
tables, `congruence` two chains and their apps, `apply` the NIB, one
chain and its apps, and a query for `--header @name`.  Exit codes are
CI-friendly: 0 means clean
(congruent / no loops / all properties hold), 1 means the analysis
verdict was negative, 2 means a usage or input error.  When the reader
of standard output goes away early, the command stops quietly with
141, the status a shell reports for a tool that SIGPIPE killed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from flowspace import __version__, actions, axioms, casestudy, scenario
from flowspace.analysis import (
    CongruenceReport,
    FlowModRequest,
    LoopFinding,
    WhatIfReport,
    behavioral_diff,
    check_congruence,
    detect_loops,
    what_if,
)
from flowspace.errors import FlowspaceError
from flowspace.headers import FIELDS, Header, MatchPattern
from flowspace.nib import NIB
from flowspace.tables import FlowEntry, FlowTable
from flowspace.transforms import (
    AppTransform,
    Drop,
    Forward,
    GuardedDelta,
    InputHeader,
    LoadAtMost,
    PickLessLoaded,
    PortName,
    PortNumber,
    RuleTemplate,
    SetField,
    SourceCountAtMost,
    apply_transform,
    chain,
    is_identity_linear,
)

# ---------------------------------------------------------------------------
# Text rendering


def render_match(p: MatchPattern) -> str:
    parts = [f"{spec.name}={v}" for spec, v in zip(FIELDS, p.entries) if v is not None]
    return "{" + ", ".join(parts) + "}" if parts else "*"


def render_entry(e: FlowEntry) -> str:
    r = e.rule
    return (f"match={render_match(r.match)} out={r.out_port} ttl={r.ttl} "
            f"act={actions.describe(r.action)} c={e.counter}")


def render_table(t: FlowTable, indent: str = "  ") -> list[str]:
    if not len(t):
        return [indent + "(empty)"]
    return [indent + render_entry(e) for e in t.entries]


def render_port_ref(ref) -> str:
    if isinstance(ref, PortName):
        return ref.name
    if isinstance(ref, PortNumber):
        return f"#{ref.value}"
    return "port-of(dest)"


def render_value_ref(ref) -> str:
    if isinstance(ref, PickLessLoaded):
        return f"less-loaded({ref.server_a}, {ref.server_b})"
    return str(ref)


def render_action_spec(spec) -> str:
    if isinstance(spec, Drop):
        return "drop"
    if isinstance(spec, Forward):
        return f"forward({render_port_ref(spec.port)})"
    if isinstance(spec, SetField):
        return f"set({spec.field}:={render_value_ref(spec.to)})"
    return "; ".join(render_action_spec(s) for s in spec.steps)


def render_template(t: RuleTemplate) -> str:
    match = "input" if isinstance(t.match, InputHeader) else render_match(t.match)
    return (f"<match={match} out={render_port_ref(t.out_port)} ttl={t.ttl} "
            f"do {render_action_spec(t.action)} c={t.counter}>")


def render_guard(g) -> str:
    if isinstance(g, SourceCountAtMost):
        return f"source-count <= {g.threshold}"
    if isinstance(g, LoadAtMost):
        return f"load({g.server_a}) <= load({g.server_b})"
    return "always"


def render_piece(piece: GuardedDelta, indent: str) -> list[str]:
    def arm(tpls) -> str:
        return " ".join(render_template(t) for t in tpls) if tpls else "(nothing)"

    if not piece.branches:
        return [f"{indent}add {arm(piece.default)}"]
    lines = []
    for guard, tpls in piece.branches:
        lines.append(f"{indent}if {render_guard(guard)}: add {arm(tpls)}")
    lines.append(f"{indent}otherwise: add {arm(piece.default)}")
    return lines


def render_transform(t: AppTransform, indent: str = "  ") -> list[str]:
    lines = []
    if not is_identity_linear(t):
        lines.append(f"{indent}linear: {[list(r) for r in t.linear]}")
    for i, slot in enumerate(t.translation):
        if not slot:
            continue
        lines.append(f"{indent}switch {i}:")
        for piece in slot:
            lines.extend(render_piece(piece, indent + "  "))
    if not lines:
        lines.append(f"{indent}(identity)")
    return lines


def render_nib_tables(nib: NIB) -> list[str]:
    lines = []
    for i, t in enumerate(nib.tables):
        lines.append(f"switch {i}: {len(t)} entries")
        lines.extend(render_table(t))
    return lines


def render_finding(f: LoopFinding) -> list[str]:
    return [
        f"switch {f.switch}: inverse rule pair",
        f"  {render_entry(f.entry_a)}",
        f"  {render_entry(f.entry_b)}",
        f"  composed action: {actions.describe(f.certificate)} (identity)",
    ]


# ---------------------------------------------------------------------------
# JSON rendering


def finding_to_obj(f: LoopFinding) -> dict:
    return {
        "switch": f.switch,
        "entries": [scenario.entry_to_obj(f.entry_a), scenario.entry_to_obj(f.entry_b)],
        "certificate": scenario.action_to_obj(f.certificate),
    }


def congruence_to_obj(report: CongruenceReport) -> dict:
    diff = None
    if report.first_difference is not None:
        diff = {"slot": report.first_difference.slot,
                "detail": report.first_difference.detail}
    return {
        "verdict": "congruent" if report.congruent else "not_congruent",
        "first_difference": diff,
        "notes": list(report.notes),
        "normalized": {
            "a": scenario.transform_to_obj(report.normalized_a),
            "b": scenario.transform_to_obj(report.normalized_b),
        },
    }


def whatif_to_obj(report: WhatIfReport) -> dict:
    return {
        "diffs": [
            {
                "switch": d.switch,
                "added": [scenario.entry_to_obj(e) for e in d.added],
                "removed": [scenario.entry_to_obj(e) for e in d.removed],
            }
            for d in report.diffs
        ],
        "new_loops": [finding_to_obj(f) for f in report.new_loops],
    }


def emit_json(obj) -> None:
    """One line with sorted keys; `python -m json.tool` pretty-prints it.
    With no indent, `json` uses its C encoder."""
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands


def cmd_axioms(args) -> int:
    results = axioms.run_suite(seed=args.seed, cases=args.cases)
    if args.format == "json":
        emit_json({
            "passed": axioms.suite_passed(results),
            "results": [
                {
                    "name": r.name,
                    "description": r.description,
                    "cases": r.cases,
                    "failures": r.failures,
                    "status": _axiom_status(r),
                    "counterexample": r.counterexample,
                }
                for r in results
            ],
        })
    else:
        for r in results:
            print(f"{_axiom_status(r):<20} {r.name}  [{r.cases} cases]  {r.description}")
            if r.failures:
                print(f"{'':<20} {r.failures} failures, e.g. {r.counterexample}")
    return 0 if axioms.suite_passed(results) else 1


def _axiom_status(r: axioms.PropertyResult) -> str:
    if r.failures:
        return "FAIL"
    return "EXPECTED-DEVIATION" if r.expected_deviation else "PASS"


def cmd_congruence(args) -> int:
    doc = scenario.read_document(args.scenario)
    report = check_congruence(doc.chain(args.chain_a), doc.chain(args.chain_b))
    if args.format == "json":
        emit_json(congruence_to_obj(report))
    else:
        print(f"verdict: {'congruent' if report.congruent else 'not_congruent'}")
        if report.first_difference is not None:
            print(f"first difference: {report.first_difference.detail}")
        for note in report.notes:
            print(f"note: {note}")
        print(f"chain {args.chain_a!r} (normalized):")
        for line in render_transform(report.normalized_a):
            print(line)
        print(f"chain {args.chain_b!r} (normalized):")
        for line in render_transform(report.normalized_b):
            print(line)
    return 0 if report.congruent else 1


def _parse_header(doc: scenario.Document, literal: str) -> Header:
    if literal.startswith("@"):
        return doc.query(literal[1:])
    return scenario.header_from_obj(scenario.parse_json(literal, "--header"), "--header")


def cmd_apply(args) -> int:
    doc = scenario.read_document(args.scenario)
    nib = doc.nib()
    h = _parse_header(doc, args.header)
    result = apply_transform(chain(doc.chain(args.chain)), nib, h)
    if args.format == "json":
        emit_json({"tables": [scenario.table_to_obj(t) for t in result.tables]})
    else:
        for line in render_nib_tables(result):
            print(line)
    return 0


def _tables_nib(path) -> NIB:
    """The NIB of the scenario file at `path` without its flows, which
    neither a loop scan nor a FLOW_MOD preview reads."""
    doc = scenario.read_document(path)
    return NIB(doc.topology, doc.tables())


def cmd_loops(args) -> int:
    findings = detect_loops(_tables_nib(args.scenario))
    if args.format == "json":
        emit_json({"findings": [finding_to_obj(f) for f in findings]})
    else:
        if not findings:
            print("no inverse rule pairs found")
        for f in findings:
            for line in render_finding(f):
                print(line)
    return 1 if findings else 0


def cmd_whatif(args) -> int:
    nib = _tables_nib(args.scenario)
    if args.old_rule is not None and args.op != "modify":
        raise FlowspaceError(f"--old-rule applies to --op modify only, not --op {args.op}")
    if args.old_rule is None and args.op == "modify":
        raise FlowspaceError("--op modify needs --old-rule, the rule being replaced")
    rule_obj = scenario.parse_json(args.rule, "--rule")
    old_obj = (scenario.parse_json(args.old_rule, "--old-rule")
               if args.old_rule is not None else None)
    request = FlowModRequest(
        op=args.op,
        switch=args.switch,
        rule=scenario.rule_from_obj(rule_obj, "--rule"),
        old_rule=(scenario.rule_from_obj(old_obj, "--old-rule")
                  if args.old_rule is not None else None),
    )
    report = what_if(nib, request)
    if args.format == "json":
        emit_json(whatif_to_obj(report))
    else:
        changed = False
        for d in report.diffs:
            if not d.added and not d.removed:
                continue
            changed = True
            print(f"switch {d.switch}:")
            for e in d.added:
                print(f"  + {render_entry(e)}")
            for e in d.removed:
                print(f"  - {render_entry(e)}")
        if not changed:
            print("no table changes")
        if report.new_loops:
            print(f"new loops introduced: {len(report.new_loops)}")
            for f in report.new_loops:
                for line in render_finding(f):
                    print(line)
        else:
            print("no new loops")
    return 1 if report.new_loops else 0


def cmd_casestudy(args) -> int:
    scn = casestudy.build_scenario()
    if args.emit_scenario:
        sys.stdout.write(scenario.dump_scenario(scn))
        return 0
    report = check_congruence(scn.chains["ids-lb"], scn.chains["lb-ids"])
    witnesses = behavioral_diff(
        scn.chains["ids-lb"], scn.chains["lb-ids"],
        [(scn.nib, h) for h in scn.queries.values()],
    )
    if args.format == "json":
        obj = congruence_to_obj(report)
        obj["behavioral_witnesses"] = len(witnesses)
        emit_json(obj)
    else:
        print("service chains: detector->balancer vs balancer->detector")
        print(f"verdict: {'congruent' if report.congruent else 'not_congruent'}")
        if report.first_difference is not None:
            print(f"first difference: {report.first_difference.detail}")
        print(f"behavioral witnesses among bundled queries: {len(witnesses)}")
    return 0 if report.congruent else 1


# ---------------------------------------------------------------------------
# Parser


def _non_negative_int(text: str) -> int:
    """An argparse type: a count, so an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowspace",
        description="Flow-table vector-space analyses of OpenFlow 1.0 control apps",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites (default: 0)")
    # The global options are accepted after the subcommand too.  With no
    # default there, a value given before the subcommand is kept.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                        help="report format (overrides the global option)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the global seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", parents=[common],
                       help="run the randomized table-algebra property suite")
    p.add_argument("--cases", type=_non_negative_int, default=1000)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("congruence", parents=[common],
                       help="compare two chains' composite transforms")
    p.add_argument("scenario")
    p.add_argument("chain_a")
    p.add_argument("chain_b")
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("apply", parents=[common],
                       help="apply a chain to the scenario NIB for a header")
    p.add_argument("scenario")
    p.add_argument("chain")
    p.add_argument("--header", required=True,
                   help='header JSON (e.g. \'{"nw_src": 1}\') or @query-name')
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("loops", parents=[common],
                       help="scan the scenario tables for inverse rule pairs")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_loops)

    p = sub.add_parser("whatif", parents=[common],
                       help="preview a FLOW_MOD against the scenario NIB")
    p.add_argument("scenario")
    p.add_argument("--op", choices=("add", "delete", "modify"), required=True)
    p.add_argument("--switch", type=int, required=True)
    p.add_argument("--rule", required=True, help="rule JSON")
    p.add_argument("--old-rule", help="rule being replaced (modify only)")
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("casestudy", parents=[common],
                       help="run the bundled two-service scenario")
    p.add_argument("--emit-scenario", action="store_true",
                   help="print the bundled scenario JSON instead of the report")
    p.set_defaults(func=cmd_casestudy)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process.  Parsing keeps no
    state in it, so in-process callers share it; a one-shot shell
    command still builds it once."""
    return build_parser()


#: 128 + SIGPIPE: the exit status of a command whose output reader went away.
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:
        # Not an input error: report nothing, and point stdout at devnull
        # so that the flush at interpreter exit does not raise again.
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE
    except FlowspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
