"""End-to-end CLI checks via subprocess, and an in-process fuzz test of
the exit-code contract."""

import collections
import copy
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_document
from test_packaging import SRC, console_script, run_outside
from flowspace import __version__, actions, axioms, casestudy, cli, sampling, scenario
from flowspace.cli import build_parser, main
from flowspace.headers import FIELDS
from flowspace.headers import MatchPattern
from flowspace.nib import NIB, Topology
from flowspace.tables import FlowEntry, FlowRule, FlowTable, negate_rule


def run_cli(*args: str):
    # The child gets this process's import path, so it runs the flowspace
    # these tests import, also when only pytest's `pythonpath` finds it.
    return subprocess.run(
        [sys.executable, "-m", "flowspace", *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
    )


@pytest.fixture(scope="module")
def casestudy_path(tmp_path_factory):
    out = run_cli("casestudy", "--emit-scenario")
    assert out.returncode == 0, out.stderr
    path = tmp_path_factory.mktemp("scn") / "casestudy.json"
    path.write_text(out.stdout)
    return str(path)


@pytest.fixture(scope="module")
def loop_scenario_path(tmp_path_factory):
    r = FlowRule(MatchPattern.from_fields(nw_src=1), 2, 60, actions.forward(7))
    table = FlowTable([FlowEntry(r, 0), FlowEntry(negate_rule(r), 0)])
    scn = scenario.Scenario(
        topology=Topology(1),
        nib=NIB(Topology(1), (table,)),
    )
    path = tmp_path_factory.mktemp("scn") / "loops.json"
    path.write_text(scenario.dump_scenario(scn))
    return str(path)


class TestCongruence:
    def test_different_chains_exit_1(self, casestudy_path):
        out = run_cli("congruence", casestudy_path, "ids-lb", "lb-ids")
        assert out.returncode == 1
        assert "not_congruent" in out.stdout

    def test_same_chain_exits_0(self, casestudy_path):
        out = run_cli("congruence", casestudy_path, "ids-lb", "ids-lb")
        assert out.returncode == 0
        assert "verdict: congruent" in out.stdout

    def test_unknown_chain_exits_2(self, casestudy_path):
        out = run_cli("congruence", casestudy_path, "ids-lb", "nope")
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_missing_file_exits_2(self):
        out = run_cli("congruence", "/no/such/file.json", "a", "b")
        assert out.returncode == 2

    def test_pick_too_wide_for_its_field_exits_2(self, tmp_path):
        # Either server of a deferred pick may be picked, so both must
        # fit the field when the document loads, not when a header
        # resolves the pick.
        pick = {"kind": "pick_less_loaded", "server_a": 256, "server_b": 3}
        action = {"kind": "seq", "actions": [{"kind": "forward", "port": "p0"},
                                             {"kind": "set_field", "field": "nw_tos", "to": pick}]}
        template = {"match": "input", "out_port": "p0", "ttl": 60, "action": action}
        doc = {"version": 1, "topology": {"switches": 1, "ports": {"p0": 1}}, "tables": [[]],
               "apps": [{"name": "a", "slot": 0, "delta": {"default": [template]}}],
               "chains": {"c": ["a"]}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert run_main("congruence", str(path), "c", "c") == (
            2, "", "error: apps[0].delta.default[0].action[1].to.server_a=256 exceeds 6-bit range\n")

    def test_negative_count_threshold_exits_2(self, casestudy_path, tmp_path):
        with open(casestudy_path) as fh:
            obj = json.load(fh)
        obj["apps"][0]["delta"]["branches"][0]["guard"]["threshold"] = -5
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_main("congruence", str(path), "ids-lb", "lb-ids")
        assert (code, out) == (2, "")
        assert err == ("error: apps[0].delta.branches[0].guard.threshold "
                       "must be non-negative, got -5\n")

    @pytest.mark.parametrize("path, value, where", [
        (("apps", 0, "name"), 3, "apps[0].name"),
        (("apps", 0, "slot"), True, "apps[0].slot"),
        (("apps", 0, "delta", "branches", 0, "guard", "threshold"), 1.5,
         "apps[0].delta.branches[0].guard.threshold"),
        (("apps", 1, "delta", "branches", 0, "guard", "server_a"), True,
         "apps[1].delta.branches[0].guard.server_a"),
    ])
    def test_constructor_errors_name_the_json_path(self, casestudy_path, tmp_path,
                                                   path, value, where):
        assert_names_the_path(casestudy_path, tmp_path, path, value, where,
                              "congruence", "ids-lb", "lb-ids")

    def test_output_is_byte_deterministic(self, casestudy_path):
        a = run_cli("congruence", casestudy_path, "ids-lb", "lb-ids")
        b = run_cli("congruence", casestudy_path, "ids-lb", "lb-ids")
        assert a.stdout == b.stdout

    def test_json_format(self, casestudy_path):
        out = run_cli("--format", "json", "congruence", casestudy_path, "ids-lb", "lb-ids")
        assert out.returncode == 1
        obj = json.loads(out.stdout)
        assert obj["verdict"] == "not_congruent"
        assert obj["first_difference"]["slot"] is not None


@pytest.fixture(scope="module")
def noop_scenario_path(tmp_path_factory):
    """One switch with a seeded table and a chain that changes nothing."""
    from flowspace.transforms import ServiceChain, make_app, unconditional

    r = FlowRule(MatchPattern.from_fields(nw_dst=4), 1, 30, actions.forward(2))
    noop = make_app("noop", 0, unconditional([]), 1)
    scn = scenario.Scenario(
        topology=Topology(1),
        nib=NIB(Topology(1), (FlowTable([FlowEntry(r, 6)]),)),
        apps={"noop": noop},
        chains={"noop": ServiceChain((noop,))},
    )
    path = tmp_path_factory.mktemp("scn") / "noop.json"
    path.write_text(scenario.dump_scenario(scn))
    return str(path)


class TestApply:
    def test_identity_chain_echoes_input_tables(self, noop_scenario_path):
        out = run_cli("--format", "json", "apply", noop_scenario_path, "noop",
                      "--header", "{}")
        assert out.returncode == 0
        scn = scenario.load_scenario(noop_scenario_path)
        expected = [scenario.table_to_obj(t) for t in scn.nib.tables]
        assert json.loads(out.stdout)["tables"] == expected

    def test_named_query(self, casestudy_path):
        out = run_cli("apply", casestudy_path, "ids-lb", "--header", "@fresh-client")
        assert out.returncode == 0
        assert "switch 0" in out.stdout and "switch 1" in out.stdout

    def test_inline_header_json_output(self, casestudy_path):
        out = run_cli("--format", "json", "apply", casestudy_path, "lb-ids",
                      "--header", json.dumps({"nw_src": 7, "nw_dst": 0x0A000065}))
        assert out.returncode == 0
        tables = json.loads(out.stdout)["tables"]
        assert len(tables) == 2 and tables[0] and tables[1]

    def test_noisy_header_adds_drop_rule(self, casestudy_path):
        out = run_cli("apply", casestudy_path, "ids-lb", "--header", "@noisy-client")
        assert out.returncode == 0
        assert "drop" in out.stdout

    def test_bad_header_literal(self, casestudy_path):
        out = run_cli("apply", casestudy_path, "ids-lb", "--header", "{nope")
        assert out.returncode == 2

    def test_unknown_query_name(self, casestudy_path):
        out = run_cli("apply", casestudy_path, "ids-lb", "--header", "@missing")
        assert out.returncode == 2


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exits_141_without_error_line(self, casestudy_path, monkeypatch, capsys, fmt):
        closed = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["--format", fmt, "apply", casestudy_path, "ids-lb",
                     "--header", "@fresh-client"])
        assert code == 141
        # stdout now points at devnull, so a later flush cannot fail
        assert sys.stdout is not closed
        sys.stdout.write("ignored")
        sys.stdout.flush()
        sys.stdout.close()
        assert capsys.readouterr().err == ""

    def test_input_errors_still_exit_2(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["loops", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def assert_names_the_path(casestudy_path, tmp_path, path, value, where, *argv):
    """`argv` on the bundled document with `value` at `path` exits 2 with
    one error line that starts with the JSON path `where`."""
    with open(casestudy_path) as fh:
        obj = json.load(fh)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_main(argv[0], str(bad), *argv[1:])
    assert (code, out) == (2, "")
    assert re.match(f"error: {re.escape(where)}[= ]", err), err
    assert err.count("\n") == 1, err


class TestLoops:
    def test_clean_scenario_exits_0(self, casestudy_path):
        out = run_cli("loops", casestudy_path)
        assert out.returncode == 0
        assert "no inverse rule pairs" in out.stdout

    def test_planted_pair_exits_1(self, loop_scenario_path):
        out = run_cli("loops", loop_scenario_path)
        assert out.returncode == 1
        assert "inverse rule pair" in out.stdout

    @pytest.mark.parametrize("path, value, where", [
        (("topology", "switches"), True, "topology.switches"),
        (("topology", "ports", "p_lb"), True, "topology.ports[p_lb]"),
        (("topology", "server_ports", "167772261"), 70_000, "topology.server_ports[167772261]"),
        (("flows", 0, "header", "nw_src"), 1.0, "flows[0].header.nw_src"),
        (("flows", 0, "assigned_dest"), -1, "flows[0].assigned_dest"),
    ])
    def test_constructor_errors_name_the_json_path(self, casestudy_path, tmp_path,
                                                   path, value, where):
        assert_names_the_path(casestudy_path, tmp_path, path, value, where, "loops")

    def test_unknown_modify_field_names_the_json_path(self, loop_scenario_path, tmp_path):
        with open(loop_scenario_path) as fh:
            obj = json.load(fh)
        obj["tables"][0][0]["action"] = {"kind": "modify", "field": "vlan", "delta": 1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run_main("loops", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: tables[0][0].action.field must be a header field name, got 'vlan'\n"

    def test_json_findings(self, loop_scenario_path):
        out = run_cli("--format", "json", "loops", loop_scenario_path)
        obj = json.loads(out.stdout)
        assert len(obj["findings"]) == 1
        assert obj["findings"][0]["certificate"] == {"kind": "forward", "delta": 0}

    def test_format_after_subcommand(self, loop_scenario_path):
        before = run_cli("--format", "json", "loops", loop_scenario_path)
        after = run_cli("loops", loop_scenario_path, "--format", "json")
        assert (after.stdout, after.returncode) == (before.stdout, before.returncode)
        assert json.loads(after.stdout)["findings"]


class TestWhatIf:
    RULE = json.dumps({
        "match": {"nw_src": 1}, "out_port": 2, "ttl": 60,
        "action": {"kind": "forward", "delta": 7},
    })
    INVERSE = json.dumps({
        "match": {"nw_src": 1}, "out_port": 2, "ttl": 60,
        "action": {"kind": "forward", "delta": 2**16 - 7},
    })

    def test_add_shows_diff(self, casestudy_path):
        out = run_cli("whatif", casestudy_path, "--op", "add", "--switch", "0",
                      "--rule", self.RULE)
        assert out.returncode == 0
        assert "+ match=" in out.stdout
        assert "no new loops" in out.stdout

    def test_adding_inverse_reports_loop(self, loop_scenario_path, tmp_path):
        # start from a table holding only the forward rule (lowest-ordered entry)
        scn = scenario.load_scenario(loop_scenario_path)
        entry = scn.nib.tables[0].entries[0]
        single = scenario.Scenario(
            topology=scn.topology,
            nib=NIB(scn.topology, (FlowTable([entry]),)),
        )
        path = tmp_path / "single.json"
        path.write_text(scenario.dump_scenario(single))
        out = run_cli("whatif", str(path), "--op", "add", "--switch", "0",
                      "--rule", self.INVERSE)
        assert out.returncode == 1
        assert "new loops introduced: 1" in out.stdout

    def test_delete_absent_exits_2(self, casestudy_path):
        out = run_cli("whatif", casestudy_path, "--op", "delete", "--switch", "0",
                      "--rule", self.RULE)
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_json_format(self, casestudy_path):
        out = run_cli("--format", "json", "whatif", casestudy_path, "--op", "add",
                      "--switch", "1", "--rule", self.RULE)
        obj = json.loads(out.stdout)
        assert obj["diffs"][1]["added"]
        assert obj["new_loops"] == []

    @pytest.mark.parametrize("op", ["add", "delete"])
    @pytest.mark.parametrize("old", ["{}", "0", "[]", RULE])
    def test_old_rule_outside_modify_is_an_input_error(self, casestudy_path, op, old):
        code, out, err = run_main("whatif", casestudy_path, "--op", op, "--switch", "0",
                                  "--rule", self.RULE, "--old-rule", old)
        assert (code, out) == (2, "")
        assert err == f"error: --old-rule applies to --op modify only, not --op {op}\n"

    @pytest.mark.parametrize("old, message", [
        ("{}", "--old-rule is missing required key 'match'"),
        ("0", "--old-rule must be an object, got int"),
        ("[]", "--old-rule must be an object, got list"),
        ("null", "--old-rule must be an object, got NoneType"),
    ])
    def test_falsy_old_rule_fails_with_the_decoder_message(self, casestudy_path, old, message):
        code, out, err = run_main("whatif", casestudy_path, "--op", "modify", "--switch", "0",
                                  "--rule", self.RULE, "--old-rule", old)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("path, value, message", [
        (("out_port",), 70_000, "--rule.out_port=70000 exceeds 16-bit range"),
        (("ttl",), 70_000, "--rule.ttl=70000 exceeds 16-bit range"),
        (("action",), {"kind": "seq", "actions": {}},
         "--rule.action.actions must be an array, got dict"),
        (("action",), {"kind": "seq", "actions": "ab"},
         "--rule.action.actions must be an array, got str"),
        (("action",), {"kind": "modify", "field": "vlan", "delta": 1},
         "--rule.action.field must be a header field name, got 'vlan'"),
    ])
    def test_rule_values_name_their_path(self, casestudy_path, path, value, message):
        rule = json.loads(self.RULE)
        rule[path[0]] = value
        code, out, err = run_main("whatif", casestudy_path, "--op", "add", "--switch", "0",
                                  "--rule", json.dumps(rule))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("literal, message", [
        ('{"match": {"nw_src": 1}, "out_port": 2, "ttl": 60,'
         ' "action": {"kind": "modify", "field": ["x"], "delta": 1}}',
         "--rule.action.field must be a field name, got list"),
        ('{"match": {"nw_src": 1}, "out_port": 2, "ttl": 60,'
         ' "action": {"kind": "seq", "actions": [{"kind": "forward", "delta": true}]}}',
         "--rule.action[0].delta must be an int, got bool"),
        ('{"match": {"nw_src": null}, "out_port": 2, "ttl": 60, "action": {"kind": "drop"}}',
         "--rule.match.nw_src must be an int, got NoneType"),
        ('{"match": {"nw_src": 1}, "out_port": 2, "ttl": 60, "action": {"kind": "drop", "x": 1}}',
         "unknown keys in --rule.action: ['x']"),
        ('{"match": {"nw_src": 1}, "out_port": 1.5, "ttl": 60, "action": {"kind": "drop"}}',
         "--rule.out_port must be an int, got float"),
        ('{"match": {"nw_src": 1}, "out_port": 2, "ttl": 60, "action": {"kind": {"a": 1}}}',
         "--rule.action: unknown action kind {'a': 1}"),
    ])
    def test_rule_literal_errors(self, casestudy_path, literal, message):
        code, out, err = run_main("whatif", casestudy_path, "--op", "add", "--switch", "0",
                                  "--rule", literal)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_old_rule_literal_errors(self, casestudy_path):
        old = ('{"match": {"nw_src": 1}, "out_port": 2, "ttl": 60,'
               ' "action": {"kind": "seq", "actions": [{"kind": "forward", "delta": true}]}}')
        code, out, err = run_main("whatif", casestudy_path, "--op", "modify", "--switch", "0",
                                  "--rule", self.RULE, "--old-rule", old)
        assert (code, out, err) == (
            2, "", "error: --old-rule.action[0].delta must be an int, got bool\n")

    def test_modify_without_old_rule(self, casestudy_path):
        code, _, err = run_main("whatif", casestudy_path, "--op", "modify", "--switch", "0",
                                "--rule", self.RULE)
        assert code == 2
        assert err == "error: --op modify needs --old-rule, the rule being replaced\n"

    def test_modify_replaces_the_old_rule(self, loop_scenario_path):
        new = json.loads(self.RULE)
        new["action"]["delta"] = 9
        code, out, err = run_main("--format", "json", "whatif", loop_scenario_path,
                                  "--op", "modify", "--switch", "0", "--rule", json.dumps(new),
                                  "--old-rule", self.INVERSE)
        assert (code, err) == (0, "")
        diff = json.loads(out)["diffs"][0]
        assert [e["action"] for e in diff["removed"]] == [json.loads(self.INVERSE)["action"]]
        assert [e["action"] for e in diff["added"]] == [new["action"]]


class TestAxioms:
    def test_default_run_passes(self):
        out = run_cli("axioms", "--cases", "60")
        assert out.returncode == 0
        assert "EXPECTED-DEVIATION" in out.stdout
        assert "FAIL" not in out.stdout

    def test_zero_cases(self):
        out = run_cli("axioms", "--cases", "0")
        assert out.returncode == 0

    @pytest.mark.parametrize("cases, message", [
        ("-3", "argument --cases: must be non-negative, got -3"),
        ("x", "argument --cases: invalid int value: 'x'"),
    ])
    def test_negative_cases_is_a_usage_error(self, cases, message):
        out = run_cli("axioms", "--cases", cases)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith("usage: ") and out.stderr.endswith(f"error: {message}\n")

    def test_seed_reproducibility(self):
        a = run_cli("--seed", "4", "axioms", "--cases", "40")
        b = run_cli("axioms", "--cases", "40", "--seed", "4")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("argv, seed", [
        (["axioms"], 0),
        (["--seed", "4", "axioms"], 4),
        (["axioms", "--seed", "5"], 5),
        (["--seed", "4", "axioms", "--seed", "5"], 5),
        (["--seed", "4", "--format", "json", "axioms"], 4),
    ])
    def test_seed_after_subcommand_wins(self, argv, seed):
        assert build_parser().parse_args(argv).seed == seed

    def test_json_format(self):
        out = run_cli("--format", "json", "axioms", "--cases", "20")
        obj = json.loads(out.stdout)
        assert obj["passed"] is True
        statuses = {r["name"]: r["status"] for r in obj["results"]}
        assert statuses["scalar-sum-deviation"] == "EXPECTED-DEVIATION"


class TestCaseStudyCommand:
    def test_report_exits_1(self):
        out = run_cli("casestudy")
        assert out.returncode == 1
        assert "not_congruent" in out.stdout
        assert "behavioral witnesses" in out.stdout

    def test_emitted_scenario_parses(self):
        out = run_cli("casestudy", "--emit-scenario")
        scn = scenario.loads_scenario(out.stdout)
        assert set(scn.chains) == {"ids-lb", "lb-ids"}

    def test_emit_is_deterministic(self):
        a = run_cli("casestudy", "--emit-scenario")
        b = run_cli("casestudy", "--emit-scenario")
        assert a.stdout == b.stdout


class TestInstalledCommandStep:
    """The commands of the CI workflow's "Installed command" step, in its
    order and with its exit-code and message checks, run from a
    temporary directory with `PYTHONPATH` naming `src` alone; the console
    script is the wrapper an installer writes (`console_script`)."""

    WHATIF_RULE = json.dumps({
        "match": {"nw_src": 1}, "out_port": 2, "ttl": 60,
        "action": {"kind": "seq", "actions": [{"kind": "modify", "field": "nw_tos", "delta": 4},
                                              {"kind": "forward", "delta": 7}]},
    })
    NO_TTL = json.dumps({"version": 1, "topology": {"switches": 1},
                         "tables": [[{"match": {}, "out_port": 1, "action": {"kind": "drop"}}]]})

    def test_the_step_passes_outside_the_checkout(self, tmp_path):
        def flowspace(*argv):
            return run_outside(tmp_path, "-m", "flowspace", *argv)

        out = run_outside(tmp_path, "-c", "import flowspace; print(flowspace.__file__)")
        assert (out.returncode, out.stdout) == (0, f"{SRC / 'flowspace' / '__init__.py'}\n")
        out = flowspace("casestudy", "--emit-scenario")
        assert out.returncode == 0
        (tmp_path / "case.json").write_text(out.stdout)
        out = flowspace("--format", "json", "loops", "case.json")
        assert out.returncode == 0 and json.loads(out.stdout)["findings"] == []
        # The case study's two chain orders are not congruent: exit 1, a verdict.
        out = flowspace("congruence", "case.json", "ids-lb", "lb-ids")
        assert out.returncode == 1 and "not_congruent" in out.stdout
        # A table entry without its ttl: exit 2, a bad document.
        (tmp_path / "bad.json").write_text(self.NO_TTL)
        out = flowspace("loops", "bad.json")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: tables[0][0] is missing required key 'ttl'\n"
        out = flowspace("whatif", "case.json", "--op", "add", "--switch", "0",
                        "--rule", self.WHATIF_RULE)
        assert out.returncode == 0 and "no new loops" in out.stdout
        out = flowspace("--format", "json", "apply", "case.json", "lb-ids",
                        "--header", "@noisy-client")
        assert out.returncode == 0 and json.loads(out.stdout)
        out = flowspace("axioms", "--cases", "20")
        assert out.returncode == 0 and "FAIL" not in out.stdout
        script = str(console_script(tmp_path))
        out = run_outside(tmp_path, script, "--version")
        assert (out.returncode, out.stdout) == (0, f"flowspace {__version__}\n")
        out = run_outside(tmp_path, script, "--format", "json", "loops", "case.json")
        assert out.returncode == 0 and json.loads(out.stdout)["findings"] == []


# ---------------------------------------------------------------------------
# In process: one parser serves every call, and JSON output is one line
# with sorted keys.


class TestInProcess:
    def test_parser_is_built_once(self, monkeypatch, loop_scenario_path):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_main("loops", loop_scenario_path)[0] == 1
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_no_option_leaks_into_the_next_call(self, monkeypatch, loop_scenario_path):
        seen = []

        def run_suite(seed, cases):
            seen.append((seed, cases))
            return []

        monkeypatch.setattr(axioms, "run_suite", run_suite)
        text = run_main("loops", loop_scenario_path)[1]
        assert text.startswith("switch 0: inverse rule pair")
        calls = [
            (["--format", "json", "loops", loop_scenario_path], "json", None),
            (["loops", loop_scenario_path, "--format", "json"], "json", None),
            (["loops", loop_scenario_path], "text", None),
            (["--seed", "4", "--format", "json", "axioms", "--cases", "3"], "json", (4, 3)),
            (["axioms", "--cases", "3", "--seed", "5"], "text", (5, 3)),
            (["axioms"], "text", (0, 1000)),
            (["--seed", "4", "axioms", "--seed", "6", "--format", "json"], "json", (6, 1000)),
            (["axioms", "--cases", "2"], "text", (0, 2)),
            (["loops", loop_scenario_path], "text", None),
        ]
        for argv, fmt, suite_args in calls:
            code, out, err = run_main(*argv)
            assert err == ""
            if fmt == "json":
                json.loads(out)
            elif argv[0] == "loops":
                assert out == text
            else:
                assert out == ""  # an empty suite prints no lines
            if suite_args is not None:
                assert seen.pop() == suite_args
        assert seen == []

    @pytest.mark.parametrize("argv", [
        ["axioms", "--cases", "5"],
        ["congruence", "{case}", "ids-lb", "lb-ids"],
        ["congruence", "{case}", "ids-lb", "ids-lb"],
        ["apply", "{case}", "ids-lb", "--header", "@noisy-client"],
        ["loops", "{case}"],
        ["loops", "{loops}"],
        ["whatif", "{case}", "--op", "add", "--switch", "0", "--rule", TestWhatIf.RULE],
        ["whatif", "{loops}", "--op", "delete", "--switch", "0", "--rule", TestWhatIf.RULE],
        ["casestudy"],
    ])
    def test_json_is_one_sorted_line(self, argv, casestudy_path, loop_scenario_path):
        paths = {"{case}": casestudy_path, "{loops}": loop_scenario_path}
        argv = [paths.get(a, a) for a in argv]
        code, out, err = run_main("--format", "json", *argv)
        assert code in (0, 1) and err == ""
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Exit-code contract: 0 or 1 is a verdict with nothing on stderr, 2 is one
# `error:` line; no input may end in an uncaught exception, and a
# non-integer where the format wants an integer is never accepted.

BUNDLED = scenario.scenario_to_obj(casestudy.build_scenario())
WIDTHS = {f.name: f.width for f in FIELDS}


def _paths(node, path=()):
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _typed_paths(doc):
    """The paths that hold an integer or an array."""
    return [p for p in _paths(doc) if type(_get(doc, p)) in (int, list)]


#: The bundled document, with one table entry whose action is a seq, so
#: that a concrete action array is fuzzed too.
FUZZ_DOC = copy.deepcopy(BUNDLED)
FUZZ_DOC["tables"][0] = [{"match": {"nw_src": 1}, "out_port": 2, "ttl": 60, "counter": 0,
                          "action": {"kind": "seq", "actions": [
                              {"kind": "modify", "field": "nw_src", "delta": 5},
                              {"kind": "forward", "delta": 7}]}}]
PATHS = list(_paths(FUZZ_DOC))
DROP = "<drop the key>"
DEEP = "<100,000 nested arrays>"
DEEP_TEXT = "[" * 100_000 + "]" * 100_000
REPLACEMENTS = (1.5, -0.0, True, False, "7", "", "ab", None, -1, 70_000, 2**64, [[[7]]], {},
                DROP, DEEP)


def _mutate(mutations, base=FUZZ_DOC):
    """The base document (FUZZ_DOC by default) with the mutations
    applied, as JSON text; the paths at which it now holds a non-integer
    where the base holds an integer, or a non-array where the base holds
    an array; and the paths the mutations changed.  A document no parser
    can read is broken and changed at the empty path, which every reader
    reads.  DROP deletes object keys only, so that no path shifts."""
    doc = copy.deepcopy(base)
    changed = set()
    for path, value in mutations:
        try:
            parent = _get(doc, path[:-1])
            if value == DROP:
                if isinstance(parent, dict):
                    del parent[path[-1]]
                    changed.add(path)
            else:
                parent[path[-1]]  # the path must still exist
                parent[path[-1]] = value
                changed.add(path)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced or removed this path
    broken = set()
    for path in _typed_paths(base):
        try:
            value = _get(doc, path)
        except (KeyError, IndexError, TypeError):
            continue
        # an absent assigned_dest may be written as null
        if type(value) is not type(_get(base, path)) and not (
                value is None and path[-1] == "assigned_dest"):
            broken.add(path)
    text = json.dumps(doc)
    if DEEP in text:
        broken.add(())
        changed.add(())
    return text.replace(json.dumps(DEEP), DEEP_TEXT), broken, changed


def _app_paths(*chains):
    return [("apps", i) for i, app in enumerate(FUZZ_DOC["apps"])
            if any(app["name"] in FUZZ_DOC["chains"][c] for c in chains)]


#: What each command reads of FUZZ_DOC with the arguments the fuzz test
#: gives it, as paths.  Every command reads the version and the topology;
#: `chain` reads every app's name.  `apply` reads a query only for
#: `--header @name`.
TOP = [("version",), ("topology",)]
NIB_PATHS = [("tables",), ("flows",)]
APP_NAMES = [("apps", i, "name") for i in range(len(FUZZ_DOC["apps"]))]
READS = {
    "loops": TOP + NIB_PATHS,
    "whatif": TOP + NIB_PATHS,
    "congruence": TOP + [("chains", "ids-lb"), ("chains", "lb-ids")] + APP_NAMES
    + _app_paths("ids-lb", "lb-ids"),
    "apply": TOP + NIB_PATHS + [("chains", "ids-lb")] + APP_NAMES + _app_paths("ids-lb"),
}


def _reads(paths, reads) -> bool:
    """Whether a reader of `reads` reads any of `paths`: a path read, one
    inside it, or one that holds it.  Every command also reads the
    `tables` array itself, for its length."""
    return any(p[:len(r)] == r or r[:len(p)] == p for p in paths for r in reads) or any(
        ("tables",)[:len(p)] == p for p in paths)


def _header_is_valid(literal: str) -> bool:
    if literal.startswith("@"):
        return literal[1:] in BUNDLED["queries"]
    try:
        obj = json.loads(literal)
    except (ValueError, RecursionError):
        return False
    return isinstance(obj, dict) and all(
        k in WIDTHS and type(v) is int and 0 <= v < 1 << WIDTHS[k] for k, v in obj.items()
    )


header_values = st.one_of(
    st.integers(-1, 2**64), st.floats(), st.booleans(), st.text(max_size=3), st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)
header_literals = st.one_of(
    st.dictionaries(st.sampled_from([*WIDTHS, "vlan"]), header_values, max_size=3)
    .map(json.dumps),
    st.sampled_from(["@fresh-client", "@missing", "{nope", "[]", "7", DEEP_TEXT]),
)


def run_main(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@pytest.fixture(scope="module")
def whatif_path(tmp_path_factory):
    """The bundled scenario with TestWhatIf.RULE on switch 0, so that a
    delete or a modify of it succeeds."""
    doc = copy.deepcopy(BUNDLED)
    doc["tables"][0] = [dict(json.loads(TestWhatIf.RULE), counter=0)]
    path = tmp_path_factory.mktemp("fuzz") / "whatif.json"
    path.write_text(json.dumps(doc))
    return str(path)


RULE_OBJ = json.loads(TestWhatIf.RULE)
VALID_RULE = (TestWhatIf.RULE, False)
#: (literal, holds a non-integer where a rule holds an integer)
rule_literals = st.lists(
    st.tuples(st.sampled_from(list(_paths(RULE_OBJ))), st.sampled_from(REPLACEMENTS)),
    max_size=2,
).map(lambda mutations: _mutate(mutations, RULE_OBJ)[:2])
#: Literals that are no rule at all, several of them falsy.
NOT_RULES = [(text, True) for text in ("{}", "0", "[]", "null", '""', "{nope", DEEP_TEXT)]


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None)
    @given(
        mutations=st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(REPLACEMENTS)),
                           max_size=3),
        header=header_literals,
        command=st.sampled_from(["apply", "congruence", "loops", "whatif"]),
    )
    @example(mutations=[], header='{"nw_src": 1.5}', command="apply")
    @example(mutations=[], header='{"nw_src": true}', command="apply")
    @example(mutations=[(("topology", "ports", "p_lb"), 70_000)],
             header='{"nw_src": 1}', command="apply")
    @example(mutations=[(("topology",), DEEP)], header="{}", command="loops")
    @example(mutations=[], header=DEEP_TEXT, command="apply")
    @example(mutations=[(("apps", 1, "delta", "default", 0, "action", "actions", 0, "field"), 1.5)],
             header="{}", command="apply")
    @example(mutations=[(("flows",), {})], header="{}", command="loops")
    @example(mutations=[(("flows",), "ab")], header="{}", command="loops")
    @example(mutations=[(("apps", 1, "delta", "default", 0, "action", "actions"), "")],
             header="{}", command="apply")
    @example(mutations=[(("tables", 0, 0, "action", "actions"), {})], header="{}",
             command="whatif")
    @example(mutations=[(("chains", "ids-lb"), "ab")], header="{}", command="congruence")
    @example(mutations=[(("apps", 5, "delta", "default"), 1.5)], header="{}", command="apply")
    @example(mutations=[(("apps", 5, "delta", "default"), 1.5)], header="{}",
             command="congruence")
    @example(mutations=[(("apps",), {})], header="{}", command="loops")
    @example(mutations=[(("tables", 1), "ab"), (("queries",), 7)], header="{}",
             command="congruence")
    @example(mutations=[(("topology", "switches"), 2**64)], header="{}", command="congruence")
    @example(mutations=[(("tables",), [[]])], header="{}", command="congruence")
    @example(mutations=[(("queries", "noisy-client"), [])], header="@fresh-client",
             command="apply")
    @example(mutations=[(("queries", "fresh-client"), [])], header="@fresh-client",
             command="apply")
    def test_exit_code_and_stderr(self, fuzz_path, mutations, header, command):
        text, broken, changed = _mutate(mutations)
        fuzz_path.write_text(text)
        path = str(fuzz_path)
        argv = {
            "apply": ["apply", path, "ids-lb", f"--header={header}"],
            "congruence": ["congruence", path, "ids-lb", "lb-ids"],
            "loops": ["loops", path],
            "whatif": ["whatif", path, "--op", "add", "--switch", "1",
                       "--rule", TestWhatIf.RULE],
        }[command]
        reads = READS[command]
        if command == "apply" and header.startswith("@"):
            reads = reads + [("queries", header[1:])]
        code, _, err = run_main(*argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
        bad_header = command == "apply" and not _header_is_valid(header)
        if _reads(broken, reads) or bad_header:
            assert code == 2
        elif not _reads(changed, reads):
            # Only sections the command does not read were changed.
            assert code in (0, 1) and err == ""

    @settings(max_examples=200, deadline=None)
    @given(
        rule=rule_literals,
        old_rule=st.one_of(st.none(), st.just(VALID_RULE), rule_literals,
                           st.sampled_from(NOT_RULES)),
        switch=st.sampled_from(["0", "0", "1", "2", "-1", "1.5", "x", str(2**64)]),
        op=st.sampled_from(["add", "delete", "modify", "modify", "move"]),
    )
    @example(rule=VALID_RULE, old_rule=("{}", True), switch="0", op="add")
    @example(rule=VALID_RULE, old_rule=("{}", True), switch="0", op="modify")
    @example(rule=VALID_RULE, old_rule=VALID_RULE, switch="0", op="modify")
    @example(rule=VALID_RULE, old_rule=None, switch="0", op="delete")
    @example(rule=(TestWhatIf.INVERSE, False), old_rule=None, switch="0", op="add")
    def test_whatif_arguments(self, whatif_path, rule, old_rule, switch, op):
        argv = ["whatif", whatif_path, f"--op={op}", f"--switch={switch}", f"--rule={rule[0]}"]
        if old_rule is not None:
            argv.append(f"--old-rule={old_rule[0]}")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage line, then an error line
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        usage_error = op not in ("add", "delete", "modify") or not switch.lstrip("-").isdigit()
        assert err.startswith("usage: ") == usage_error, err
        if usage_error:
            assert code == 2 and "error: argument" in err, err
        elif code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
        if rule[1] or (old_rule is not None and (old_rule[1] or op != "modify")):
            assert code == 2


# ---------------------------------------------------------------------------
# Each command decodes only the sections it reads (see README's table).

#: Each command that reads a scenario file, with arguments that succeed on
#: the bundled document; "{path}" stands for the file.
FILE_COMMANDS = {
    "congruence": ["congruence", "{path}", "ids-lb", "lb-ids"],
    "apply": ["apply", "{path}", "ids-lb", "--header", '{"nw_src": 7}'],
    "loops": ["loops", "{path}"],
    "whatif": ["whatif", "{path}", "--op", "add", "--switch", "0", "--rule", TestWhatIf.RULE],
}
#: For each command, sections of the bundled document it does not read,
#: each broken.  apps[2] is y-ids-post, which `ids-lb` does not name.
UNREAD = {
    "congruence": [(("tables", 0), "ab"), (("flows", 0), 7), (("queries",), [])],
    "apply": [(("apps", 2, "delta"), None), (("chains", "lb-ids"), {}), (("queries",), 7)],
    "loops": [(("apps", 0, "delta"), None), (("chains",), 7), (("queries",), [])],
    "whatif": [(("apps",), "ab"), (("chains", "ids-lb"), []), (("queries", "fresh-client"), 7)],
}


def _run_on(tmp_path, argv, doc):
    """`argv` with "{path}" naming a file that holds `doc`, as bytes or as JSON."""
    path = tmp_path / "doc.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return run_main(*[str(path) if a == "{path}" else a for a in argv])


def _with(doc, mutations):
    doc = copy.deepcopy(doc)
    for path, value in mutations:
        _get(doc, path[:-1])[path[-1]] = value
    return doc


class WholeDocument:
    """The reads a command makes of a scenario file, answered from
    `load_scenario`'s whole-document decode."""

    def __init__(self, path):
        self.scn = scenario.load_scenario(path)

    def nib(self):
        return self.scn.nib

    def chain(self, name):
        return self.scn.chains[name]

    def query(self, name):
        return self.scn.queries[name]


class TestSectionsRead:
    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_unread_sections_are_not_checked(self, command, tmp_path):
        clean = _run_on(tmp_path, FILE_COMMANDS[command], BUNDLED)
        assert clean[0] in (0, 1) and clean[2] == ""
        assert _run_on(tmp_path, FILE_COMMANDS[command], _with(BUNDLED, UNREAD[command])) == clean

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_switch_count_is_checked_against_the_tables(self, command, tmp_path):
        # An app holds a row and a slot per switch: a count that no array
        # in the file bounds would let one number cost any time and memory.
        doc = _with(BUNDLED, [(("topology", "switches"), 3)])
        assert _run_on(tmp_path, FILE_COMMANDS[command], doc) == (
            2, "", "error: scenario needs exactly 3 tables\n")

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_invalid_utf8_exits_2(self, command, tmp_path):
        assert _run_on(tmp_path, FILE_COMMANDS[command], b'\xff\xfe{"version": 1}') == (
            2, "", "error: scenario is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")

    @pytest.mark.parametrize("command", ["congruence", "apply"])
    def test_a_named_apps_error_keeps_its_position(self, command, tmp_path):
        # apps[5] is y-lb-pre, which `lb-ids` names.
        doc = _with(BUNDLED, [(("apps", 5, "delta", "default", 0, "ttl"), 70_000)])
        argv = {"congruence": FILE_COMMANDS["congruence"],
                "apply": ["apply", "{path}", "lb-ids", "--header", "{}"]}[command]
        assert _run_on(tmp_path, argv, doc) == (
            2, "", "error: apps[5].delta.default[0].ttl=70000 exceeds 16-bit range\n")

    @pytest.mark.parametrize("command", ["congruence", "apply"])
    def test_duplicate_app_name_exits_2(self, command, tmp_path):
        doc = copy.deepcopy(BUNDLED)
        doc["apps"].append(copy.deepcopy(doc["apps"][3]))  # y-ids-pre, named by no chain read
        assert _run_on(tmp_path, FILE_COMMANDS[command], doc) == (
            2, "", "error: duplicate app name 'y-ids-pre'\n")

    def test_outputs_match_the_whole_document_decode(self, tmp_path, monkeypatch):
        rng = random.Random(307)
        path = str(tmp_path / "seeded.json")
        codes = collections.Counter()
        for _ in range(200):
            scn = random_document(rng)
            with open(path, "w") as fh:
                fh.write(scenario.dump_scenario(scn))
            chains, queries = sorted(scn.chains), sorted(scn.queries)
            switch = rng.randrange(scn.topology.switch_count)
            entries = scn.nib.tables[switch].entries
            rule = (rng.choice(entries).rule if entries and rng.random() < 0.5
                    else sampling.random_rule(rng))
            op = rng.choice(["add", "delete", "modify"] if entries else ["add"])
            whatif = ["whatif", path, "--op", op, "--switch", str(switch),
                      "--rule", json.dumps(scenario.rule_to_obj(rule))]
            if op == "modify":
                whatif += ["--old-rule", json.dumps(scenario.rule_to_obj(entries[0].rule))]
            header = (f"@{rng.choice(queries)}" if queries and rng.random() < 0.5
                      else json.dumps(scenario.header_to_obj(sampling.random_header(rng))))
            for argv in (["congruence", path, rng.choice(chains), rng.choice(chains)],
                         ["apply", path, rng.choice(chains), "--header", header],
                         ["loops", path],
                         whatif):
                argv = ["--format", rng.choice(["text", "json"]), *argv]
                got = run_main(*argv)
                with monkeypatch.context() as m:
                    m.setattr(scenario, "read_document", WholeDocument)
                    assert run_main(*argv) == got, argv
                codes[argv[2], got[0]] += 1
        # Both verdicts of each command with one (apply has none) occur.
        assert all(codes[c, v] for c in ("congruence", "loops", "whatif") for v in (0, 1))
        assert codes["apply", 0] == 200, codes


class TestLongInteger:
    """A JSON integer longer than Python's int-string limit (4,300 digits)
    is an input error in a scenario file and in each JSON literal."""

    BIG = "1" * 5000

    @pytest.mark.parametrize("entry", ["scenario", "--header", "--rule", "--old-rule"])
    def test_exits_2_with_one_error_line(self, entry, whatif_path, tmp_path):
        doc = copy.deepcopy(BUNDLED)
        doc["topology"]["switches"] = "<big>"
        big_path = tmp_path / "big.json"
        big_path.write_text(json.dumps(doc).replace('"<big>"', self.BIG))
        literal = f'{{"nw_src": {self.BIG}}}'
        argv = {
            "scenario": ["loops", str(big_path)],
            "--header": ["apply", whatif_path, "ids-lb", f"--header={literal}"],
            "--rule": ["whatif", whatif_path, "--op", "add", "--switch", "0",
                       f"--rule={literal}"],
            "--old-rule": ["whatif", whatif_path, "--op", "modify", "--switch", "0",
                           f"--rule={TestWhatIf.RULE}", f"--old-rule={literal}"],
        }[entry]
        code, out, err = run_main(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {entry} is not valid JSON: ") and err.count("\n") == 1, err
