"""End-to-end CLI checks via subprocess."""

import json
import subprocess
import sys

import pytest

from flowspace import actions, scenario
from flowspace.cli import build_parser
from flowspace.headers import MatchPattern
from flowspace.nib import NIB, Topology
from flowspace.tables import FlowEntry, FlowRule, FlowTable, negate_rule


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "flowspace", *args],
        capture_output=True, text=True, timeout=120,
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


class TestLoops:
    def test_clean_scenario_exits_0(self, casestudy_path):
        out = run_cli("loops", casestudy_path)
        assert out.returncode == 0
        assert "no inverse rule pairs" in out.stdout

    def test_planted_pair_exits_1(self, loop_scenario_path):
        out = run_cli("loops", loop_scenario_path)
        assert out.returncode == 1
        assert "inverse rule pair" in out.stdout

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


class TestAxioms:
    def test_default_run_passes(self):
        out = run_cli("axioms", "--cases", "60")
        assert out.returncode == 0
        assert "EXPECTED-DEVIATION" in out.stdout
        assert "FAIL" not in out.stdout

    def test_zero_cases(self):
        out = run_cli("axioms", "--cases", "0")
        assert out.returncode == 0

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
