import copy
import dataclasses
import gc
import itertools
import json
import pickle
import random
import re
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

import conftest
import oracles
from oracles import congruent, random_document, scenario_from_obj_oracle
from flowspace import actions, sampling, scenario
from flowspace.casestudy import build_scenario
from flowspace.errors import FlowspaceError, InvalidRuleError, ScenarioFormatError
from flowspace.headers import FIELD_INDEX, FIELDS, Header, MatchPattern
from flowspace.nib import Flow
from flowspace.scenario import (
    MAX_SEQ_DEPTH,
    Document,
    action_from_obj,
    action_spec_from_obj,
    action_to_obj,
    app_from_obj,
    app_to_obj,
    delta_from_obj,
    delta_to_obj,
    dump_scenario,
    entry_from_obj,
    entry_to_obj,
    flow_to_obj,
    header_from_obj,
    header_to_obj,
    load_scenario,
    loads_scenario,
    pattern_from_obj,
    pattern_to_obj,
    read_document,
    rule_from_obj,
    scenario_from_obj,
    scenario_to_obj,
    table_from_obj,
    table_to_obj,
    template_from_obj,
    topology_from_obj,
    topology_to_obj,
)
from flowspace.tables import FlowEntry, FlowRule
from flowspace.transforms import (
    AppTransform,
    DestPort,
    Drop,
    Forward,
    GuardedDelta,
    InputHeader,
    PickLessLoaded,
    PortName,
    PortNumber,
    RuleTemplate,
    Seq,
    SetField,
    TrueGuard,
    make_app,
    make_port_name,
    make_port_number,
    make_set_field,
    make_template,
)


class TestHeaderObjects:
    def test_round_trip_drops_zero_fields(self):
        h = Header.from_fields(nw_src=5, tp_dst=80)
        obj = header_to_obj(h)
        assert obj == {"nw_src": 5, "tp_dst": 80}
        assert header_from_obj(obj) == h

    def test_omitted_fields_default_to_zero(self):
        assert header_from_obj({}) == Header.from_fields()

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioFormatError):
            header_from_obj({"nw_srcc": 1})

    def test_pattern_omitted_fields_are_wildcards(self):
        p = pattern_from_obj({"nw_dst": 9})
        assert p == MatchPattern.from_fields(nw_dst=9)
        assert pattern_to_obj(p) == {"nw_dst": 9}


class TestActionObjects:
    def test_primitive_forms(self):
        assert action_to_obj(actions.drop()) == {"kind": "drop"}
        assert action_to_obj(actions.forward(3)) == {"kind": "forward", "delta": 3}
        assert action_to_obj(actions.modify_field("nw_dst", 9)) == {
            "kind": "modify", "field": "nw_dst", "delta": 9}

    def test_identity_serializes_as_zero_forward(self):
        assert action_to_obj(actions.identity()) == {"kind": "forward", "delta": 0}

    def test_composite_round_trip(self):
        a = actions.compose(actions.forward(3), actions.modify_field("nw_dst", 9))
        obj = action_to_obj(a)
        assert obj["kind"] == "seq"
        assert action_from_obj(obj) == a

    def test_constant_composite_keeps_leading_drop(self):
        a = actions.compose(actions.forward(5), actions.drop())
        obj = action_to_obj(a)
        assert obj["actions"][0] == {"kind": "drop"}
        assert action_from_obj(obj) == a

    def test_seq_applies_left_to_right(self):
        obj = {"kind": "seq", "actions": [{"kind": "drop"},
                                          {"kind": "forward", "delta": 5}]}
        assert action_from_obj(obj) == actions.compose(actions.forward(5), actions.drop())

    def test_ttl_translation_has_no_wire_form(self):
        from flowspace.actions import STATE_SIZE, AffineAction
        tr = [0] * STATE_SIZE
        tr[STATE_SIZE - 1] = 1
        with pytest.raises(ScenarioFormatError):
            action_to_obj(AffineAction((1,) * STATE_SIZE, tuple(tr)))

    def test_mixed_diagonal_has_no_wire_form(self):
        from flowspace.actions import STATE_SIZE, AffineAction
        lin = [1] * STATE_SIZE
        lin[0] = 0
        with pytest.raises(ScenarioFormatError):
            action_to_obj(AffineAction(tuple(lin), (0,) * STATE_SIZE))

    def test_random_actions_round_trip(self):
        rng = random.Random(73)
        for _ in range(300):
            a = sampling.random_action(rng)
            assert action_from_obj(action_to_obj(a)) == a

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioFormatError):
            action_from_obj({"kind": "teleport"})


class TestTableObjects:
    def test_entries_round_trip(self):
        rng = random.Random(79)
        for _ in range(50):
            t = sampling.random_table(rng)
            assert table_from_obj(table_to_obj(t)) == t

    def test_counter_defaults_to_zero(self):
        e = entry_from_obj({
            "match": {}, "out_port": 1, "ttl": 9, "action": {"kind": "drop"}})
        assert e.counter == 0

    def test_unknown_entry_key_rejected(self):
        with pytest.raises(ScenarioFormatError):
            entry_from_obj({"match": {}, "out_port": 1, "ttl": 9,
                            "action": {"kind": "drop"}, "priority": 5})

    def test_entry_round_trip_keeps_counter(self):
        rng = random.Random(83)
        e = sampling.random_entry(rng)
        assert entry_from_obj(entry_to_obj(e)) == e


class TestTopologyObjects:
    def test_round_trip(self):
        rng = random.Random(89)
        topo = sampling.random_topology(rng)
        assert topology_from_obj(topology_to_obj(topo)) == topo

    def test_server_ports_keys_are_stringified(self):
        rng = random.Random(97)
        obj = topology_to_obj(sampling.random_topology(rng))
        assert all(isinstance(k, str) for k in obj["server_ports"])

    def test_bad_server_key(self):
        with pytest.raises(ScenarioFormatError):
            topology_from_obj({"switches": 1, "ports": {},
                               "server_ports": {"not-a-number": 1}})


class TestAppObjects:
    def test_round_trip_with_guards_and_refs(self):
        rng = random.Random(101)
        for _ in range(100):
            app = sampling.random_app(rng, 3, "a")
            obj = app_to_obj(app)
            back = app_from_obj(obj, 3)
            assert back.translation == app.translation
            assert back.name == app.name

    def test_delta_round_trip(self):
        rng = random.Random(103)
        for _ in range(100):
            d = sampling.random_delta(rng)
            assert delta_from_obj(delta_to_obj(d)) == d

    def test_composite_apps_have_no_single_slot_form(self):
        from flowspace.transforms import compose_apps
        rng = random.Random(107)
        a = sampling.random_app(rng, 2, "a")
        b = sampling.random_app(rng, 2, "b")
        composite = compose_apps(a, b)
        with pytest.raises(ScenarioFormatError):
            app_to_obj(composite)

    def test_an_app_with_a_non_identity_linear_part_has_no_single_slot_form(self):
        # The file form of an app holds no linear part, so writing one that
        # is not the identity would decode to a different app.
        from flowspace.transforms import AppTransform
        rng = random.Random(109)
        app = sampling.random_app(rng, 2, "a")
        for linear in (((0, 1), (1,)), ((1,), (0,)), ((), (1,))):
            with pytest.raises(ScenarioFormatError, match="non-identity linear part"):
                app_to_obj(AppTransform("a", linear, app.translation))
        assert app_from_obj(app_to_obj(app), 2) == app


class TestScenarioDocument:
    def test_case_study_round_trips_byte_exactly(self):
        scn = build_scenario()
        text = dump_scenario(scn)
        assert dump_scenario(loads_scenario(text)) == text

    def test_version_checked(self):
        obj = scenario_to_obj(build_scenario())
        obj["version"] = 2
        with pytest.raises(ScenarioFormatError):
            scenario_from_obj(obj)

    @pytest.mark.parametrize("path, value", [
        (("version",), 1.0),
        (("topology", "switches"), 2.0),
        (("topology", "ports", "p_lb"), 70_000),
        (("topology", "ports", "p_lb"), 2.0),
        (("topology", "server_ports", "167772261"), -1),
        (("flows", 0, "header", "nw_src"), 1.5),
        (("flows", 0, "assigned_dest"), "167772261"),
        (("apps", 0, "slot"), "1"),
        (("apps", 0, "delta", "branches", 0, "guard", "threshold"), 3.0),
        (("apps", 0, "delta", "default", 0, "ttl"), 70_000),
        (("apps", 0, "delta", "default", 0, "counter"), -1),
        (("apps", 0, "delta", "default", 0, "out_port"), 70_000),
        (("apps", 1, "delta", "default", 0, "action", "actions", 0, "to"), True),
        (("apps", 1, "delta", "default", 0, "action", "actions", 0, "field"), 1.5),
        (("queries", "fresh-client", "nw_dst"), False),
        (("topology", "switches"), True),
        (("topology", "ports", "p_lb"), True),
        (("topology", "server_ports", "167772261"), 70_000),
        (("flows", 0, "header", "nw_src"), True),
        (("flows", 0, "assigned_dest"), -1),
        (("apps", 0, "slot"), True),
        (("apps", 1, "delta", "branches", 0, "guard", "server_a"), True),
        (("apps", 5, "delta", "default", 0, "action", "actions", 0, "to", "server_b"), 1.0),
        (("tables", 0, 0, "match", "nw_src"), None),
        (("flows", 0, "header", "nw_src"), None),
    ])
    def test_numbers_are_checked_not_coerced(self, path, value):
        obj = scenario_to_obj(build_scenario())
        obj["tables"][0] = [self.SEQ_ENTRY]
        obj = json.loads(json.dumps(obj))  # string keys, as in a file
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioFormatError) as exc:
            loads_scenario(json.dumps(obj))
        # The path comes first, then "=" before a value out of range or a
        # space before the reason.
        assert re.match(re.escape(self.SPELLED[path]) + "[= ]", str(exc.value)), str(exc.value)

    #: Each path above as errors spell it: map keys and seq steps in brackets.
    SPELLED = {
        ("version",): "version",
        ("topology", "switches"): "topology.switches",
        ("topology", "ports", "p_lb"): "topology.ports[p_lb]",
        ("topology", "server_ports", "167772261"): "topology.server_ports[167772261]",
        ("flows", 0, "header", "nw_src"): "flows[0].header.nw_src",
        ("flows", 0, "assigned_dest"): "flows[0].assigned_dest",
        ("apps", 0, "slot"): "apps[0].slot",
        ("apps", 0, "delta", "branches", 0, "guard", "threshold"):
            "apps[0].delta.branches[0].guard.threshold",
        ("apps", 0, "delta", "default", 0, "ttl"): "apps[0].delta.default[0].ttl",
        ("apps", 0, "delta", "default", 0, "counter"): "apps[0].delta.default[0].counter",
        ("apps", 0, "delta", "default", 0, "out_port"): "apps[0].delta.default[0].out_port",
        ("apps", 1, "delta", "default", 0, "action", "actions", 0, "to"):
            "apps[1].delta.default[0].action[0].to",
        ("apps", 1, "delta", "default", 0, "action", "actions", 0, "field"):
            "apps[1].delta.default[0].action[0].field",
        ("queries", "fresh-client", "nw_dst"): "queries[fresh-client].nw_dst",
        ("apps", 1, "delta", "branches", 0, "guard", "server_a"):
            "apps[1].delta.branches[0].guard.server_a",
        ("apps", 5, "delta", "default", 0, "action", "actions", 0, "to", "server_b"):
            "apps[5].delta.default[0].action[0].to.server_b",
        ("tables", 0, 0, "match", "nw_src"): "tables[0][0].match.nw_src",
    }

    @pytest.mark.parametrize("name", [5, {"a": 1}, None])
    def test_app_names_are_strings(self, name):
        obj = json.loads(json.dumps(scenario_to_obj(build_scenario())))
        old = obj["apps"][0]["name"]
        obj["apps"][0]["name"] = name
        # The chains name the app as str() would spell it, so that only
        # the name's type is wrong.
        for stages in obj["chains"].values():
            stages[:] = [str(name) if s == old else s for s in stages]
        with pytest.raises(ScenarioFormatError, match="name must be a string"):
            loads_scenario(json.dumps(obj))
        # Reading the names alone, as a chain's decoder does, fails alike.
        with pytest.raises(ScenarioFormatError, match=r"^apps\[0\]\.name must be a string"):
            Document(json.loads(json.dumps(obj))).chain("lb-ids")

    SET_DST = ("apps", 1, "delta", "default", 0, "action", "actions", 0)
    PICK = ("apps", 5, "delta", "default", 0, "action", "actions", 0, "to")
    LOAD_GUARD = ("apps", 1, "delta", "branches", 0, "guard")

    ADDRESS_PATHS = {
        "assigned_dest": ("flows", 0, "assigned_dest"),
        "load_at_most.server_a": LOAD_GUARD + ("server_a",),
        "load_at_most.server_b": LOAD_GUARD + ("server_b",),
        "pick_less_loaded.server_a": PICK + ("server_a",),
        "pick_less_loaded.server_b": PICK + ("server_b",),
        "set_field.to": SET_DST + ("to",),
    }
    #: Extra server_ports keys, each given port 9.  Python's int() reads
    #: every one of them; " 167772261" would replace server A's port.
    SERVER_KEYS = {
        "-1": "exceeds 32-bit range",
        str(2**32): "exceeds 32-bit range",
        str(2**40): "exceeds 32-bit range",
        "1_0": "not a decimal address",
        " 167772261": "not a decimal address",
        "+167772261": "not a decimal address",
        "0167772261": "not a decimal address",
    }

    @pytest.mark.parametrize("path, value, error", [
        pytest.param(path, value, "exceeds 32-bit range", id=f"{name}-{value}")
        for name, path in ADDRESS_PATHS.items() for value in (-1, 2**32)
    ] + [
        pytest.param(("topology", "server_ports", key), 9, error,
                     id=f"server_ports.key-{key.replace(' ', '_')}")
        for key, error in SERVER_KEYS.items()
    ])
    def test_addresses_are_range_checked(self, path, value, error):
        obj = json.loads(json.dumps(scenario_to_obj(build_scenario())))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioFormatError, match=error):
            loads_scenario(json.dumps(obj))

    def test_set_field_target_fits_the_field(self):
        obj = json.loads(json.dumps(scenario_to_obj(build_scenario())))
        set_field = obj
        for key in self.SET_DST:
            set_field = set_field[key]
        set_field.update(field="nw_proto", to=255)
        loads_scenario(json.dumps(obj))
        set_field["to"] = 256
        with pytest.raises(ScenarioFormatError, match="exceeds 8-bit range"):
            loads_scenario(json.dumps(obj))

    #: The bundled document, with one table entry whose action is a seq.
    SEQ_ENTRY = {"match": {"nw_src": 1}, "out_port": 2, "ttl": 60, "counter": 0,
                 "action": {"kind": "seq", "actions": [
                     {"kind": "modify", "field": "nw_src", "delta": 5},
                     {"kind": "forward", "delta": 7}]}}

    #: Observed flows after the bundled document's five, and entries of
    #: the second table, so that a bad item can sit deep in its array.
    MORE_FLOWS = [{"header": {"nw_src": 0x0B000000 + k, "nw_dst": 0x0A000064,
                              "tp_src": 1024 + k}, "assigned_dest": 0x0A000065 + k % 2}
                  for k in range(200)]
    MORE_ENTRIES = [{"match": {"nw_src": k, "tp_dst": 80}, "out_port": 1, "ttl": 60,
                     "counter": k, "action": {"kind": "forward", "delta": 1}}
                    for k in range(4)]

    def _loads_with(self, path, value):
        """Load the bundled document, grown with `SEQ_ENTRY` and the items
        above, with `value` at `path`; the library and the oracle agree."""
        obj = scenario_to_obj(build_scenario())
        obj["tables"][0] = [self.SEQ_ENTRY]
        obj["tables"][1] = self.MORE_ENTRIES
        obj["flows"] += self.MORE_FLOWS
        obj = json.loads(json.dumps(obj))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        text = json.dumps(obj)
        assert _outcome(loads_scenario, text) == _outcome(scenario_from_obj_oracle, obj)
        return loads_scenario(text)

    ARRAYS = {
        ("flows",): "flows",
        ("apps",): "apps",
        ("apps", 0, "delta", "branches"): "apps[0].delta.branches",
        ("apps", 0, "delta", "default"): "apps[0].delta.default",
        ("apps", 0, "delta", "branches", 0, "rules"): "apps[0].delta.branches[0].rules",
        SET_DST[:-1]: "apps[1].delta.default[0].action.actions",
        ("tables", 0, 0, "action", "actions"): "tables[0][0].action.actions",
        ("tables",): "tables",
        ("tables", 0): "tables[0]",
        ("chains", "ids-lb"): "chains[ids-lb]",
    }

    @pytest.mark.parametrize("path, what", ARRAYS.items())
    @pytest.mark.parametrize("value", [{}, "", "ab"])
    def test_arrays_are_checked(self, path, what, value):
        got = type(value).__name__
        with pytest.raises(ScenarioFormatError) as exc:
            self._loads_with(path, value)
        assert str(exc.value) == f"{what} must be an array, got {got}"

    @pytest.mark.parametrize("path, value, message", [
        (("tables", 0, 0, "out_port"), 70_000, "tables[0][0].out_port=70000 exceeds 16-bit range"),
        (("tables", 0, 0, "ttl"), -1, "tables[0][0].ttl=-1 exceeds 16-bit range"),
        (("tables", 0, 0, "counter"), -1, "tables[0][0].counter must be non-negative"),
        (("chains", "ids-lb", 0), ["x-ids"], "chains[ids-lb][0] must be an app name, got list"),
        (("chains", "ids-lb", 1), None, "chains[ids-lb][1] must be an app name, got NoneType"),
        (("chains", "ids-lb"), [], "chains[ids-lb] must be a non-empty array"),
        (LOAD_GUARD + ("kind",), "nope",
         "apps[1].delta.branches[0].guard: unknown guard kind 'nope'"),
        (("apps", 0, "delta", "default", 0, "out_port"), {"kind": "nope"},
         "apps[0].delta.default[0].out_port: unknown port reference {'kind': 'nope'}"),
        (PICK + ("kind",), "nope",
         "apps[5].delta.default[0].action[0].to: unknown value reference "
         "{'kind': 'nope', 'server_a': 167772261, 'server_b': 167772262}"),
        (("tables", 0, 0, "match", "nw_src"), -1,
         "tables[0][0].match.nw_src=-1 exceeds 32-bit range"),
        (("flows", 0, "header", "nw_src"), -1, "flows[0].header.nw_src=-1 exceeds 32-bit range"),
        (("flows", 0, "header", "tp_dst"), 1 << 16,
         "flows[0].header.tp_dst=65536 exceeds 16-bit range"),
        (("queries", "fresh-client", "nw_src"), -1,
         "queries[fresh-client].nw_src=-1 exceeds 32-bit range"),
        (("topology", "switches"), 0, "topology.switches must be at least 1, got 0"),
        (("apps", 0, "slot"), 5, "apps[0].slot=5 out of range for 2 switches"),
        (("apps", 0, "slot"), -1, "apps[0].slot=-1 out of range for 2 switches"),
        (("apps", 0, "delta", "branches", 0, "guard", "threshold"), -5,
         "apps[0].delta.branches[0].guard.threshold must be non-negative, got -5"),
        (("tables", 0, 0, "action"), {"kind": "modify", "field": "vlan", "delta": 1},
         "tables[0][0].action.field must be a header field name, got 'vlan'"),
        # Deep in an array, the first error in file order: of two bad
        # header fields the first in field order, whatever the key order;
        # an unknown key before a bad value; a bad header before a bad
        # assigned_dest.
        (("flows", 137, "header"), {"tp_dst": 1 << 16, "nw_src": -1},
         "flows[137].header.nw_src=-1 exceeds 32-bit range"),
        (("flows", 137, "header"), {"nw_src": -1, "nw_srcc": 1},
         "unknown keys in flows[137].header: ['nw_srcc']"),
        (("flows", 137), {"assigned_dest": -1, "header": {}, "color": 1},
         "unknown keys in flows[137]: ['color']"),
        (("flows", 137), {"assigned_dest": -1, "header": {"tp_src": 1.5}},
         "flows[137].header.tp_src must be an int, got float"),
        (("flows", 137), {"assigned_dest": True}, "flows[137] is missing required key 'header'"),
        (("flows", 137, "assigned_dest"), 1 << 32,
         "flows[137].assigned_dest=4294967296 exceeds 32-bit range"),
        (("tables", 1, 3, "match", "tp_dst"), 1 << 16,
         "tables[1][3].match.tp_dst=65536 exceeds 16-bit range"),
        (("tables", 1, 2, "action"), {"kind": "seq", "actions": [{"kind": "drop"}, {"kind": "x"}]},
         "tables[1][2].action[1]: unknown action kind 'x'"),
        # An unknown key beside valid values, and before a bad one.
        (("tables", 1, 2, "action"),
         {"kind": "seq", "actions": [{"kind": "modify", "field": "nw_tos", "delta": 1, "x": 0}]},
         "unknown keys in tables[1][2].action[0]: ['x']"),
        (("tables", 0, 0, "action"), {"kind": "modify", "field": "vlan", "delta": 1, "x": 0},
         "unknown keys in tables[0][0].action: ['x']"),
        (("tables", 0, 0, "action"), {"kind": "forward", "delta": 1, "x": 0},
         "unknown keys in tables[0][0].action: ['x']"),
        (("apps", 0, "delta", "default", 0, "action"), {"kind": "forward", "port": 1, "x": 0},
         "unknown keys in apps[0].delta.default[0].action: ['x']"),
        (("apps", 5, "delta", "branches", 0, "rules", 0, "action", "actions", 1, "port"), 70_000,
         "apps[5].delta.branches[0].rules[0].action[1].port=70000 exceeds 16-bit range"),
        (("apps", 5, "delta", "branches", 0, "rules", 0, "action", "actions", 0, "to", "server_b"),
         -1, "apps[5].delta.branches[0].rules[0].action[0].to.server_b=-1 exceeds 32-bit range"),
    ])
    def test_values_are_checked_where_read(self, path, value, message):
        with pytest.raises(ScenarioFormatError) as exc:
            self._loads_with(path, value)
        assert str(exc.value) == message

    def test_template_seq_depth_is_bounded(self):
        action = {"kind": "drop"}
        for _ in range(MAX_SEQ_DEPTH):
            action = {"kind": "seq", "actions": [action]}
        action_spec_from_obj(action)
        with pytest.raises(ScenarioFormatError):
            action_spec_from_obj({"kind": "seq", "actions": [action]})

    def test_unknown_top_level_key_rejected(self):
        obj = scenario_to_obj(build_scenario())
        obj["latency"] = {}
        with pytest.raises(ScenarioFormatError):
            scenario_from_obj(obj)

    def test_table_count_must_match_switches(self):
        obj = scenario_to_obj(build_scenario())
        obj["tables"] = obj["tables"][:1]
        with pytest.raises(ScenarioFormatError):
            scenario_from_obj(obj)

    def test_chain_with_unknown_app_rejected(self):
        obj = scenario_to_obj(build_scenario())
        obj["chains"]["broken"] = ["no-such-app"]
        with pytest.raises(ScenarioFormatError):
            scenario_from_obj(obj)

    def test_duplicate_app_names_rejected(self):
        obj = scenario_to_obj(build_scenario())
        obj["apps"].append(obj["apps"][0])
        with pytest.raises(ScenarioFormatError):
            scenario_from_obj(obj)

    def test_not_json(self):
        with pytest.raises(ScenarioFormatError):
            loads_scenario("{nope")

    def test_queries_parse(self):
        scn = loads_scenario(dump_scenario(build_scenario()))
        assert set(scn.queries) == {"fresh-client", "noisy-client"}
        assert isinstance(scn.queries["fresh-client"], Header)

    def test_dump_is_deterministic(self):
        assert dump_scenario(build_scenario()) == dump_scenario(build_scenario())

    def test_parsed_chains_rebuild_the_same_composites(self):
        from flowspace.transforms import chain
        scn = loads_scenario(dump_scenario(build_scenario()))
        original = build_scenario()
        for name in original.chains:
            assert congruent(chain(scn.chains[name]), chain(original.chains[name]))


def _dumps_oracle(s) -> str:
    """`dump_scenario`'s text as `json.dumps` writes it."""
    return json.dumps(scenario_to_obj(s), indent=2, sort_keys=True) + "\n"


class TestWriter:
    """`dump_scenario` streams the encoder's chunks into one buffer; its
    text is the one `json.dumps` writes, byte for byte."""

    def test_text_matches_json_dumps(self):
        rng = random.Random(263)
        for scn in [build_scenario()] + [random_document(rng) for _ in range(100)]:
            assert dump_scenario(scn) == _dumps_oracle(scn)

    def test_a_large_document_takes_little_memory_and_no_more_time(self):
        scn = loads_scenario(json.dumps(_document_with_flows(10_000)))
        want = _dumps_oracle(scn)
        tracemalloc.start()
        try:
            got = dump_scenario(scn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 8 * len(got), peak / len(got)  # json.dumps: about 10.6 times
        times: dict = {dump_scenario: [], _dumps_oracle: []}
        for _ in range(7):  # interleaved, so a slower stretch of the host hits both
            for write in times:
                start = time.perf_counter()
                write(scn)
                times[write].append(time.perf_counter() - start)
        assert min(times[dump_scenario]) <= 1.1 * min(times[_dumps_oracle])


def _seeded_objects(seed: int, count: int):
    """`count` seeded valid documents, as a file holds them."""
    rng = random.Random(seed)
    return [json.loads(json.dumps(scenario_to_obj(random_document(rng)))) for _ in range(count)]


def _paths(node, path=()):
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _outcome(decode, obj):
    try:
        return decode(obj)
    except FlowspaceError as exc:
        return type(exc), str(exc)


class TestSectionDecoders:
    """`Document` decodes each section on request; `scenario_from_obj`,
    built from the same decoders, stays today's whole-document decode."""

    def test_whole_decode_matches_the_oracle(self):
        for obj in _seeded_objects(211, 300):
            scn = scenario_from_obj(obj)
            assert scn == scenario_from_obj_oracle(obj)
            assert list(scn.apps) == [app["name"] for app in obj["apps"]]
            for chain in scn.chains.values():
                assert all(stage is scn.apps[stage.name] for stage in chain.stages)

    def test_errors_match_the_oracle_on_broken_documents(self):
        # One to three values replaced: both decoders fail with the same
        # error, which is the first in file order, or both give one result.
        rng = random.Random(223)
        values = (1.5, True, "7", "app0", None, -1, 70_000, [], {}, [[7]], "<drop>",
                  # the edges of the inline checks: port, ttl and field bounds,
                  # ints past every width, and an action where another value was
                  0xFFFF, 0x10000, 2**48, 2**64, -(2**70), {"kind": "drop"})
        failed = 0
        for obj in _seeded_objects(227, 400):
            paths = list(_paths(obj))
            names = [p for p in paths if p[0] == "apps" and p[-1] == "name"]
            for _ in range(rng.randint(1, 3)):
                # App names are few among the paths, and their checks
                # interleave with the apps' own in file order.
                path = rng.choice(names if rng.random() < 0.3 else paths)
                value = rng.choice(values)
                try:
                    parent = obj
                    for key in path[:-1]:
                        parent = parent[key]
                    if value != "<drop>":
                        parent[path[-1]] = copy.deepcopy(value)  # a later path may lead into it
                    elif isinstance(parent, dict):
                        del parent[path[-1]]
                except (KeyError, IndexError, TypeError):
                    pass  # an earlier replacement removed this path
            got = _outcome(scenario_from_obj, copy.deepcopy(obj))
            assert got == _outcome(scenario_from_obj_oracle, obj)
            failed += isinstance(got, tuple)
        assert failed > 300

    def test_deleted_keys_match_the_oracle(self):
        # One key, then each pair of keys, of every object of a few documents
        # deleted in turn: both decoders report the same first error, so each
        # required key of each object kind is read in the oracle's order,
        # which the random replacements above do not promise to reach.
        missing = set()
        for obj in _seeded_objects(239, 2):
            objects = [obj] + [node for node in (_at(obj, path) for path in _paths(obj))
                               if isinstance(node, dict)]
            for parent in objects:
                items = list(parent.items())
                for keys in itertools.chain(itertools.combinations(parent, 1),
                                            itertools.combinations(parent, 2)):
                    for key in keys:
                        del parent[key]
                    got = _outcome(scenario_from_obj, obj)
                    assert got == _outcome(scenario_from_obj_oracle, obj), keys
                    parent.clear()
                    parent.update(items)  # the keys back in their places in file order
                    if isinstance(got, tuple) and " is missing required key " in got[1]:
                        missing.add(got[1].rsplit(" ", 1)[1].strip("'"))
        assert missing == {"version", "topology", "switches", "header", "match", "out_port",
                           "ttl", "action", "kind", "field", "delta", "actions", "name", "slot",
                           "guard", "threshold", "server_a", "server_b", "port", "to"}

    def test_chain_decodes_only_the_apps_it_names_each_once(self, monkeypatch):
        decoded = []
        decode = scenario._app

        def counting(obj, n):
            decoded.append(obj)
            return decode(obj, n)

        monkeypatch.setattr(scenario, "_app", counting)
        for obj in _seeded_objects(229, 200):
            whole = scenario_from_obj_oracle(obj)
            positions = {app["name"]: i for i, app in enumerate(obj["apps"])}
            decoded.clear()
            doc = Document(obj)
            for name in obj["chains"]:
                chain = doc.chain(name)
                assert chain == whole.chains[name]
                assert doc.chain(name) == chain
            named = {positions[s] for stages in obj["chains"].values() for s in stages}
            assert sorted(positions[app["name"]] for app in decoded) == sorted(named)
            for name in obj["queries"]:
                assert doc.query(name) == whole.queries[name]
            assert doc.nib() == whole.nib
            assert len(decoded) == len(named)  # the NIB and the queries decode no app

    def test_each_section_shape_is_checked_once(self, monkeypatch):
        checked = Counter()

        def counting(name):
            check = getattr(scenario, name)

            def counted(value, *args):
                checked[name, id(value)] += 1
                return check(value, *args)
            return counted

        for name in ("_list", "_obj"):
            monkeypatch.setattr(scenario, name, counting(name))
        for obj in _seeded_objects(233, 50):
            checked.clear()
            doc = Document(obj)
            for name in obj["chains"]:
                doc.chain(name)
            for name in obj["queries"]:
                doc.query(name)
            doc.scenario()
            sections = [("_list", id(obj["apps"])), ("_obj", id(obj["chains"])),
                        ("_obj", id(obj["queries"]))]
            assert [checked[s] for s in sections] == [1, 1, 1]

    def test_stages_of_one_document_share_their_apps(self):
        obj = json.loads(json.dumps(scenario_to_obj(build_scenario())))
        obj["chains"]["again"] = ["x-lb", "x-lb"]
        doc = Document(obj)
        a, b = doc.chain("ids-lb"), doc.chain("again")
        assert b.stages[0] is b.stages[1] is a.stages[1]

    def test_unknown_names_are_errors(self):
        doc = Document(scenario_to_obj(build_scenario()))
        with pytest.raises(FlowspaceError, match="^no chain named 'nope' in scenario$"):
            doc.chain("nope")
        with pytest.raises(FlowspaceError, match="^no query named 'nope' in scenario$"):
            doc.query("nope")

    def test_an_error_keeps_the_apps_position_in_the_file(self):
        obj = json.loads(json.dumps(scenario_to_obj(build_scenario())))
        obj["apps"][5]["delta"]["default"][0]["ttl"] = 70_000  # y-lb-pre, named by lb-ids only
        doc = Document(obj)
        assert len(doc.chain("ids-lb").stages) == 2
        with pytest.raises(ScenarioFormatError) as exc:
            doc.chain("lb-ids")
        assert str(exc.value) == "apps[5].delta.default[0].ttl=70000 exceeds 16-bit range"

    def test_duplicate_names_are_rejected_before_any_app_decodes(self):
        obj = json.loads(json.dumps(scenario_to_obj(build_scenario())))
        obj["apps"].append({"name": "x-lb"})
        with pytest.raises(ScenarioFormatError, match="^duplicate app name 'x-lb'$"):
            Document(obj).chain("ids-lb")
        obj["apps"][-1] = {"slot": 0}
        with pytest.raises(ScenarioFormatError, match=r"^apps\[6\] is missing required key 'name'$"):
            Document(obj).chain("ids-lb")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"version": 1}')
        message = ("scenario is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte")
        for read in (scenario.load_scenario, scenario.read_document):
            with pytest.raises(ScenarioFormatError) as exc:
                read(path)
            assert str(exc.value) == message


def _flow_breaks(spec) -> list:
    """Each way to make one flow object invalid, as a function of the
    object; a bad header value goes in field `spec`."""
    def header(value):
        return lambda flow: {**flow, "header": value}

    def header_value(name, value):
        return lambda flow: {**flow, "header": {**flow["header"], name: value}}

    def assigned(value):
        return lambda flow: {**flow, "assigned_dest": value}

    return [*(header_value(spec.name, v) for v in (True, 1.5, None, -1, 1 << spec.width)),
            header_value("nw_bogus", 1),
            *(header(h) for h in ([], "nw_src", 7, None)),
            lambda flow: {key: value for key, value in flow.items() if key != "header"},
            lambda flow: {**flow, "extra": 1},
            *(assigned(d) for d in (-1, 2**32, True, "1"))]


def _document_with_flows(count: int) -> dict:
    """The case-study document, as a file holds it, with `count` observed flows."""
    obj = json.loads(json.dumps(scenario_to_obj(build_scenario())))
    obj["flows"] = [{"header": {"nw_src": i + 1}, "assigned_dest": i} for i in range(count)]
    return obj


class TestFlowsLoop:
    """`Document.nib` decodes the flows in one loop; the per-item decode it
    replaced is the oracle, on valid and on broken arrays."""

    def test_valid_arrays_give_the_oracles_flows(self):
        rng = random.Random(251)
        objs = _seeded_objects(253, 100)
        for obj in objs[:50]:
            obj["flows"] = [flow_to_obj(f) for f in sampling.random_flows(rng, 40)]
        count = 0
        for obj in objs:
            got = Document(obj).nib().flows
            want = oracles.flows_from_obj_oracle(obj["flows"])
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            copied = pickle.loads(pickle.dumps(got))
            assert copied == want and repr(copied) == repr(want)
            count += len(got)
        assert count > 1000

    def test_broken_flows_give_the_oracles_error_at_the_same_index(self):
        rng = random.Random(257)

        def outcomes(obj):
            return (_outcome(lambda o: Document(o).nib(), obj),
                    _outcome(lambda o: oracles.flows_from_obj_oracle(o["flows"]), obj))

        count = 0
        for obj in _seeded_objects(259, 40):
            flows = [flow_to_obj(f) for f in sampling.random_flows(rng, 30)] or [{"header": {}}]
            breaks = _flow_breaks(rng.choice(FIELDS))
            for break_flow in breaks:
                i = rng.randrange(len(flows))
                broken = flows[:i] + [break_flow(flows[i])] + flows[i + 1:]
                j = rng.randrange(i, len(broken))
                if j > i:  # a later broken flow is not the one reported
                    broken[j] = rng.choice(breaks)(broken[j])
                obj["flows"] = broken
                got, want = outcomes(obj)
                assert got == want and got[0] is ScenarioFormatError
                assert re.findall(r"flows\[(\d+)\]", got[1]) == [str(i)], got[1]
                count += 1
            obj["flows"] = rng.choice(({}, "flows", 7, None))
            got, want = outcomes(obj)
            assert got == want == (ScenarioFormatError, "flows must be an array, got "
                                   + type(obj["flows"]).__name__)
        assert count == 40 * 16

    def test_an_error_names_its_flow(self):
        obj = _document_with_flows(200)
        obj["flows"][137]["header"]["nw_src"] = -1
        with pytest.raises(ScenarioFormatError) as info:
            Document(obj).nib()
        assert str(info.value) == "flows[137].header.nw_src=-1 exceeds 32-bit range"


def _constructed_rule(r: FlowRule) -> FlowRule:
    """`r` built again through the constructors alone."""
    a = r.action
    return FlowRule(MatchPattern(r.match.entries), r.out_port, r.ttl,
                    actions.AffineAction(a.linear, a.translation))


def _templates(obj):
    """The rule-template objects of a document, in file order."""
    for app in obj["apps"]:
        for branch in app["delta"]["branches"]:
            yield from branch["rules"]
        yield from app["delta"]["default"]


def _template_parts(value):
    """Each template-side value in `value`, a delta or one of its parts,
    `value` included: inner values first, so that a template's facts are
    checked before anything hashes it."""
    if isinstance(value, GuardedDelta):
        for guard, arm in value.branches:
            yield guard
            for tpl in arm:
                yield from _template_parts(tpl)
        for tpl in value.default:
            yield from _template_parts(tpl)
    elif isinstance(value, RuleTemplate):
        for part in (value.match, value.out_port, value.action):
            yield from _template_parts(part)
    elif isinstance(value, Forward):
        yield from _template_parts(value.port)
    elif isinstance(value, SetField) and isinstance(value.to, PickLessLoaded):
        yield value.to
    elif isinstance(value, Seq):
        for step in value.steps:
            yield from _template_parts(step)
    yield value


class TestDecodedValues:
    """The decoder builds entries, rules, templates and their parts, flows
    and headers through their owners' builders; what it builds is the value
    that the constructors build, in every way a caller can look at it."""

    @staticmethod
    def _unused(value) -> None:
        """A template keeps no facts before first use.  An entry and its
        pattern hold their hash from the moment they are built, and the
        hash comparison below reads it."""
        if isinstance(value, RuleTemplate):
            assert value._facts is None

    def _same(self, got, want) -> None:
        self._unused(got)
        self._unused(want)
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        for copied in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got),
                       dataclasses.replace(got)):
            assert copied == want and repr(copied) == repr(want)
            assert hash(copied) == hash(want)

    def test_decoded_values_match_constructed_ones(self):
        count = 0
        for obj in _seeded_objects(233, 100):
            for table in obj["tables"]:
                for item in table:
                    want = oracles.entry_from_obj(item)  # its action comes from a fold
                    want = FlowEntry(_constructed_rule(want.rule), want.counter)
                    self._same(entry_from_obj(item), want)
                    rule = {key: value for key, value in item.items() if key != "counter"}
                    self._same(rule_from_obj(rule), want.rule)
                    count += 1
            for item in _templates(obj):
                want = oracles.template_from_obj(item)  # built through the constructors
                self._same(template_from_obj(item), want)
                count += 1
        assert count > 1500

    def test_decoded_template_parts_match_constructed_ones(self):
        # Every part of every delta of seeded documents and the case study,
        # against the oracle decoder's, which builds through the constructors.
        kinds, shared = Counter(), {}
        objs = _seeded_objects(269, 100) + [json.loads(dump_scenario(build_scenario()))]
        for obj in objs:
            n = obj["topology"]["switches"]
            for app in obj["apps"]:
                got = delta_from_obj(app["delta"])
                want = oracles.delta_from_obj(app["delta"])
                for g, w in zip(_template_parts(got), _template_parts(want), strict=True):
                    assert type(g) is type(w)
                    self._same(g, w)
                    kind = type(g).__name__
                    kinds[kind + ("->" + type(g.to).__name__ if kind == "SetField" else "")] += 1
                    if not dataclasses.fields(g):
                        shared.setdefault(kind, set()).add(id(g))
                self._same(app_from_obj(app, n), AppTransform(
                    app["name"], tuple((i,) for i in range(n)),
                    tuple((want,) if i == app["slot"] else () for i in range(n))))
        assert set(kinds) == {
            "GuardedDelta", "TrueGuard", "SourceCountAtMost", "LoadAtMost", "RuleTemplate",
            "InputHeader", "MatchPattern", "PortName", "PortNumber", "DestPort", "Forward",
            "Drop", "SetField->int", "SetField->PickLessLoaded", "PickLessLoaded", "Seq"}
        # A value of a type with no fields decodes to one shared instance.
        assert {kind: len(ids) for kind, ids in shared.items()} == {
            "TrueGuard": 1, "InputHeader": 1, "DestPort": 1, "Drop": 1}

    def test_builders_raise_the_constructors_errors(self):
        rng = random.Random(271)
        bad = {"bool": [True, False], "float": [1.5, 0.0], "None": [None]}
        # Per builder: its constructor, valid arguments, and for each argument
        # its values of the wrong type and, where it has a range, out of it.
        cases = {
            make_port_name: (PortName, ("p_lb",), [{"type": [[], 7, b"p_lb"]}]),
            make_port_number: (PortNumber, (80,), [
                {"type": ["80", [], PortName("p")], "range": [-1, 0x10000, 2**64]}]),
            make_set_field: (SetField, ("tp_dst", 80), [
                {"type": [[], 7, b"tp_dst"], "range": ["nw_bogus", "in_port "]},
                {"type": ["80", [], Drop()],
                 "range": [-1, 0x10000, PickLessLoaded(0x10000, 1), PickLessLoaded(1, 2**32 - 1)]}]),
            make_template: (RuleTemplate, (InputHeader(), PortNumber(1), 64, Drop(), 0), [
                {"type": ["input", {}, 7, PortNumber(1)]},
                {"type": ["p_lb", 7, InputHeader(), Drop()]},
                {"type": ["64", []], "range": [-1, 0x10000]},
                {"type": ["drop", 7, PortName("p"), DestPort(), TrueGuard()]},
                {"type": ["0", []], "range": [-1, -(2**70)]}]),
        }
        seen = Counter()
        for _ in range(600):
            build = rng.choice(list(cases))
            construct, valid, slots = cases[build]
            i = rng.randrange(len(valid))
            kind = rng.choice(sorted({**bad, **slots[i]}))
            args = list(valid)
            args[i] = rng.choice({**bad, **slots[i]}[kind])
            with pytest.raises(InvalidRuleError) as want:
                construct(*args)
            with pytest.raises(InvalidRuleError) as got:
                build(*args)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value), (build.__name__, args)
            assert got.value.field == want.value.field
            seen[build.__name__, kind] += 1
        assert set(seen) == {(build.__name__, kind) for build, (_, _, slots) in cases.items()
                             for slot in slots for kind in {**bad, **slot}}
        for build, (construct, valid, _) in cases.items():
            self._same(build(*valid), construct(*valid))
        # `make_app` checks its delta and slot itself, and only the name is
        # left to test: a name that is no string raises the constructor's error.
        delta = GuardedDelta((), ())
        for name in (True, 1.5, None, 7, b"app"):
            with pytest.raises(InvalidRuleError) as want:
                AppTransform(name, ((0,),), ((delta,),))
            with pytest.raises(InvalidRuleError) as got:
                make_app(name, 0, delta, 1)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_decoded_flows_and_headers_match_constructed_ones(self):
        count = 0
        for obj in _seeded_objects(241, 200):
            nib = Document(obj).nib()
            for item, got in zip(obj["flows"], nib.flows, strict=True):
                fields, dest = item["header"], item.get("assigned_dest")
                header = Header(tuple(fields.get(name, 0) for name in FIELD_INDEX))
                self._same(header_from_obj(fields), header)
                self._same(Header.from_mapping(fields), header)
                want = Flow(Header.from_mapping(fields), dest)
                self._same(got, want)
                self._same(Flow.from_mapping(fields, dest), want)
                count += 1
        assert count > 500


class TestCollectorPause:
    """Each decoder runs with the cyclic garbage collector paused, and
    leaves it as it found it on a normal return and on every error."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        (gc.enable if request.param else gc.disable)()
        yield request.param
        gc.enable()

    def test_decoding_leaves_the_collector_as_it_found_it(self, tmp_path, collector):
        bad_flow = _document_with_flows(200)
        bad_flow["flows"][137]["header"]["nw_src"] = -1
        texts = {"valid": json.dumps(_document_with_flows(200)), "bad flow": json.dumps(bad_flow),
                 "not JSON": "{", "too deep": "[" * 100_000 + "]" * 100_000}
        paths = {source: tmp_path / f"{i}.json" for i, source in enumerate(texts)}
        for source, text in texts.items():
            paths[source].write_text(text, encoding="utf-8")
        paths["not UTF-8"] = tmp_path / "latin.json"
        paths["not UTF-8"].write_bytes(b'\xff{"version": 1}')
        paths["missing"] = tmp_path / "missing.json"
        errors = {"bad flow": (ScenarioFormatError, "flows[137].header.nw_src=-1 exceeds 32-bit range"),
                  "not JSON": (ScenarioFormatError, "scenario is not valid JSON: "),
                  "too deep": (ScenarioFormatError, "scenario is nested too deeply"),
                  "not UTF-8": (ScenarioFormatError, "scenario is not valid UTF-8: "),
                  "missing": (FileNotFoundError, "")}
        sections = {"nib": Document.nib, "chain": lambda doc: doc.chain("lb-ids"),
                    "query": lambda doc: doc.query("noisy-client"), "scenario": Document.scenario}
        calls = [("parse_json", texts, False, lambda text: scenario.parse_json(text, "scenario")),
                 ("loads_scenario", texts, True, loads_scenario),
                 ("load_scenario", paths, True, load_scenario),
                 *((f"read_document + {name}", paths, name in ("nib", "scenario"),
                    lambda path, decode=decode: decode(read_document(path)))
                   for name, decode in sections.items())]
        seen = set()
        for name, sources, reads_flows, call in calls:
            for source, arg in sources.items():
                try:
                    call(arg)
                    got = None
                except (FlowspaceError, OSError) as exc:
                    got = type(exc), str(exc)
                assert gc.isenabled() is collector, (name, source)
                want = errors.get(source) if source != "bad flow" or reads_flows else None
                assert (got is None) is (want is None), (name, source, got)
                if got is not None:
                    assert got[0] is want[0] and got[1].startswith(want[1]), (name, source, got)
                    seen.add(source)
        assert seen == set(errors)

    def test_a_load_runs_no_collection(self, tmp_path):
        # One pause covers reading, parsing and decoding, so no collection
        # scans the JSON tree between the parse and the decode.
        text = json.dumps(_document_with_flows(2_000))
        path = tmp_path / "flows.json"
        path.write_text(text, encoding="utf-8")
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        for load, arg in ((load_scenario, path), (loads_scenario, text)):
            gc.collect()
            gc.callbacks.append(record)
            try:
                scn = load(arg)
            finally:
                gc.callbacks.remove(record)
            assert len(scn.nib.flows) == 2_000
            assert started == [], load.__name__

    def test_each_decoder_runs_with_the_collector_paused(self, monkeypatch):
        seen = []

        def recording(decode):
            def recorded(*args):
                seen.append((decode.__name__, gc.isenabled()))
                return decode(*args)
            return recorded

        for name in ("_table", "_app", "_header"):
            monkeypatch.setattr(scenario, name, recording(getattr(scenario, name)))
        monkeypatch.setattr(scenario, "json", SimpleNamespace(loads=recording(json.loads)))
        doc = Document(scenario.parse_json(json.dumps(_document_with_flows(3)), "scenario"))
        doc.nib()
        doc.chain("ids-lb")
        doc.query("fresh-client")
        doc.scenario()
        assert {name for name, _ in seen} == {"loads", "_table", "_app", "_header"}
        assert not any(enabled for _, enabled in seen)
        assert gc.isenabled()

    def test_an_interrupt_restores_the_collector(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        doc = Document(_document_with_flows(3))
        monkeypatch.setattr(scenario, "_table", interrupted)
        for decode in (doc.nib, doc.scenario):
            with pytest.raises(KeyboardInterrupt):
                decode()
            assert gc.isenabled()
        monkeypatch.setattr(scenario, "json", SimpleNamespace(loads=interrupted))
        with pytest.raises(KeyboardInterrupt):
            scenario.parse_json("{}", "scenario")
        assert gc.isenabled()

    def test_the_suite_fails_a_test_that_leaves_the_collector_disabled(self):
        conftest.check_collector()  # enabled: nothing to report
        gc.disable()
        with pytest.raises(pytest.fail.Exception, match="garbage collector disabled"):
            conftest.check_collector()
        assert gc.isenabled()
