import dataclasses
import functools
import json
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

from oracles import congruent, dense_rows, is_translation_only
from flowspace import actions, casestudy, sampling, scenario, transforms
from flowspace.actions import drop, forward
from flowspace.errors import (
    DimensionMismatchError,
    EmptyChainError,
    InvalidRuleError,
    RuleNotFoundError,
    SlotOutOfRangeError,
    UnresolvedPortError,
)
from flowspace.headers import FIELD_INDEX, Header, MatchPattern
from flowspace.nib import NIB, Flow, Topology, nib_from_vector
from flowspace.tables import FlowEntry, FlowRule, FlowTable, add, empty, negate_rule, reduce
from flowspace.analysis import LoopFinding, behavioral_diff
from flowspace.transforms import (
    AppTransform,
    DestPort,
    Drop,
    Forward,
    GuardedDelta,
    InputHeader,
    LoadAtMost,
    PickLessLoaded,
    PortName,
    PortNumber,
    RuleTemplate,
    Seq,
    ServiceChain,
    SetField,
    SourceCountAtMost,
    TrueGuard,
    apply_transform,
    chain,
    compose_apps,
    flow_mod_add,
    flow_mod_delete,
    flow_mod_modify,
    guarded,
    identity_transform,
    make_app,
    normalize,
    template_key,
    unconditional,
)


def rule(action=None, port=1, ttl=60, **match_fields) -> FlowRule:
    return FlowRule(MatchPattern.from_fields(**match_fields), port, ttl,
                    action if action is not None else forward(3))


def topo(n=2) -> Topology:
    return Topology(n, {"p0": 1, "p1": 2}, {50: 1, 60: 2})


def nib_of(topology=None, flows=()) -> NIB:
    t = topology or topo()
    return NIB(t, tuple(FlowTable() for _ in range(t.switch_count)), tuple(flows))


class TestFlowMod:
    def test_add_to_empty(self):
        r = rule(nw_src=1)
        t = flow_mod_add(empty(), r)
        assert t.entries == (FlowEntry(r, 0),)

    def test_added_entries_start_at_counter_zero(self):
        t = flow_mod_add(empty(), rule())
        assert t.entries[0].counter == 0

    def test_re_adding_is_idempotent(self):
        r = rule()
        t = flow_mod_add(empty(), r)
        assert flow_mod_add(t, r) == t

    def test_delete_only_entry(self):
        r = rule()
        assert flow_mod_delete(flow_mod_add(empty(), r), r) == empty()

    def test_delete_from_empty(self):
        with pytest.raises(RuleNotFoundError):
            flow_mod_delete(empty(), rule())

    def test_add_then_delete_round_trips(self):
        # set-difference oracle: removing what was added restores the set
        rng = random.Random(3)
        for _ in range(100):
            t = sampling.random_table(rng)
            r = sampling.random_rule(rng)
            expect = FlowTable(e for e in add(t, FlowTable([FlowEntry(r, 0)]))
                               if e.rule != r)
            assert flow_mod_delete(flow_mod_add(t, r), r) == expect

    def test_delete_removes_every_counter_variant(self):
        r = rule()
        t = FlowTable([FlowEntry(r, 0), FlowEntry(r, 9)])
        assert flow_mod_delete(t, r) == empty()

    def test_delete_agrees_with_inverse_cancellation(self):
        # The additive-inverse route reaches the same table on the
        # simple single-entry case the algebra covers.
        r = rule(action=forward(6), nw_src=2)
        t = flow_mod_add(empty(), r)
        via_inverse = reduce(add(t, FlowTable([FlowEntry(negate_rule(r), 0)])))
        assert via_inverse == flow_mod_delete(t, r)

    def test_modify(self):
        old, new = rule(nw_src=1), rule(nw_src=2)
        t = flow_mod_modify(flow_mod_add(empty(), old), old, new)
        assert t.entries == (FlowEntry(new, 0),)

    def test_modify_same_rule_resets_counter(self):
        r = rule()
        t = FlowTable([FlowEntry(r, 7)])
        assert flow_mod_modify(t, r, r).entries == (FlowEntry(r, 0),)

    def test_modify_absent(self):
        with pytest.raises(RuleNotFoundError):
            flow_mod_modify(empty(), rule(nw_src=1), rule(nw_src=2))


def fwd_template(port="p0", ttl=60) -> RuleTemplate:
    return RuleTemplate(InputHeader(), PortName(port), ttl, Forward(PortName(port)))


class TestMakeApp:
    def test_slot_placement(self):
        d = unconditional([fwd_template()])
        app = make_app("a", 1, d, 3)
        assert app.translation == ((), (d,), ())
        assert app.linear == ((0,), (1,), (2,))

    def test_out_of_range(self):
        with pytest.raises(SlotOutOfRangeError):
            make_app("a", 2, unconditional([]), 2)

    def test_empty_delta_is_congruent_to_identity(self):
        app = make_app("a", 0, unconditional([]), 2)
        assert congruent(app, identity_transform(2))

    def test_identity_rows_name_their_own_slot(self):
        # Every app builds its own identity rows, row i naming slot i; a
        # transform built from equal rows made apart is equal.
        a = make_app("a", 0, unconditional([fwd_template()]), 3)
        assert a.linear == identity_transform(3).linear == ((0,), (1,), (2,))
        assert AppTransform("e", tuple((i,) for i in range(3)), ((),) * 3) \
            == identity_transform(3, "e")
        scn = scenario.loads_scenario(scenario.dump_scenario(casestudy.build_scenario()))
        assert all(transforms.is_identity_linear(app) for app in scn.apps.values())


class TestLinearRows:
    """Row i of a linear part is the tuple of the columns whose entry is
    1, plain ints in strictly increasing order, one row per slot."""

    @pytest.mark.parametrize("linear, error, message", [
        ([(0,), (1,)], InvalidRuleError, "linear must be a tuple, got list"),
        (((0,), [1]), InvalidRuleError, "linear[1] must be a tuple, got list"),
        (((0,), (True,)), InvalidRuleError, "linear[1][0] must be an int, got bool"),
        (((0, 1.0), (1,)), InvalidRuleError, "linear[0][1] must be an int, got float"),
        (((-1,), (1,)), InvalidRuleError, "linear[0][0] must be a slot in 0..1, got -1"),
        (((0,), (0, 2)), InvalidRuleError, "linear[1][1] must be a slot in 0..1, got 2"),
        (((0, 0), (1,)), InvalidRuleError,
         "linear[0][1] must exceed the column before it, 0, got 0"),
        (((1, 0), (1,)), InvalidRuleError,
         "linear[0][1] must exceed the column before it, 1, got 0"),
        (((0,),), DimensionMismatchError, "linear part must have one row per slot, got 1 for 2"),
        (((0,), (1,), (0,)), DimensionMismatchError,
         "linear part must have one row per slot, got 3 for 2"),
    ])
    def test_bad_row_is_named(self, linear, error, message):
        with pytest.raises(error) as info:
            AppTransform("x", linear, ((), ()))
        assert str(info.value) == message

    def test_zero_and_wide_rows_are_rows(self):
        app = AppTransform("x", ((), (0, 1)), ((), ()))
        assert not transforms.is_identity_linear(app)
        assert not transforms.is_identity_linear(AppTransform("y", ((1,), (0,)), ((), ())))


class TestComposeApps:
    def test_identity_unit(self):
        rng = random.Random(7)
        for _ in range(50):
            a = sampling.random_app(rng, 2)
            i = identity_transform(2)
            assert congruent(compose_apps(i, a), a)
            assert congruent(compose_apps(a, i), a)

    def test_slotwise_sum_layout(self):
        d1 = unconditional([fwd_template("p0")])
        d2 = unconditional([fwd_template("p1")])
        first = make_app("first", 1, d1, 2)
        second = make_app("second", 0, d2, 2)
        composite = compose_apps(second, first)
        # first's delta lands in slot 1, second's in slot 0
        assert composite.translation == ((d2,), (d1,))

    def test_same_slot_concatenates_in_order(self):
        d1 = unconditional([fwd_template("p0")])
        d2 = unconditional([fwd_template("p1")])
        composite = compose_apps(make_app("b", 0, d2, 2), make_app("a", 0, d1, 2))
        assert composite.translation[0] == (d1, d2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose_apps(identity_transform(2), identity_transform(3))

    def test_associativity_up_to_normalize(self):
        rng = random.Random(13)
        for _ in range(200):
            a, b, c = (sampling.random_app(rng, 2, n) for n in "abc")
            left = normalize(compose_apps(compose_apps(a, b), c))
            right = normalize(compose_apps(a, compose_apps(b, c)))
            assert left.linear == right.linear
            assert left.translation == right.translation


class TestChain:
    def test_single_stage(self):
        a = make_app("a", 0, unconditional([fwd_template()]), 2)
        assert chain(ServiceChain((a,))) == a

    def test_empty_chain_rejected(self):
        with pytest.raises(EmptyChainError):
            ServiceChain(())
        with pytest.raises(EmptyChainError):
            chain([])

    def test_first_stage_applies_first(self):
        d1 = unconditional([fwd_template("p0")])
        d2 = unconditional([fwd_template("p1")])
        composite = chain([make_app("a", 0, d1, 2), make_app("b", 0, d2, 2)])
        assert composite.translation[0] == (d1, d2)


class TestApplyTransform:
    def test_identity_is_noop(self):
        nib = nib_of()
        h = Header.from_fields(nw_src=1)
        assert apply_transform(identity_transform(2), nib, h) == nib

    def test_guard_selects_arm(self):
        delta = guarded(
            [(SourceCountAtMost(1),
              [RuleTemplate(InputHeader(), PortName("p0"), 60, Forward(PortName("p0")))])],
            default=[RuleTemplate(InputHeader(), PortName("p0"), 60, Drop())],
        )
        app = make_app("watch", 0, delta, 2)
        h = Header.from_fields(nw_src=5)
        quiet = nib_of()
        noisy = nib_of(flows=[Flow(Header.from_fields(nw_src=5, tp_src=i)) for i in range(3)])

        low = apply_transform(app, quiet, h).tables[0]
        assert low.entries[0].rule.action == forward(1)

        high = apply_transform(app, noisy, h).tables[0]
        assert high.entries[0].rule.action == drop()

    def test_load_guard_selects_arm(self):
        delta = guarded(
            [(LoadAtMost(50, 60), [fwd_template("p0")])],
            default=[fwd_template("p1")],
        )
        app = make_app("lb", 0, delta, 2)
        h = Header.from_fields(nw_src=1)
        balanced = nib_of()
        assert apply_transform(app, balanced, h).tables[0].entries[0].rule.out_port == 1
        skewed = nib_of(flows=[Flow(Header.from_fields(nw_dst=50)),
                               Flow(Header.from_fields(nw_dst=50))])
        # load(50)=2 > load(60)=0: the otherwise arm fires
        assert apply_transform(app, skewed, h).tables[0].entries[0].rule.out_port == 2

    def test_input_header_match_is_exact(self):
        app = make_app("a", 0, unconditional([fwd_template()]), 2)
        h = Header.from_fields(nw_src=9, tp_dst=80)
        out = apply_transform(app, nib_of(), h)
        assert out.tables[0].entries[0].rule.match == MatchPattern.exact_for(h)

    def test_dest_port_resolution(self):
        tpl = RuleTemplate(InputHeader(), DestPort(), 60, Forward(DestPort()))
        app = make_app("d", 0, unconditional([tpl]), 2)
        h = Header.from_fields(nw_dst=60)
        out = apply_transform(app, nib_of(), h)
        assert out.tables[0].entries[0].rule.out_port == 2

    def test_dest_port_respects_flow_assignment(self):
        tpl = RuleTemplate(InputHeader(), DestPort(), 60, Forward(DestPort()))
        app = make_app("d", 0, unconditional([tpl]), 2)
        h = Header.from_fields(nw_dst=999999)
        nib = nib_of(flows=[Flow(h, assigned_dest=50)])
        out = apply_transform(app, nib, h)
        assert out.tables[0].entries[0].rule.out_port == 1

    def test_unresolved_port(self):
        app = make_app("a", 0, unconditional([fwd_template("nope")]), 2)
        with pytest.raises(UnresolvedPortError):
            apply_transform(app, nib_of(), Header.from_fields())

    def test_unresolved_dest(self):
        tpl = RuleTemplate(InputHeader(), DestPort(), 60, Forward(DestPort()))
        app = make_app("d", 0, unconditional([tpl]), 2)
        with pytest.raises(UnresolvedPortError):
            apply_transform(app, nib_of(), Header.from_fields(nw_dst=12345))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_transform(identity_transform(3), nib_of(), Header.from_fields())

    def test_flows_untouched(self):
        nib = nib_of(flows=[Flow(Header.from_fields(nw_src=1))])
        app = make_app("a", 0, unconditional([fwd_template()]), 2)
        assert apply_transform(app, nib, Header.from_fields()).flows == nib.flows

    def test_pick_less_loaded_value(self):
        tpl = RuleTemplate(
            InputHeader(), PortName("p0"), 60,
            Seq((SetField("nw_dst", PickLessLoaded(50, 60)), Forward(PortName("p0")))),
        )
        app = make_app("lb", 0, unconditional([tpl]), 2)
        h = Header.from_fields(nw_dst=0)
        nib = nib_of(flows=[Flow(Header.from_fields(nw_dst=50))])
        # load(50)=1 > load(60)=0, so 60 is picked; the modify goes 0 -> 60
        entry = apply_transform(app, nib, h).tables[0].entries[0]
        assert entry.rule.action == actions.compose(forward(1), actions.modify_field("nw_dst", 60))

    def test_non_identity_linear_row_unions_tables(self):
        e = FlowEntry(rule(nw_src=4), 0)
        nib = NIB(topo(), (FlowTable([e]), FlowTable()))
        app = AppTransform("mix", ((0, 1), (1,)), ((), ()))
        out = apply_transform(app, nib, Header.from_fields())
        assert out.tables[0] == FlowTable([e])
        assert out.tables[1] == FlowTable()

    def test_instantiated_counters_come_from_template(self):
        tpl = RuleTemplate(InputHeader(), PortName("p0"), 60, Drop(), counter=0)
        app = make_app("a", 0, unconditional([tpl]), 2)
        out = apply_transform(app, nib_of(), Header.from_fields())
        assert out.tables[0].entries[0].counter == 0

    def test_a_topology_port_map_cannot_change_after_construction(self):
        # The topology checks copies of its port maps once and keeps them
        # read-only, so a port read from them is not checked again.
        ports, server_ports = {"p0": 1, "p1": 2}, {50: 1, 60: 2}
        topology = Topology(1, ports, server_ports)
        for held, key in ((topology.ports, "p0"), (topology.server_ports, 50)):
            with pytest.raises(TypeError):
                held[key] = -3
            with pytest.raises(TypeError):
                del held[key]
        ports["p0"], server_ports[50] = -3, True
        ports["p9"], server_ports[70] = 9, 9
        assert topology == topo(1) and hash(topology) == hash(topo(1))
        assert repr(topology) == repr(topo(1))
        nib, h = nib_of(topology), Header.from_fields(nw_dst=50)
        looked_up = RuleTemplate(InputHeader(), PortName("p0"), 60, Forward(DestPort()))
        literal = RuleTemplate(InputHeader(), PortNumber(1), 60, Forward(PortNumber(1)))
        app = make_app("a", 0, unconditional([looked_up]), 1)
        assert transforms.lookups_resolve(app, nib, h)
        assert (apply_transform(app, nib, h)
                == apply_transform(make_app("a", 0, unconditional([literal]), 1), nib, h))


class TestTemplateConstructors:
    """Template values are real ints in range, as `FlowRule`'s are."""

    def test_valid_values(self):
        spec = Seq((SetField("nw_tos", 63), SetField("nw_dst", PickLessLoaded(0, 2**32 - 1))))
        tpl = RuleTemplate(InputHeader(), PortNumber(0xFFFF), 0xFFFF, spec, counter=7)
        assert (tpl.ttl, tpl.counter, tpl.out_port.value) == (0xFFFF, 7, 0xFFFF)

    @pytest.mark.parametrize("build, message", [
        (lambda: RuleTemplate(InputHeader(), DestPort(), True, Drop()),
         "ttl must be an int, got bool"),
        (lambda: RuleTemplate(InputHeader(), DestPort(), 60.0, Drop()),
         "ttl must be an int, got float"),
        (lambda: RuleTemplate(InputHeader(), DestPort(), 70_000, Drop()),
         "ttl 70000 exceeds 16-bit range"),
        (lambda: RuleTemplate(InputHeader(), DestPort(), 60, Drop(), counter=True),
         "counter must be an int, got bool"),
        (lambda: RuleTemplate(InputHeader(), DestPort(), 60, Drop(), counter=-1),
         "counter must be non-negative"),
        (lambda: PortNumber(True), "value must be an int, got bool"),
        (lambda: PortNumber("1"), "value must be an int, got str"),
        (lambda: PortNumber(-1), "value -1 exceeds 16-bit range"),
        (lambda: PickLessLoaded(1.0, 2), "server_a must be an int, got float"),
        (lambda: PickLessLoaded(1, 2**32), "server_b 4294967296 exceeds 32-bit range"),
        (lambda: SetField("nw_dst", False), "to must be an int, got bool"),
        (lambda: SetField("nw_dst", -1), "to -1 exceeds 32-bit range"),
        (lambda: SetField("tp_dst", 1 << 16), "to 65536 exceeds 16-bit range"),
        (lambda: SetField("vlan", 1), "field must be a header field name, got 'vlan'"),
        (lambda: SetField(6, 1), "field must be a header field name, got 6"),
    ])
    def test_invalid_values_name_the_field(self, build, message):
        with pytest.raises(InvalidRuleError) as info:
            build()
        assert str(info.value) == message

    def test_bool_ttl_no_longer_equals_int_ttl(self):
        # A template that would not instantiate must not be equal, and
        # hash equal, to one that does.
        with pytest.raises(InvalidRuleError):
            RuleTemplate(InputHeader(), PortName("p0"), True, Drop())
        tpl = RuleTemplate(InputHeader(), PortName("p0"), 1, Drop())
        assert apply_transform(make_app("a", 0, unconditional([tpl]), 2), nib_of(),
                               Header.from_fields()).tables[0].entries[0].rule.ttl == 1


class TestValueConstructors:
    """Topologies, flows, headers, guards and applications take real ints
    in range, as rules and templates do, and their errors name the field."""

    H = Header.from_fields()
    ENTRY = FlowEntry(FlowRule(MatchPattern.wildcard(), 1, 60, forward(3)), 0)
    TPL = RuleTemplate(InputHeader(), DestPort(), 60, Drop())

    @pytest.mark.parametrize("build, message", [
        (lambda: Topology(True), "switches must be an int, got bool"),
        (lambda: Topology(1.0), "switches must be an int, got float"),
        (lambda: Topology(0), "switches must be at least 1, got 0"),
        (lambda: Topology(1, {"a": True}), "ports[a] must be an int, got bool"),
        (lambda: Topology(1, {"a": -1}), "ports[a] -1 exceeds 16-bit range"),
        (lambda: Topology(1, {"a": 70_000}), "ports[a] 70000 exceeds 16-bit range"),
        (lambda: Topology(1, {1: 2}), "ports[1] name must be a string, got int"),
        (lambda: Topology(1, {1: 2, "a": 3}), "ports[1] name must be a string, got int"),
        (lambda: Topology(1, {}, {5: -1}), "server_ports[5] -1 exceeds 16-bit range"),
        (lambda: Topology(1, {}, {5: 70_000}), "server_ports[5] 70000 exceeds 16-bit range"),
        (lambda: Topology(1, {}, {2**32: 1}),
         "server_ports[4294967296] 4294967296 exceeds 32-bit range"),
        (lambda: Header.from_fields(nw_src=True), "nw_src must be an int, got bool"),
        (lambda: Header.from_fields(nw_src=1.0), "nw_src must be an int, got float"),
        (lambda: Header.from_fields(in_port=None), "in_port must be an int, got NoneType"),
        (lambda: Header.from_fields(nw_tos=64), "nw_tos=64 exceeds 6-bit range"),
        (lambda: Flow(TestValueConstructors.H, -1), "assigned_dest -1 exceeds 32-bit range"),
        (lambda: Flow(TestValueConstructors.H, 2**32),
         "assigned_dest 4294967296 exceeds 32-bit range"),
        (lambda: Flow(TestValueConstructors.H, True), "assigned_dest must be an int, got bool"),
        (lambda: Flow({}, None), "header must be a Header, got dict"),
        (lambda: LoadAtMost(True, "x"), "server_a must be an int, got bool"),
        (lambda: LoadAtMost(1, "x"), "server_b must be an int, got str"),
        (lambda: LoadAtMost(1, 2**32), "server_b 4294967296 exceeds 32-bit range"),
        (lambda: SourceCountAtMost(-5), "threshold must be non-negative, got -5"),
        (lambda: SourceCountAtMost(1.5), "threshold must be an int, got float"),
        (lambda: AppTransform(3, ((0,),), ((),)), "name must be a string, got int"),
        (lambda: AppTransform("a", ((0,),), (("junk",),)),
         "translation[0][0] must be a GuardedDelta, got str"),
        (lambda: AppTransform("a", ((0,), (1,)), ((), [])),
         "translation[1] must be a tuple, got list"),
        (lambda: AppTransform("a", ((0,),), [()]), "translation must be a tuple, got list"),
        (lambda: ServiceChain([transforms.identity_transform(1)]),
         "stages must be a tuple, got list"),
        (lambda: ServiceChain(("nope",)), "stages[0] must be an AppTransform, got str"),
        (lambda: AppTransform("a", ((0,),), ((unconditional([]), None),)),
         "translation[0][1] must be a GuardedDelta, got NoneType"),
        (lambda: make_app("a", True, unconditional([]), 2), "slot must be an int, got bool"),
        (lambda: make_app("a", 1.0, unconditional([]), 2), "slot must be an int, got float"),
        (lambda: make_app("a", 0, "drop", 1), "delta must be a GuardedDelta, got str"),
        (lambda: make_app("a", 0, unconditional(["drop"]), 1),
         "default[0] must be a RuleTemplate, got str"),
        (lambda: guarded([("x", [])], []),
         "branches[0][0] must be a TrueGuard, SourceCountAtMost or LoadAtMost, got str"),
        (lambda: GuardedDelta([], ()), "branches must be a tuple, got list"),
        (lambda: GuardedDelta(((TrueGuard(),),), ()),
         "branches[0] must be a (guard, templates) pair, got tuple"),
        (lambda: GuardedDelta(((TrueGuard(), [TestValueConstructors.TPL]),), ()),
         "branches[0][1] must be a tuple, got list"),
        (lambda: GuardedDelta(((TrueGuard(), (TestValueConstructors.TPL, None)),), ()),
         "branches[0][1][1] must be a RuleTemplate, got NoneType"),
        (lambda: GuardedDelta((), [TestValueConstructors.TPL]), "default must be a tuple, got list"),
        (lambda: nib_from_vector(topo(), (FlowTable(), FlowTable(), 0)),
         "homogeneous vector must end in 1"),
        (lambda: LoopFinding(0, TestValueConstructors.ENTRY, TestValueConstructors.ENTRY,
                             forward(1)),
         "certificate must be the identity action"),
        (lambda: PortName(1), "name must be a string, got int"),
        (lambda: Forward("p0"), "port must be a PortName, PortNumber or DestPort, got str"),
        (lambda: Forward(1), "port must be a PortName, PortNumber or DestPort, got int"),
        (lambda: RuleTemplate(InputHeader(), "p0", 60, Drop()),
         "out_port must be a PortName, PortNumber or DestPort, got str"),
        (lambda: RuleTemplate(InputHeader(), DestPort(), 60, "drop"),
         "action must be a Forward, Drop, SetField or Seq, got str"),
        (lambda: RuleTemplate(TestValueConstructors.H, DestPort(), 60, Drop()),
         "match must be an InputHeader or a MatchPattern, got Header"),
        (lambda: RuleTemplate(None, DestPort(), 60, Drop()),
         "match must be an InputHeader or a MatchPattern, got NoneType"),
        (lambda: Seq([Drop()]), "steps must be a tuple, got list"),
        (lambda: Seq((Drop(), Seq(("drop",)))),
         "steps[0] must be a Forward, Drop, SetField or Seq, got str"),
        (lambda: Seq((Drop(), forward(1))),
         "steps[1] must be a Forward, Drop, SetField or Seq, got AffineAction"),
        (lambda: SetField("nw_tos", PickLessLoaded(256, 3)),
         "to.server_a 256 exceeds 6-bit range"),
        (lambda: SetField("tp_dst", PickLessLoaded(1, 1 << 16)),
         "to.server_b 65536 exceeds 16-bit range"),
    ])
    def test_invalid_values_name_the_field(self, build, message):
        with pytest.raises(InvalidRuleError) as info:
            build()
        assert str(info.value) == message

    def test_valid_values(self):
        topology = Topology(1, {"a": 0xFFFF}, {2**32 - 1: 0})
        assert Flow(self.H, 2**32 - 1).assigned_dest == 2**32 - 1
        assert LoadAtMost(0, 2**32 - 1) and SourceCountAtMost(0).threshold == 0
        assert make_app("a", 0, unconditional([]), topology.switch_count).dimension == 1
        delta = guarded([(TrueGuard(), [self.TPL])], [self.TPL])
        assert delta == GuardedDelta(((TrueGuard(), (self.TPL,)),), (self.TPL,))


class CountingName(PortName):
    """A port name that counts how often it is hashed."""

    calls = 0

    def __hash__(self):
        type(self).calls += 1
        return hash(self.name)


def hashed_template() -> RuleTemplate:
    return RuleTemplate(InputHeader(), CountingName("p0"), 60,
                        Seq((SetField("nw_dst", 5), Forward(PortName("p1")))))


class TestTemplateHash:
    def test_hash_is_computed_once(self):
        CountingName.calls = 0
        tpl = hashed_template()
        first = hash(tpl)
        index = {tpl: 1}
        assert {tpl, tpl} == {tpl} and index[tpl] == 1 and hash(tpl) == first
        assert CountingName.calls == 1

    def test_hash_is_the_field_tuple_hash(self):
        tpl = hashed_template()
        assert hash(tpl) == hash((tpl.match, tpl.out_port, tpl.ttl, tpl.action, tpl.counter))

    def test_cache_is_out_of_equality_and_repr(self):
        tpl, fresh = hashed_template(), hashed_template()
        before = repr(tpl)
        hash(tpl)
        assert tpl._facts is not None and fresh._facts is None
        assert repr(tpl) == before == repr(fresh)  # with and without facts
        assert "_facts" not in {f.name for f in dataclasses.fields(tpl)}
        assert tpl == fresh and fresh == tpl

    def test_pickle_carries_no_cached_hash(self):
        tpl = fwd_template()
        hash(tpl)
        data = pickle.dumps(tpl)
        assert b"_facts" not in data
        loaded = pickle.loads(data)
        assert loaded._facts is None
        assert loaded == tpl and tpl == loaded and loaded is not tpl
        assert hash(loaded) == hash(tpl) and template_key(loaded) == template_key(tpl)

    def test_facts_are_one_entry_computed_once(self, monkeypatch):
        calls = []
        canonical_key = transforms._canonical_key
        monkeypatch.setattr(transforms, "_canonical_key",
                            lambda t: calls.append(t) or canonical_key(t))
        tpl, other = hashed_template(), hashed_template()
        assert tpl._facts is None and other._facts is None
        assert tpl == other and other == tpl and template_key(tpl) == template_key(other)
        # The hash, key and plan are worked out together into one slot, once.
        assert tpl._facts[:2] == (hash(tpl), template_key(tpl))
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_unpickled_in_another_hash_seed_hashes_as_built_there(self):
        tpl = fwd_template("p-seeded")
        hash(tpl)
        child = (
            "import pickle, sys\n"
            "from flowspace.transforms import *\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "built = RuleTemplate(InputHeader(), PortName('p-seeded'), 60,"
            " Forward(PortName('p-seeded')))\n"
            "assert loaded == built and hash(loaded) == hash(built)\n"
            "print(hash(built))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(tpl),
                             capture_output=True, env=env, check=True)
        # the seeds differ, so the strings hash differently there
        assert int(out.stdout) != hash(tpl)


def build_action(spec, nib: NIB, h: Header) -> actions.AffineAction:
    """The action `Instances` builds for a template with action `spec`."""
    tpl = RuleTemplate(InputHeader(), PortNumber(0), 0, spec)
    return transforms.Instances(nib, h).build(tpl).rule.action


def applied(spec, h: Header, nib: NIB | None = None) -> Header:
    """The header that spec's action for h makes of h."""
    a = build_action(spec, nib or nib_of(), h)
    return actions.apply_action(a, actions.RuleState(h, 0, 0)).header


class TestBuildAction:
    H = Header.from_fields(nw_dst=100)

    @pytest.mark.parametrize("steps", [
        (SetField("nw_dst", 5), SetField("nw_dst", 9)),
        (Drop(), SetField("nw_dst", 9)),
        (SetField("nw_dst", 5), Seq((Drop(), Forward(PortName("p0")))), SetField("nw_dst", 9)),
        (Seq((SetField("nw_dst", 5),)), Seq((Seq((SetField("nw_dst", 9),)),))),
    ])
    def test_last_set_field_wins(self, steps):
        # f:=n; f:=m acts as f:=m, also after a drop and across nested seqs
        assert applied(Seq(steps), self.H).values[FIELD_INDEX["nw_dst"]] == 9

    def test_set_field_twice_is_one_modify(self):
        spec = Seq((SetField("nw_dst", 5), SetField("nw_dst", 9)))
        assert build_action(spec, nib_of(), self.H) == actions.modify_field("nw_dst", 9 - 100)

    def test_set_field_after_drop_is_a_constant(self):
        spec = Seq((Drop(), SetField("nw_dst", 9)))
        assert build_action(spec, nib_of(), self.H) == actions.compose(
            actions.modify_field("nw_dst", 9), drop())

    def test_drop_clears_earlier_steps(self):
        spec = Seq((Forward(PortName("p1")), SetField("nw_src", 7), Drop()))
        assert build_action(spec, nib_of(), self.H) == drop()

    def test_delta_wraps_within_the_field(self):
        # 2 -> 0xFFFF -> 1 on a 16-bit field: both deltas wrap
        h = Header.from_fields(tp_dst=2)
        spec = Seq((SetField("tp_dst", 0xFFFF), SetField("tp_dst", 1)))
        assert build_action(spec, nib_of(), h) == actions.modify_field("tp_dst", 0xFFFF)

    def test_nested_unresolved_port(self):
        spec = Seq((SetField("nw_dst", 5), Seq((Forward(PortName("nope")),))))
        with pytest.raises(UnresolvedPortError, match="no port named 'nope'"):
            build_action(spec, nib_of(), self.H)

    def test_target_wider_than_the_field(self):
        # An integer target and both servers of a deferred pick are
        # checked when the template is built.
        with pytest.raises(InvalidRuleError, match="to 256 exceeds 6-bit range"):
            SetField("nw_tos", 256)
        with pytest.raises(InvalidRuleError, match="to.server_a 256 exceeds 6-bit range"):
            SetField("nw_tos", PickLessLoaded(256, 3))
        with pytest.raises(InvalidRuleError, match="to.server_b 257 exceeds 6-bit range"):
            SetField("nw_tos", PickLessLoaded(3, 257))

    def test_seeded_last_set_field_reaches_its_target(self):
        rng = random.Random(4711)
        topology = sampling.random_topology(rng, 2)
        checked = 0
        while checked < 500:
            spec = Seq(tuple(sampling.random_action_spec(rng) for _ in range(rng.randint(1, 4))))
            if not isinstance(spec.steps[-1], SetField):
                continue
            nib, h = sampling.random_scenario(rng, topology)
            last = spec.steps[-1]
            assert applied(spec, h, nib).values[FIELD_INDEX[last.field]] == last.to, spec
            checked += 1


class TestNormalize:
    def test_idempotent(self):
        rng = random.Random(19)
        for _ in range(200):
            app = sampling.random_app(rng, 2)
            once = normalize(app)
            assert normalize(once).translation == once.translation

    def test_piece_order_is_canonical(self):
        d1 = unconditional([fwd_template("p0")])
        d2 = guarded([(SourceCountAtMost(2), [fwd_template("p1")])], [fwd_template("p1")])
        a = AppTransform("a", ((0,),), ((d1, d2),))
        b = AppTransform("b", ((0,),), ((d2, d1),))
        assert congruent(a, b)

    def test_identical_arms_collapse_to_unconditional(self):
        tpl = fwd_template()
        piecewise = guarded([(LoadAtMost(50, 60), [tpl])], default=[tpl])
        app = make_app("a", 0, piecewise, 2)
        flat = make_app("b", 0, unconditional([tpl]), 2)
        assert congruent(app, flat)

    def test_true_guard_swallows_later_arms(self):
        tpl_a, tpl_b = fwd_template("p0"), fwd_template("p1")
        piece = guarded(
            [(TrueGuard(), [tpl_a]), (SourceCountAtMost(1), [tpl_b])],
            default=[tpl_b],
        )
        app = make_app("a", 0, piece, 2)
        assert congruent(app, make_app("b", 0, unconditional([tpl_a]), 2))

    def test_repeated_guard_arm_is_dead(self):
        tpl_a, tpl_b = fwd_template("p0"), fwd_template("p1")
        g = SourceCountAtMost(3)
        piece = guarded([(g, [tpl_a]), (g, [tpl_b])], default=[])
        app = make_app("a", 0, piece, 2)
        expected = make_app("b", 0, guarded([(g, [tpl_a])], default=[]), 2)
        assert congruent(app, expected)

    def test_template_lists_are_sets(self):
        tpl = fwd_template()
        a = make_app("a", 0, unconditional([tpl, tpl]), 2)
        b = make_app("b", 0, unconditional([tpl]), 2)
        assert congruent(a, b)

    def test_unconditional_pieces_merge(self):
        t1, t2 = fwd_template("p0"), fwd_template("p1")
        split = compose_apps(
            make_app("a", 0, unconditional([t1]), 2),
            make_app("b", 0, unconditional([t2]), 2),
        )
        joint = make_app("c", 0, unconditional([t1, t2]), 2)
        assert congruent(split, joint)

    def test_mid_merge_collapse_keeps_later_arms(self):
        # Three same-guard pieces where the first two merge into a piece
        # whose arm equals its default (collapsing to unconditional); the
        # third piece's arm templates must not be lost.
        g = SourceCountAtMost(2)
        t1, t2, t3 = fwd_template("p0"), fwd_template("p1"), fwd_template("p0", ttl=30)
        p1 = guarded([(g, [t1])], default=[t2])
        p2 = guarded([(g, [t2])], default=[t1])  # merged with p1: arm == default
        p3 = guarded([(g, [t3])], default=[])
        summed = AppTransform("s", ((0,),), ((p1, p2, p3),))
        expected = AppTransform(
            "e", ((0,),),
            ((guarded([(g, [t1, t2, t3])], default=[t1, t2]),),),
        )
        assert congruent(summed, expected)
        # and the normal form still behaves like the three pieces applied
        topology = Topology(1, {"p0": 1, "p1": 2})
        nib = NIB(topology, (FlowTable(),))
        h = Header.from_fields(nw_src=1)
        raw = apply_transform(summed, nib, h)
        norm = apply_transform(normalize(summed), nib, h)
        assert raw.tables[0] == norm.tables[0]
        assert len(raw.tables[0]) == 3  # t1, t2 and the guarded t3


class TestNormalizeSoundness:
    def test_normalize_preserves_behavior(self):
        # the normal form must act on every NIB exactly like the raw form
        rng = random.Random(43)
        topology = sampling.random_topology(rng, 2)
        for _ in range(150):
            app = sampling.random_app(rng, 2)
            norm = normalize(app)
            for _ in range(4):
                nib, h = sampling.random_scenario(rng, topology)
                assert apply_transform(app, nib, h) == apply_transform(norm, nib, h)

    def test_normalize_preserves_behavior_on_stacked_same_guard_pieces(self):
        rng = random.Random(44)
        topology = sampling.random_topology(rng, 2)
        for _ in range(100):
            g = SourceCountAtMost(rng.randint(0, 3))
            pieces = tuple(
                guarded([(g, sampling.random_templates(rng, 2))],
                        default=sampling.random_templates(rng, 2))
                for _ in range(rng.randint(2, 4))
            )
            app = AppTransform("x", ((0,), (1,)), (pieces, ()))
            norm = normalize(app)
            for _ in range(4):
                nib, h = sampling.random_scenario(rng, topology)
                assert apply_transform(app, nib, h) == apply_transform(norm, nib, h)


class TestCongruence:
    def test_reflexive(self):
        rng = random.Random(29)
        for _ in range(100):
            a = sampling.random_app(rng, 2)
            assert congruent(a, a)

    def test_translation_only_swaps(self):
        rng = random.Random(37)
        for _ in range(200):
            a = sampling.random_translation_app(rng, 2, "a")
            b = sampling.random_translation_app(rng, 2, "b")
            assert congruent(compose_apps(a, b), compose_apps(b, a))

    def test_guard_threshold_distinguishes(self):
        tpl = fwd_template()
        a = make_app("a", 0, guarded([(SourceCountAtMost(1), [tpl])], []), 2)
        b = make_app("b", 0, guarded([(SourceCountAtMost(2), [tpl])], []), 2)
        assert not congruent(a, b)

    def test_slot_distinguishes(self):
        d = unconditional([fwd_template()])
        assert not congruent(make_app("a", 0, d, 2), make_app("a", 1, d, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            congruent(identity_transform(2), identity_transform(3))

    def test_congruent_variants_behave_identically(self):
        rng = random.Random(41)
        topology = sampling.random_topology(rng, 2)
        for _ in range(20):
            stages = tuple(sampling.random_app(rng, 2, f"s{k}") for k in range(2))
            va = ServiceChain(stages)
            vb = ServiceChain(tuple(sampling.shuffled_variant(rng, s) for s in stages))
            assert congruent(chain(va), chain(vb))
            scenarios = [sampling.random_scenario(rng, topology) for _ in range(10)]
            assert behavioral_diff(va, vb, scenarios) == []


class TestTranslationOnly:
    def test_identity_transform(self):
        assert is_translation_only(identity_transform(2))

    def test_guarded_app_is_not(self):
        tpl = fwd_template()
        app = make_app("a", 0, guarded([(SourceCountAtMost(1), [tpl])], []), 2)
        assert not is_translation_only(app)

    def test_unconditional_app_is(self):
        app = make_app("a", 0, unconditional([fwd_template()]), 2)
        assert is_translation_only(app)

    def test_collapsing_arms_count_as_unconditional(self):
        tpl = fwd_template()
        app = make_app("a", 0, guarded([(LoadAtMost(1, 2), [tpl])], default=[tpl]), 2)
        assert is_translation_only(app)

    def test_non_identity_linear_is_not(self):
        app = AppTransform("mix", ((0, 1), (1,)), ((), ()))
        assert not is_translation_only(app)


class TestWideTopology:
    """A linear part is stored as its nonzeros, so on 2,000 switches the
    sizes of a composite, its report and a decoded document grow with the
    switch count, not with its square (a dense row would hold 2,000
    entries)."""

    N = 2000

    def stages(self, rng):
        apps = [sampling.random_app(rng, self.N, f"a{i}") for i in range(4)]
        order = rng.sample(range(self.N), self.N)
        permuting = AppTransform("perm", tuple((k,) for k in order), ((),) * self.N)
        return apps[:2] + [permuting] + apps[2:]

    def test_composite_holds_the_dense_products_nonzeros(self):
        stages = self.stages(random.Random(2401))
        composite = transforms.chain(stages)
        # The oracle's dense product, over float32 so numpy multiplies in
        # BLAS; entries stay below 2**24, so exact.
        product = functools.reduce(lambda acc, stage: dense_rows(stage).astype(np.float32) @ acc,
                                   stages[1:], dense_rows(stages[0]).astype(np.float32)) % 2
        assert sum(map(len, composite.linear)) == np.count_nonzero(product) == self.N
        assert composite.linear == tuple(tuple(np.flatnonzero(row).tolist()) for row in product)

    def test_report_is_a_few_bytes_per_switch(self):
        report = json.dumps(scenario.transform_to_obj(
            normalize(transforms.chain(self.stages(random.Random(2402))))))
        assert len(report) < 32 * self.N

    def test_decoding_builds_rows_of_their_support_only(self):
        rng = random.Random(2403)
        apps = {a.name: a for a in self.stages(rng) if a.name != "perm"}
        topology = sampling.random_topology(rng, self.N)
        doc = scenario.dump_scenario(scenario.Scenario(
            topology, NIB(topology, (FlowTable(),) * self.N), apps,
            {"c": ServiceChain(tuple(apps.values()))}))
        scn = scenario.loads_scenario(doc)
        assert len(scn.apps) == 4
        for app in scn.apps.values():  # `make_app` builds them without the constructor
            assert all(row == (i,) for i, row in enumerate(app.linear))
            assert app == AppTransform(app.name, app.linear, app.translation)
