"""The inverse-key index against the all-pairs algorithms it replaced.

`reduce`, `detect_loops` and `what_if` must give exactly the output of
the oracles in `oracles.py` on seeded collision tables, and on
hand-built tables that hold the cases the index treats specially.
"""

import random

import pytest

from oracles import (
    apply_flow_mod,
    detect_loops_oracle,
    reduce_oracle,
    table_diffs_oracle,
    what_if_new_loops_oracle,
)
from flowspace import sampling
from flowspace.actions import AffineAction, STATE_SIZE, drop, forward, identity, invert
from flowspace.analysis import FlowModRequest, detect_loops, what_if
from flowspace.headers import MatchPattern
from flowspace.nib import NIB, Topology
from flowspace.tables import FlowEntry, FlowRule, FlowTable, negate_rule, reduce

#: Port translation 0x8000 is its own negation mod 2**16.
HALF_TURN = forward(0x8000)


def rule(action, nw_src=1) -> FlowRule:
    return FlowRule(MatchPattern.from_fields(nw_src=nw_src), 2, 60, action)


def with_action(r: FlowRule, action: AffineAction) -> FlowRule:
    return FlowRule(r.match, r.out_port, r.ttl, action)


def collision_table(rng: random.Random, max_entries: int) -> FlowTable:
    """A collision table, sometimes with a live rule under another counter
    and a self-inverse rule on a live signature."""
    entries = list(sampling.random_collision_table(rng, max_entries))
    if entries and rng.random() < 0.3:
        e = rng.choice(entries)
        entries.append(FlowEntry(e.rule, rng.randint(0, 5)))
    if entries and rng.random() < 0.2:
        e = rng.choice(entries)
        action = rng.choice((identity(), HALF_TURN))
        entries.append(FlowEntry(with_action(e.rule, action), rng.randint(0, 5)))
    return FlowTable(entries)


def candidate_rule(rng: random.Random, table: FlowTable) -> FlowRule:
    """A rule to install: often the inverse of a live rule or a live rule
    itself, so that new loops and no-op adds both occur."""
    entries = table.entries
    if not entries:
        return sampling.random_rule(rng)
    live = rng.choice(entries).rule
    roll = rng.random()
    if roll < 0.4 and all(live.action.linear):
        return negate_rule(live)
    if roll < 0.55:
        return live
    if roll < 0.65:
        return with_action(live, rng.choice((identity(), HALF_TURN)))
    return with_action(live, sampling.random_action(rng))


def candidates(rng: random.Random, nib: NIB) -> list[FlowModRequest]:
    s = rng.randrange(nib.topology.switch_count)
    table = nib.tables[s]
    out = [FlowModRequest("add", s, candidate_rule(rng, table))]
    if len(table):
        old = rng.choice(table.entries).rule
        out.append(FlowModRequest("delete", s, old))
        new = old if rng.random() < 0.1 else candidate_rule(rng, table)
        out.append(FlowModRequest("modify", s, new, old))
    return out


def check_what_if(nib: NIB, candidate: FlowModRequest) -> None:
    report = what_if(nib, candidate)
    assert report.result == apply_flow_mod(nib, candidate)
    assert report.diffs == table_diffs_oracle(nib, report.result)
    assert report.new_loops == what_if_new_loops_oracle(nib, candidate)


class TestSeeded:
    def test_reduce_matches_restart_loop(self):
        rng = random.Random(3001)
        for _ in range(3000):
            t = collision_table(rng, 16)
            assert reduce(t) == reduce_oracle(t)

    def test_detect_loops_and_what_if_match_full_scans(self):
        rng = random.Random(2001)
        ops = set()
        for _ in range(2000):
            nib = NIB(Topology(2), (collision_table(rng, 10), collision_table(rng, 10)))
            assert detect_loops(nib) == detect_loops_oracle(nib)
            for candidate in candidates(rng, nib):
                check_what_if(nib, candidate)
                ops.add(candidate.op)
        assert ops == {"add", "delete", "modify"}


def one_switch(*entries: FlowEntry) -> NIB:
    return NIB(Topology(1), (FlowTable(entries),))


class TestHandBuilt:
    @pytest.mark.parametrize("action", [identity(), HALF_TURN], ids=["identity", "half-turn"])
    def test_self_inverse_rules(self, action):
        r = rule(action)
        alone = one_switch(FlowEntry(r, 3))
        assert reduce(alone.tables[0]) == FlowTable()
        assert detect_loops(alone) == []
        # A second counter of the same rule pairs with the first.
        candidate = FlowModRequest("add", 0, r)
        twice = one_switch(FlowEntry(r, 0), FlowEntry(r, 3))
        assert what_if(alone, candidate).new_loops == tuple(detect_loops(twice))
        assert [(f.entry_a.counter, f.entry_b.counter) for f in detect_loops(twice)] == [(0, 3)]
        check_what_if(alone, candidate)
        for t in (twice.tables[0], FlowTable([FlowEntry(r, c) for c in range(3)])):
            assert reduce(t) == reduce_oracle(t) == FlowTable()

    def test_one_rule_under_two_counters(self):
        r = rule(forward(5))
        t = FlowTable([FlowEntry(r, 1), FlowEntry(r, 4), FlowEntry(negate_rule(r), 2)])
        # The inverse cancels the lower counter; the other copy stays.
        assert reduce(t) == reduce_oracle(t) == FlowTable([FlowEntry(r, 4)])
        nib = NIB(Topology(1), (t,))
        findings = detect_loops(nib)
        assert findings == detect_loops_oracle(nib)
        assert len(findings) == 2

    def test_drop_entry_with_partner_translation(self):
        r = rule(forward(5))
        # A drop composed with a translation: its translation is the
        # partner key of r, but its diagonal is all zeros.
        fake = with_action(r, AffineAction((0,) * STATE_SIZE, invert(r.action).translation))
        nib = one_switch(FlowEntry(r, 0), FlowEntry(fake, 0), FlowEntry(with_action(r, drop()), 0))
        assert reduce(nib.tables[0]) == nib.tables[0]
        assert detect_loops(nib) == []
        assert what_if(nib, FlowModRequest("add", 0, fake)).new_loops == ()
        assert len(what_if(nib, FlowModRequest("add", 0, negate_rule(r))).new_loops) == 1
        check_what_if(nib, FlowModRequest("add", 0, negate_rule(r)))

    def test_modify_with_old_equal_new(self):
        r = rule(forward(5))
        nib = one_switch(FlowEntry(r, 3), FlowEntry(negate_rule(r), 0))
        candidate = FlowModRequest("modify", 0, r, r)
        report = what_if(nib, candidate)
        # The counter restarts, so the entry and its loop are new.
        assert report.diffs[0].added == (FlowEntry(r, 0),)
        assert report.diffs[0].removed == (FlowEntry(r, 3),)
        assert len(report.new_loops) == 1
        check_what_if(nib, candidate)

    def test_add_of_present_entry(self):
        r = rule(forward(5))
        nib = NIB(Topology(2), (FlowTable([FlowEntry(r, 0), FlowEntry(negate_rule(r), 0)]),
                                FlowTable()))
        candidate = FlowModRequest("add", 0, r)
        report = what_if(nib, candidate)
        assert report.result == nib
        assert [(d.added, d.removed) for d in report.diffs] == [((), ()), ((), ())]
        assert report.new_loops == ()
        check_what_if(nib, candidate)

    def test_delete_yields_no_loops(self):
        r = rule(forward(5))
        nib = one_switch(FlowEntry(r, 0), FlowEntry(r, 1), FlowEntry(negate_rule(r), 0))
        candidate = FlowModRequest("delete", 0, r)
        report = what_if(nib, candidate)
        assert report.new_loops == ()
        assert report.diffs[0].removed == (FlowEntry(r, 0), FlowEntry(r, 1))
        check_what_if(nib, candidate)
