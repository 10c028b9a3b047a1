"""The indexes against the scans they replaced.

`reduce`, `detect_loops` and `what_if` must give exactly the output of
the oracles in `oracles.py` on seeded collision tables, and on
hand-built tables that hold the cases the index treats specially.
Along a seeded chain of previews and commits, committing the FLOW_MOD
just previewed must return the previewed table without editing again,
and every other commit must equal the oracle's; a table kept alive
must keep no table edited from it alive, and a copy or pickle of a
table must hold its entries alone.  Along seeded streams of FLOW_MODs,
each on the table the last one returned, `flow_mod` must gain and lose
what the copying edit it replaced (`flow_mod_oracle`) does, and the
table must answer partner lookups through its edit and its base's index
as the oracle's table does, without being built, past the bound at
which an edit is built into a new base; read whole, it must give the
oracle's entries, index, inverse pairs, reduction and loops.  A preview
and its commit on 32,000 entries must allocate under 64 KB.  A delete or
modify of a singular (drop) rule must match the oracles on hand-built
tables: a rule under several counters, a rule modified into itself, a
rule added back while its base entry is removed, and deletes after a
compaction, which must carry the base's drop groups over; on 32,000
entries it must compare at most a few rules.

The NIB statistics must equal the linear scans over the flows on
seeded NIBs whose headers collide, on hand-built NIBs, and inside
`apply_transform` of both case-study composites.

`normalize` must give exactly the merge-pass fixpoint's normal form on
seeded chains whose guard sequences collide and whose merged arms
collapse, computing each template object's key once.  Template
equality, hash agreement and key equality must agree with the
field-by-field comparison on seeded pairs, and the flat pattern key
must order patterns and table entries as the nested key did.

Interned template keys must give the equality, hashes and key order of
the structural keys (`_canonical_key` tuples) on templates drawn twice
from the same seeds, and `check_congruence` the verdict and first
difference of the oracles on chain pairs drawn that way, also when one
key is forced to two objects.  Kept slot keys must come back from
pickling and copies as the same objects, a dead key must leave the
intern table, and comparing congruent pairs must compare no two key
objects.

`scenario.action_from_obj`, which folds a concrete action's steps into
one action, must give exactly the pairwise-composing decoder's action,
or the same error, on seeded action objects, malformed ones included.

A template's action, which `Instances.build` folds from its kept plan
into one action, must raise exactly the errors of the pairwise-composing
instantiation, and give its action on every spec with no `set_field`
after a `drop` or after a `set_field` of the same field.  On every spec,
the action must map the steered header's rule state to the state that
running the steps one by one gives.  On seeded templates `Instances`
must give exactly the recursive instantiation's entry, or its error,
after the same port lookups in the same order; the plan must take no
part in equality, hashing, repr or pickling.  The pattern, action, rule
and entry that instantiation builds from checked parts, without the
constructors' checks, must equal the values the constructors build,
with the same hash and repr, also after a copy, a deep copy and
`dataclasses.replace`.

`analysis.behavioral_diff`, which selects templates only in slots whose
linear rows or normal-form keys differ, builds both composites' tables
only in slots whose rows or selected template sets differ and compares
reductions only in slots whose tables differ, must give exactly the
separate applies' counterexamples, or the same error, on seeded chain
pairs:
shuffled partners, partners with one template changed, partners with an
added inverse template pair and partners with one linear entry flipped.
It must instantiate nothing on a scenario whose two composites have
equal linear parts and select equal template sets in every slot, yet
raise there what an apply raises; on any other scenario it must
instantiate each distinct template selected in those slots once, and
reading a witness's results must instantiate the first composite's
other distinct templates once each.  Every error must be raised by the
call, never by reading a witness.  An unread witness must equal the
oracle's eager one in either order, and give its `dataclasses.replace`,
repr, copies and pickle round trip, and a read result must be the same
object on every read.  It must compare the
reductions of no slot whose two tables are equal, and reduce no whole
table.  `check_instantiable` must resolve
exactly the port names and destination ports that instantiation
resolves, in its order, and raise its error.  `compose_apps` and
`chain` must give exactly the entrywise matrix product, folded stage
by stage, on seeded apps with random 0/1 linear parts, and `chain`'s
work must grow linearly with the stage count.  On chains of identity,
permuting, zero-row and random 0/1 stages, the composite must also
apply as the apply oracle and as equal rows built apart do, and diff as
the separate applies do.

A `ServiceChain`'s kept composite must equal that fold and be returned
by every `chain` call on it, and a transform's kept normal form must
equal the merge-pass fixpoint's, on seeded chains of `random_app`
stages and their `shuffled_variant` or edited partners; neither may
take part in equality, hashing or repr.  On those chain pairs
`behavioral_diff` must give exactly the separate applies'
counterexamples, or the same error (unresolved port names, destination
ports and slot counts).  It must select only slots whose rows or
normal forms differ, once for each chain per scenario, and the first
chain's other slots only when a witness's results are read, so pairs
with equal normal forms select nothing where every port resolves.

Kept slot keys must agree exactly where normal-form slots are equal,
also across equal but distinct templates, and `check_congruence` must
give the report of the slotwise walk by dataclass equality, on every
kind of first difference.  Hand-built pairs (an unresolvable port name
in an arm that is not selected, a selected one, a destination with no
server port, slot counts that do not fit, unequal linear rows) and
seeded pairs, scenario by scenario, must give exactly the oracle's
outcome.  `tables.reductions_equal` must agree with comparing the two
reductions on seeded table pairs with singular entries, self-inverse
entries and rules under several counters, and must key only the
entries of the buckets where the two tables differ.
"""

import copy
import dataclasses
import gc
import importlib
import pickle
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

import pytest

import oracles
from oracles import (
    action_from_obj_oracle,
    apply_flow_mod,
    apply_transform_oracle,
    behavioral_diff_oracle,
    build_action_oracle,
    compose_apps_oracle,
    count_by_dest_oracle,
    count_by_src_oracle,
    detect_loops_oracle,
    effective_dest_of_header_oracle,
    first_difference_oracle,
    flow_mod_oracle,
    entry_key_oracle,
    instantiate,
    normalize_oracle,
    pattern_key_oracle,
    reduce_oracle,
    table_diffs_oracle,
    template_eq_oracle,
    what_if_new_loops_oracle,
)
import flowspace
from flowspace import actions, analysis, axioms, casestudy, sampling, tables, transforms
from flowspace.actions import (
    PORT_MASK,
    PORT_SLOT,
    STATE_SIZE,
    AffineAction,
    RuleState,
    apply_action,
    drop,
    forward,
    identity,
    invert,
    modify_field,
)
from flowspace.analysis import FlowModRequest, detect_loops, what_if
from flowspace.errors import (
    DimensionMismatchError,
    FlowspaceError,
    RuleNotFoundError,
    UnresolvedPortError,
)
from flowspace.headers import (
    FIELD_INDEX,
    FIELD_MASKS,
    FIELDS,
    Header,
    HeaderDelta,
    MatchPattern,
    pattern_key,
)
from flowspace.nib import (
    NIB,
    Flow,
    Topology,
    count_by_dest,
    count_by_src,
    effective_dest_of_header,
)
from flowspace.scenario import action_from_obj
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    entry_key,
    inverse_index,
    inverse_key,
    inverse_pairs,
    negate_rule,
    partners,
    reduce,
)
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
    guarded,
    make_app,
    normalize,
    resolve_port,
    resolve_value,
    unconditional,
)

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


def candidate_rule(rng: random.Random, entries: Sequence[FlowEntry]) -> FlowRule:
    """A rule to install, given the live entries: often the inverse of a
    live rule or a live rule itself, so that new loops and no-op adds
    both occur."""
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
    out = [FlowModRequest("add", s, candidate_rule(rng, table.entries))]
    if len(table):
        old = rng.choice(table.entries).rule
        out.append(FlowModRequest("delete", s, old))
        new = old if rng.random() < 0.1 else candidate_rule(rng, table.entries)
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
        seen = Counter()
        for _ in range(2000):
            nib = NIB(Topology(2), (collision_table(rng, 10), collision_table(rng, 10)))
            assert detect_loops(nib) == detect_loops_oracle(nib)
            for candidate in candidates(rng, nib):
                check_what_if(nib, candidate)
                ops.add(candidate.op)
                # `what_if` sorts the lost entries and the new loops only
                # when there are two or more, so both cases must occur.
                report = what_if(nib, candidate)
                seen["two or more lost"] += len(report.diffs[candidate.switch].removed) >= 2
                seen["two or more new loops"] += len(report.new_loops) >= 2
        assert ops == {"add", "delete", "modify"}
        assert min(seen["two or more lost"], seen["two or more new loops"]) >= 100, seen


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


# ---------------------------------------------------------------------------
# The inverse index a table carries through FLOW_MODs


def planted_table(rng: random.Random, pairs: int) -> FlowTable:
    """Inverse pairs on two signatures, plus drop rules and a second
    counter of a live rule."""
    sigs = [(sampling.random_pattern(rng), rng.randrange(PORT_MASK + 1), 60)
            for _ in range(2)]
    entries = []
    for _ in range(pairs):
        r = FlowRule(*rng.choice(sigs), sampling.random_invertible_action(rng))
        entries += [FlowEntry(r, rng.randint(0, 3)), FlowEntry(negate_rule(r), 0)]
    entries += [FlowEntry(FlowRule(*rng.choice(sigs), drop()), c) for c in range(2)]
    entries.append(FlowEntry(entries[0].rule, 7))
    return FlowTable(entries)


def commit_oracle(table: FlowTable, c: FlowModRequest) -> FlowTable:
    return apply_flow_mod(NIB(Topology(1), (table,)),
                          FlowModRequest(c.op, 0, c.rule, c.old_rule)).tables[0]


def commit(table: FlowTable, c: FlowModRequest) -> FlowTable:
    if c.op == "add":
        return transforms.flow_mod_add(table, c.rule)
    if c.op == "delete":
        return transforms.flow_mod_delete(table, c.rule)
    return transforms.flow_mod_modify(table, c.old_rule, c.rule)


def built(t: FlowTable) -> bool:
    """Whether `t` holds its whole entry set and index, read without
    building them: a table `flow_mod` returned is built on the first
    read of the whole table."""
    return type(t) is FlowTable or t._base is None


def answering_index(t: FlowTable) -> tables.InverseIndex | None:
    """The inverse index `t` answers group lookups through, read without
    building anything: for a table `flow_mod` returned and nothing has
    built yet, its base's kept index with the edit's groups laid over
    it (a key whose group the edit emptied is absent); else the table's
    own kept index, None while it has none."""
    if built(t):
        return t._index
    index = {**t._base[1], **t._groups}
    return {key: group for key, group in index.items() if group}


def assert_index_carried(t: FlowTable) -> None:
    """The table answers through an index it carries, its own or its
    base's with its edit laid over, and that index equals one built
    afresh."""
    index = answering_index(t)
    assert index is not None
    assert index == inverse_index(FlowTable(t))


def chain_candidates(rng: random.Random, nib: NIB) -> list[FlowModRequest]:
    """`candidates`, plus a delete and a modify of a drop rule when the
    touched table holds one."""
    out = candidates(rng, nib)
    s = out[0].switch
    drops = [e.rule for e in nib.tables[s] if not all(e.rule.action.linear)]
    if drops:
        old = rng.choice(drops)
        out += [FlowModRequest("delete", s, old),
                FlowModRequest("modify", s, candidate_rule(rng, nib.tables[s].entries), old)]
    return out


#: The ways to duplicate a table; each must hold the entries alone.
DUPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
        "pickle": lambda t: pickle.loads(pickle.dumps(t))}


class TestCarriedIndex:
    def test_chain_of_previews_and_commits(self):
        rng = random.Random(9101)
        seen = Counter()
        nib = None
        for step in range(2400):
            if step % 300 == 0:  # start over, on both kinds of table
                nib = NIB(Topology(2), (collision_table(rng, 24), planted_table(rng, 6)))
            cands = chain_candidates(rng, nib)
            preview = rng.choice(cands)
            s = preview.switch
            parent = nib.tables[s]
            check_what_if(nib, preview)
            assert_index_carried(parent)
            report = what_if(nib, preview)
            previewed = report.result.tables[s]
            assert_index_carried(previewed)
            # Commit the previewed FLOW_MOD, another one on the same parent,
            # an equal request of rebuilt rules, or the previewed one after
            # its report is gone.
            kind = rng.choice(("previewed", "other", "rebuilt", "dropped"))
            committed = preview
            if kind == "other":
                committed = rng.choice(cands)
            elif kind == "rebuilt":
                committed = copy.deepcopy(preview)
                assert committed.rule == preview.rule and committed.rule is not preview.rule
            elif kind == "dropped":
                gone = weakref.ref(previewed)
                del report, previewed
                assert gone() is None
            table = commit(parent, committed)
            assert table == commit_oracle(parent, committed)
            if kind == "previewed":
                assert table is previewed
            assert_index_carried(table)
            nib = NIB(nib.topology, tuple(table if i == s else t
                                          for i, t in enumerate(nib.tables)), nib.flows)
            r = committed.rule
            seen[committed.op] += 1
            seen[kind] += 1
            seen["different commit"] += committed != preview
            seen["re-add"] += committed.op == "add" and FlowEntry(r, 0) in parent
            old = committed.old_rule if committed.op == "modify" else r
            seen["drop rule out"] += committed.op != "add" and not all(old.action.linear)
        assert min(seen.values()) >= 50, seen

    def test_flow_mod_returns_the_set_differences(self):
        """On the chain above, `flow_mod` gains and loses exactly the set
        differences of the two tables, on a fresh table and on one that
        carries its index."""
        rng = random.Random(9101)
        seen = Counter()
        nib = None
        for step in range(2400):
            if step % 300 == 0:
                nib = NIB(Topology(2), (collision_table(rng, 24), planted_table(rng, 6)))
            cands = chain_candidates(rng, nib)
            preview = rng.choice(cands)
            s = preview.switch
            parent = nib.tables[s]
            committed = preview if rng.random() < 0.5 else rng.choice(cands)
            for c in (committed,) if committed is preview else (committed, preview):
                old, new = {"add": (None, c.rule), "delete": (c.rule, None),
                            "modify": (c.old_rule, c.rule)}[c.op]
                for t in (FlowTable(parent), parent):  # a fresh table, then the carried index
                    table, gained, lost = tables.flow_mod(t, old, new)
                    assert table == commit_oracle(parent, c)
                    assert type(gained) is tuple and type(lost) is tuple
                    assert Counter(gained) == Counter(table.entries) - Counter(parent.entries)
                    assert Counter(lost) == Counter(parent.entries) - Counter(table.entries)
                if c is committed:
                    nib = NIB(nib.topology, tuple(table if i == s else t
                                                  for i, t in enumerate(nib.tables)), nib.flows)
                seen[c.op] += 1
                seen["re-add"] += c.op == "add" and FlowEntry(new, 0) in parent
                seen["into itself"] += old == new
                seen["into its zero-counter entry"] += old == new and FlowEntry(new, 0) in parent
        assert min(seen.values()) >= 50, seen

    def test_reduce_and_detect_loops_keep_the_index(self):
        rng = random.Random(9102)
        for _ in range(50):
            nib = NIB(Topology(2), (collision_table(rng, 16), planted_table(rng, 4)))
            assert detect_loops(nib) == detect_loops_oracle(nib)
            for t in nib.tables:
                assert_index_carried(t)
            t = nib.tables[1]
            index = t._index
            assert reduce(t) == reduce_oracle(t)
            assert detect_loops(nib) == detect_loops_oracle(nib)
            assert t._index is index
            fresh = FlowTable(t)
            assert reduce(fresh) == reduce_oracle(t)
            assert_index_carried(fresh)

    def test_flow_mod_indexes_a_fresh_table(self):
        rng = random.Random(9103)
        for _ in range(100):
            t = planted_table(rng, 3)
            c = rng.choice(candidates(rng, NIB(Topology(1), (t,))))
            out = commit(t, c)
            assert out == commit_oracle(t, c)
            assert_index_carried(t)
            assert_index_carried(out)

    @pytest.mark.parametrize("size", [8000, 32000])
    def test_preview_work_is_per_touched_entry(self, monkeypatch, size):
        match = MatchPattern.from_fields(nw_src=1)
        entries = [FlowEntry(FlowRule(match, i, 60, forward(5)), 0) for i in range(size)]
        live = entries[size // 2].rule
        entries.append(FlowEntry(live, 3))  # a second counter: two entries to remove
        nib = NIB(Topology(1), (FlowTable(entries),))
        inverse_index(nib.tables[0])  # built once, before the counting starts
        calls = Counter()

        def counted(r):
            calls["inverse_key"] += 1
            return inverse_key(r)

        monkeypatch.setattr(tables, "inverse_key", counted)  # the one module that reads keys
        # (candidate, entries it touches, new loops): the inverse of `live`
        # pairs with both its counters.
        cases = [
            (FlowModRequest("add", 0, negate_rule(live)), 1, 2),
            (FlowModRequest("delete", 0, live), 2, 0),
            (FlowModRequest("modify", 0, negate_rule(live), entries[0].rule), 2, 2),
        ]
        for candidate, touched, loops in cases:
            calls.clear()
            report = what_if(nib, candidate)
            assert len(report.new_loops) == loops
            assert calls["inverse_key"] <= 3 * touched
            assert_index_carried(report.result.tables[0])
            calls.clear()  # committing the previewed FLOW_MOD does not edit again
            assert commit(nib.tables[0], candidate) is report.result.tables[0]
            assert calls["inverse_key"] == 0

    def test_a_kept_table_keeps_no_table_edited_from_it(self):
        rng = random.Random(9104)
        root = NIB(Topology(2), (collision_table(rng, 24), planted_table(rng, 6)))
        nib, committed = root, []
        for _ in range(1000):
            preview = rng.choice(chain_candidates(rng, nib))
            s = preview.switch
            report = what_if(nib, preview)
            table = commit(nib.tables[s], preview)
            assert table is report.result.tables[s]
            committed.append(weakref.ref(table))
            nib = NIB(nib.topology, tuple(table if i == s else t
                                          for i, t in enumerate(nib.tables)), nib.flows)
        del nib, report, table
        gc.collect()
        assert [ref for ref in committed if ref() is not None] == []
        assert all(t._last is not None for t in root.tables)  # the root was edited

    @pytest.mark.parametrize("dup", DUPS.values(), ids=DUPS)
    def test_copies_hold_the_entries_alone(self, dup):
        rng = random.Random(9105)
        for _ in range(50):
            nib = NIB(Topology(1), (planted_table(rng, 4),))
            preview = rng.choice(chain_candidates(rng, nib))
            report = what_if(nib, preview)  # indexes the table and leaves the memo on it
            indexed, previewed = nib.tables[0], report.result.tables[0]
            assert indexed._last is not None and answering_index(previewed) is not None
            for t in (indexed, previewed):
                twin = dup(t)
                assert type(twin) is FlowTable and twin == t and twin is not t
                assert (twin._order, twin._index, twin._last) == (None, None, None)
                assert twin.entries == t.entries
                assert reduce(twin) == reduce_oracle(t)
                assert_index_carried(twin)
            twin = dup(indexed)
            table = commit(twin, preview)
            assert table == commit_oracle(indexed, preview) and table is not previewed


# ---------------------------------------------------------------------------
# FLOW_MOD streams on a shared base, against the copying edit


def stream_request(rng: random.Random, live: list[FlowEntry], drops: list[FlowEntry],
                   gone: list[FlowRule]) -> tuple[str, FlowRule | None, FlowRule | None]:
    """A kind of FLOW_MOD and its (old, new) rules, on a table of `live`
    entries of which `drops` are singular; `gone` holds rules the stream
    removed, so some adds bring back an entry an earlier edit removed
    and some deletes name a rule no entry holds."""
    roll = rng.random()
    if not live or roll < 0.25:
        return "add", None, candidate_rule(rng, live)
    if roll < 0.32:
        return "add a drop rule", None, with_action(rng.choice(live).rule, drop())
    if gone and roll < 0.40:
        return "add a removed rule", None, rng.choice(gone)
    if gone and roll < 0.46:
        return "delete a removed rule", rng.choice(gone), None
    if drops and roll < 0.54:
        old = rng.choice(drops).rule
        return ("delete a drop rule", old, None) if rng.random() < 0.5 else \
            ("modify a drop rule", old, candidate_rule(rng, live))
    old = rng.choice(live).rule
    if roll < 0.70:
        return "delete", old, None
    if roll < 0.76:
        return "modify into itself", old, old
    return "modify", old, candidate_rule(rng, live)


def partner_probes(rng: random.Random, live: list[FlowEntry], touched, every: bool
                   ) -> list[FlowEntry]:
    """Entries whose partners to compare: every live entry, or the touched
    ones and a sample; and for each touched invertible entry, an entry of
    the inverse rule, whose partners are the touched rule's whole group."""
    probes = list(live) if every else [*touched, *rng.sample(live, min(8, len(live)))]
    probes += [FlowEntry(negate_rule(e.rule), 1 << 20) for e in touched
               if inverse_key(e.rule) is not None]
    return probes


def assert_commit_returns_the_preview(parent: FlowTable, old, new, *preview) -> None:
    """Committing the FLOW_MOD just previewed on `parent`, with its rules
    rebuilt equal, returns the previewed table, gained and lost."""
    old, new = (None if r is None else dataclasses.replace(r) for r in (old, new))
    table, gained, lost = tables.flow_mod(parent, old, new)
    assert table is preview[0] and (gained, lost) == preview[1:]


class TestSharedBase:
    @pytest.mark.parametrize("make, whole_every", [
        (lambda rng: collision_table(rng, 24), 8),
        (lambda rng: planted_table(rng, 6), 8),
        (lambda rng: planted_table(rng, 1000), 60),  # 2,003 entries
    ], ids=["collision", "planted", "2000 entries"])
    def test_stream_matches_the_copying_edit(self, make, whole_every):
        """A stream of FLOW_MODs, each on the table the last one returned,
        mostly read only through the edit, against `flow_mod_oracle`'s
        chain of copied tables.  Now and then the whole table is read
        (a copy, a deep copy or a pickle first), which builds it."""
        rng = random.Random(9201)
        table = root = make(rng)
        expect = FlowTable(root)  # the oracle keeps its memo in `_last` too
        live = dict.fromkeys(root.entries)
        drops = dict.fromkeys(e for e in live if inverse_key(e.rule) is None)
        gone: list[FlowRule] = []
        refs = []
        seen = Counter()
        for step in range(2000):
            entries = list(live)
            kind, old, new = stream_request(rng, entries, list(drops), gone)
            parent, on_edit = table, not built(table)
            seen[kind] += 1
            try:
                table, gained, lost = tables.flow_mod(parent, old, new)
            except RuleNotFoundError:
                with pytest.raises(RuleNotFoundError):
                    flow_mod_oracle(expect, old, new)
                seen["not found"] += 1
                continue
            expect, expect_gained, expect_lost = flow_mod_oracle(expect, old, new)
            assert type(gained) is tuple and type(lost) is tuple
            assert sorted(gained, key=entry_key) == sorted(expect_gained, key=entry_key)
            assert sorted(lost, key=entry_key) == sorted(expect_lost, key=entry_key)
            if rng.random() < 0.5:
                assert_commit_returns_the_preview(parent, old, new, table, gained, lost)
            refs.append(weakref.ref(table))
            for e in lost:
                del live[e]
                drops.pop(e, None)
                gone.append(e.rule)
            for e in gained:
                live[e] = None
                if inverse_key(e.rule) is None:
                    drops[e] = None
            del gone[:-64]
            seen["on an edit"] += on_edit
            seen["compacted"] += on_edit and built(table)
            seen["a removed base entry back"] += (
                on_edit and new is not None and FlowEntry(new, 0) in parent._removed)
            # Read through the edit, nothing built: the touched groups, or
            # on a small table or before a whole read, every group.
            whole = rng.random() < 1 / whole_every
            every = whole or len(live) <= 64
            was_built = built(table)
            if every:
                assert answering_index(table) == inverse_index(expect)
            for e in partner_probes(rng, list(live), gained + lost, every):
                assert partners(table, e) == partners(expect, e)
            assert built(table) == was_built
            if not whole:
                continue
            # Read the whole table, which builds it.
            if not was_built:
                name = rng.choice(sorted(DUPS))
                twin = DUPS[name](table)
                assert type(twin) is FlowTable and twin == expect and twin is not table
                assert (twin._order, twin._index, twin._last) == (None, None, None)
                seen[name] += 1
            assert table.entries == expect.entries and len(table) == len(live)
            assert_index_carried(table)
            assert inverse_index(table) == inverse_index(expect)
            assert (Counter(map(frozenset, inverse_pairs(table)))
                    == Counter(map(frozenset, inverse_pairs(expect))))
            assert reduce(table) == reduce(expect)
            assert (detect_loops(NIB(Topology(1), (table,)))
                    == detect_loops(NIB(Topology(1), (expect,))))
        assert min(seen.values()) >= 5, seen
        assert len(seen) == 16, seen
        # The table last edited holds its base's entries and index, not
        # the tables edited before it; the root holds them only weakly.
        del parent
        assert [ref for ref in refs[:-1] if ref() is not None and ref() is not table] == []
        del table
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert root._last is not None

    def test_a_preview_and_its_commit_allocate_per_touched_entry(self):
        size = 32000
        match = MatchPattern.from_fields(nw_src=1)
        entries = [FlowEntry(FlowRule(match, i, 60, forward(5)), 0) for i in range(size)]
        nib = NIB(Topology(1), (FlowTable(entries),))
        inverse_index(nib.tables[0])  # built once, before the tracing starts
        candidate = FlowModRequest("add", 0, negate_rule(entries[size // 2].rule))
        tracemalloc.start()
        try:
            report = what_if(nib, candidate)
            table = commit(nib.tables[0], candidate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table is report.result.tables[0] and len(report.new_loops) == 1
        assert peak < 64 * 1024, peak


# ---------------------------------------------------------------------------
# FLOW_MODs of singular rules, found through the base's drop groups

#: A singular action other than a drop: slot 0 is set to 5.
SET_SLOT_0 = AffineAction((0,) + (1,) * (STATE_SIZE - 1), (5,) + (0,) * (STATE_SIZE - 1))


def singular_rule(nw_src: int, port: int = 2, action: AffineAction | None = None) -> FlowRule:
    return FlowRule(MatchPattern.from_fields(nw_src=nw_src), port, 60, action or drop())


#: Invertible entries with partners and without, on the port of the
#: singular rules `singular_rule(1)` (under counters 0, 2 and 5),
#: `singular_rule(2)` and `singular_rule(3, action=SET_SLOT_0)`.
SINGULAR_TABLE = (
    *(FlowEntry(rule(forward(k), nw_src=1), k) for k in range(1, 5)),
    FlowEntry(rule(forward(-1), nw_src=1), 0), FlowEntry(rule(forward(9), nw_src=4), 0),
    *(FlowEntry(singular_rule(1), c) for c in (0, 2, 5)),
    FlowEntry(singular_rule(2), 0), FlowEntry(singular_rule(3, action=SET_SLOT_0), 1),
)


def replay(entries, steps) -> FlowTable:
    """The table that `steps`, FLOW_MODs as (old, new) rules, each on the
    table the last returned, leave of a fresh table of `entries`."""
    t = FlowTable(entries)
    for old, new in steps:
        t = tables.flow_mod(t, old, new)[0]
    return t


def assert_as_oracle(entries, steps, old, new
                     ) -> tuple[FlowTable, FlowTable, tuple, tuple]:
    """FLOW_MOD (old, new) after `steps` on a table of `entries`: `what_if`
    against the oracles, and `flow_mod` against `flow_mod_oracle`.  Each
    runs on its own replay of the steps, since the comparisons build the
    tables they read.  The table `flow_mod` edited, the one it returned,
    unbuilt unless the edit outgrew its base, and the entries gained and
    lost."""
    op = "add" if old is None else "delete" if new is None else "modify"
    check_what_if(NIB(Topology(1), (replay(entries, steps),)),
                  FlowModRequest(op, 0, old if new is None else new, old if op == "modify" else None))
    expect = FlowTable(entries)
    for o, n in steps:
        expect = flow_mod_oracle(expect, o, n)[0]
    t = replay(entries, steps)
    table, gained, lost = tables.flow_mod(t, old, new)
    expect, expect_gained, expect_lost = flow_mod_oracle(expect, old, new)
    assert sorted(gained, key=entry_key) == sorted(expect_gained, key=entry_key)
    assert sorted(lost, key=entry_key) == sorted(expect_lost, key=entry_key)
    held = table._entries if built(table) else \
        table._base[0].difference(table._removed).union(table._added)
    assert held == expect._entries
    return t, table, gained, lost


def assert_drop_groups(t: FlowTable) -> None:
    """`t`'s drop groups are built and hold exactly its singular entries,
    grouped by rule."""
    want: dict[FlowRule, set[FlowEntry]] = {}
    for e in t._entries:
        if inverse_key(e.rule) is None:
            want.setdefault(e.rule, set()).add(e)
    assert {r: set(group) for r, group in t._drops.groups.items()} == want


class TestDropRules:
    def test_a_rule_under_several_counters(self):
        held = singular_rule(1)
        for steps in ([], [(None, singular_rule(9))]):  # on the base, then on an edit
            for new in (None, rule(forward(1), nw_src=1), singular_rule(2), singular_rule(7)):
                t, table, gained, lost = assert_as_oracle(
                    SINGULAR_TABLE, steps, dataclasses.replace(held), new)
                assert sorted(e.counter for e in lost) == [0, 2, 5]
                assert built(t) != bool(steps) and not built(table)

    def test_a_rule_modified_into_itself(self):
        held, lone, added = singular_rule(1), singular_rule(2), singular_rule(9)
        for steps in ([], [(None, added)]):
            _, _, gained, lost = assert_as_oracle(SINGULAR_TABLE, steps, held, held)
            assert gained == () and sorted(e.counter for e in lost) == [2, 5]
            assert assert_as_oracle(SINGULAR_TABLE, steps, lone, dataclasses.replace(lone)
                                    )[2:] == ((), ())
        # A rule the edit added, modified into itself on the next edit.
        assert assert_as_oracle(SINGULAR_TABLE, [(None, added)], added, added)[2:] == ((), ())

    def test_a_rule_added_back_while_its_base_entry_is_removed(self):
        held = singular_rule(1)
        gone = [(held, None)]
        t, table, gained, _ = assert_as_oracle(SINGULAR_TABLE, gone, None, held)
        assert gained == (FlowEntry(held, 0),)
        assert FlowEntry(held, 0) in t._removed and FlowEntry(held, 0) not in table._removed
        # Held again by its base entry only: deleting or modifying it loses
        # that entry, and adding it again changes nothing.
        back = gone + [(None, held)]
        for new in (None, singular_rule(2), rule(forward(1))):
            t, _, _, lost = assert_as_oracle(SINGULAR_TABLE, back, held, new)
            assert lost == (FlowEntry(held, 0),) and not built(t)
        assert assert_as_oracle(SINGULAR_TABLE, back, None, held)[2:] == ((), ())

    def test_a_delete_after_a_compaction(self):
        entries = SINGULAR_TABLE + tuple(FlowEntry(rule(forward(k), nw_src=10 + k), 0)
                                         for k in range(40))
        held, other, setter = singular_rule(1), singular_rule(2), singular_rule(3, action=SET_SLOT_0)
        steps = [(held, None), (None, singular_rule(20)), (None, held)]
        while not built(replay(entries, steps)):  # adds until the edit is built into a new base
            steps.append((None, rule(forward(3), nw_src=100 + len(steps))))
        compacted = replay(entries, steps)
        assert_drop_groups(compacted)  # carried, not left for a new scan
        for old, new in [(other, None), (singular_rule(20), held), (held, None),
                         (setter, rule(forward(1)))]:
            t, table, _, lost = assert_as_oracle(entries, steps, old, new)
            assert [e.rule for e in lost] == [old]
            shared = t._drops if built(t) else t._base[2]  # the drop groups of t's base
            assert table._base[2] is shared and shared.groups is not None
            steps.append((old, new))
        t = replay(entries, steps)
        assert not built(t) and t._base[2].groups is not None

    def test_an_edit_on_32000_entries_compares_few_rules(self, monkeypatch):
        """Every entry shares the drop rules' port, so a scan would compare
        each entry's rule with the rule to remove."""
        size = 32000
        entries = [FlowEntry(singular_rule(k, port=7, action=forward(5)), 0) for k in range(size)]
        drops = [singular_rule(size + k, port=7) for k in range(8)]
        entries += [FlowEntry(r, 0) for r in drops] + [FlowEntry(drops[0], 3)]
        nib = NIB(Topology(1), (FlowTable(entries),))
        inverse_index(nib.tables[0])
        calls = Counter()
        eq = FlowRule.__eq__

        def counted(self, other):
            calls["eq"] += 1
            return eq(self, other)

        monkeypatch.setattr(FlowRule, "__eq__", counted)
        edit = tables.flow_mod(nib.tables[0], None, singular_rule(size + 99, port=7))[0]
        cases = [  # (table, candidate, entries lost), the rules rebuilt equal
            (nib.tables[0], FlowModRequest("delete", 0, dataclasses.replace(drops[0])), 2),
            (nib.tables[0], FlowModRequest("delete", 0, dataclasses.replace(drops[1])), 1),
            (nib.tables[0], FlowModRequest("modify", 0, entries[0].rule,
                                           dataclasses.replace(drops[2])), 1),
            (edit, FlowModRequest("modify", 0, drops[4], dataclasses.replace(drops[3])), 1),
            (edit, FlowModRequest("delete", 0, dataclasses.replace(drops[0])), 2),
        ]
        for table, candidate, lost in cases:
            calls.clear()
            report = what_if(NIB(nib.topology, (table,)), candidate)
            assert len(report.diffs[0].removed) == lost
            assert calls["eq"] <= 4, calls
        assert not built(edit)


# ---------------------------------------------------------------------------
# NIB statistics

#: Small address pools, so that sources, destinations and whole headers
#: repeat.  IDLE is a server no flow is assigned to or addressed at.
SOURCES = (0x0A000001, 0x0A000002, 0x0A000003, 0x0A000004)
DESTS = (0x0A000064, 0x0A000065, 0x0A000066)
SERVERS = (0x0A000065, 0x0A000066, 0x0A000067)
IDLE = 0x0A0000FF


def stats_header(rng: random.Random) -> Header:
    return Header.from_fields(nw_src=rng.choice(SOURCES), nw_dst=rng.choice(DESTS),
                              tp_src=rng.randrange(3))


def stats_nib(rng: random.Random, flows: int) -> NIB:
    return NIB(Topology(1), (FlowTable(),), tuple(
        Flow(stats_header(rng), rng.choice(SERVERS) if rng.random() < 0.5 else None)
        for _ in range(flows)
    ))


def check_stats(nib: NIB, probes) -> None:
    for h in probes:
        assert count_by_src(nib, h) == count_by_src_oracle(nib, h)
        assert effective_dest_of_header(nib, h) == effective_dest_of_header_oracle(nib, h)
    for server in SOURCES + DESTS + SERVERS + (IDLE,):
        assert count_by_dest(nib, server) == count_by_dest_oracle(nib, server)


def outcome(t, nib: NIB, h: Header):
    try:
        return transforms.apply_transform(t, nib, h)
    except FlowspaceError as exc:
        return type(exc), str(exc)


class TestStatsSeeded:
    def test_index_matches_linear_scans(self):
        rng = random.Random(5001)
        for _ in range(2000):
            nib = stats_nib(rng, rng.randint(0, 200))
            probes = [f.header for f in rng.sample(nib.flows, min(4, len(nib.flows)))]
            probes += [stats_header(rng) for _ in range(4)]
            check_stats(nib, probes)

    def test_case_study_applies_match_scans(self, monkeypatch):
        cfg = casestudy.CaseStudyConfig()
        composites = (transforms.chain(casestudy.build_x_chain(cfg)),
                      transforms.chain(casestudy.build_y_chain(cfg)))
        topology = casestudy.build_topology(cfg)
        tables = casestudy.build_nib(cfg).tables
        sources = (casestudy.CLIENT, casestudy.FRESH_CLIENT, casestudy.ATTACKER)
        dests = (casestudy.VIRTUAL, cfg.server_a, cfg.server_b)

        def header(rng):
            return Header.from_fields(nw_src=rng.choice(sources), nw_dst=rng.choice(dests),
                                      tp_src=rng.randrange(3))

        rng = random.Random(5002)
        cases = [(casestudy.build_nib(cfg), h) for h in casestudy.build_queries(cfg).values()]
        for _ in range(300):
            flows = tuple(Flow(header(rng), rng.choice((cfg.server_a, cfg.server_b, None)))
                          for _ in range(rng.randint(0, 12)))
            cases.append((NIB(topology, tables, flows), header(rng)))
        indexed = [outcome(t, nib, h) for nib, h in cases for t in composites]

        monkeypatch.setattr(transforms, "count_by_src", count_by_src_oracle)
        monkeypatch.setattr(transforms, "count_by_dest", count_by_dest_oracle)
        monkeypatch.setattr(transforms, "effective_dest_of_header",
                            effective_dest_of_header_oracle)
        # Fresh NIB objects, so that no index built above is reachable.
        scanned = [outcome(t, NIB(nib.topology, nib.tables, nib.flows), h)
                   for nib, h in cases for t in composites]
        assert indexed == scanned
        # Both detector arms, both balancer arms and unresolved ports occur.
        guards = {(count_by_src_oracle(nib, h) <= cfg.anomaly_threshold,
                   count_by_dest_oracle(nib, cfg.server_a) <= count_by_dest_oracle(nib, cfg.server_b))
                  for nib, h in cases}
        assert len(guards) == 4
        assert any(isinstance(o, tuple) for o in indexed)


def stats_case(flows, probe: Header) -> NIB:
    nib = NIB(Topology(1), (FlowTable(),), tuple(flows))
    check_stats(nib, [probe] + [f.header for f in flows])
    return nib


class TestStatsHandBuilt:
    H = Header.from_fields(nw_src=SOURCES[0], nw_dst=DESTS[0], tp_src=7)

    def test_header_assigned_twice_first_wins(self):
        nib = stats_case([Flow(self.H, SERVERS[0]), Flow(self.H, SERVERS[1])], self.H)
        assert effective_dest_of_header(nib, self.H) == SERVERS[0]
        assert count_by_dest(nib, SERVERS[0]) == count_by_dest(nib, SERVERS[1]) == 1

    def test_unassigned_flow_before_assigned_flow(self):
        nib = stats_case([Flow(self.H), Flow(self.H, SERVERS[1])], self.H)
        assert effective_dest_of_header(nib, self.H) == SERVERS[1]
        assert count_by_dest(nib, DESTS[0]) == 1
        assert count_by_src(nib, self.H) == 2

    def test_header_never_observed(self):
        other = Header.from_fields(nw_src=SOURCES[1], nw_dst=DESTS[2], tp_src=7)
        nib = stats_case([Flow(self.H, SERVERS[0])], other)
        assert effective_dest_of_header(nib, other) == DESTS[2]
        assert count_by_src(nib, other) == 0

    def test_empty_flow_set(self):
        nib = stats_case([], self.H)
        assert effective_dest_of_header(nib, self.H) == DESTS[0]
        assert count_by_src(nib, self.H) == 0
        assert count_by_dest(nib, DESTS[0]) == 0

    def test_server_with_no_load(self):
        nib = stats_case([Flow(self.H, SERVERS[0]), Flow(self.H)], self.H)
        assert count_by_dest(nib, IDLE) == 0
        assert count_by_dest(nib, SERVERS[2]) == 0


# ---------------------------------------------------------------------------
# Normal form

GUARD_POOL = (SourceCountAtMost(2), LoadAtMost(*sampling.ADDRESS_POOL[:2]))


def pooled(rng: random.Random, app: AppTransform, templates) -> AppTransform:
    """The app with every guard drawn from GUARD_POOL and every template
    from `templates`, so that guard sequences collide and merged arms
    can agree with their otherwise arm."""
    def pick(tpls):
        return tuple(rng.choice(templates) for _ in tpls)

    return AppTransform(app.name, app.linear, tuple(
        tuple(GuardedDelta(tuple((rng.choice(GUARD_POOL), pick(t)) for _, t in p.branches),
                           pick(p.default))
              for p in slot)
        for slot in app.translation
    ))


def normal_form_chain(rng: random.Random, stages: int, n: int) -> AppTransform:
    """A composite of random apps, 30% of them pooled, 40% followed by a
    shuffled variant."""
    templates = [sampling.random_template(rng) for _ in range(3)]
    apps = []
    for i in range(stages):
        app = sampling.random_app(rng, n, f"s{i}")
        if rng.random() < 0.3:
            app = pooled(rng, app, templates)
        apps.append(app)
        if rng.random() < 0.4:
            apps.append(sampling.shuffled_variant(rng, app))
    return transforms.chain(apps)


class TestNormalForm:
    def test_matches_merge_pass_fixpoint(self):
        rng = random.Random(6001)
        for _ in range(1500):
            t = normal_form_chain(rng, rng.randint(1, 30), rng.randint(1, 4))
            assert normalize(t) == normalize_oracle(t)

    @pytest.mark.parametrize("stages", [768, 3072])
    def test_long_chains_match_merge_pass_fixpoint(self, stages):
        t = normal_form_chain(random.Random(stages), stages, 3)
        assert normalize(t) == normalize_oracle(t)

    def test_template_keys_are_computed_once(self, monkeypatch):
        calls = Counter()
        canonical_key = transforms._canonical_key

        def counting(t):
            calls[id(t)] += 1
            return canonical_key(t)

        monkeypatch.setattr(transforms, "_canonical_key", counting)
        t = normal_form_chain(random.Random(6002), 192, 3)
        # Unpickled, every template is an equal but distinct object.
        twin = pickle.loads(pickle.dumps(t))
        first, second = normalize(t), normalize(twin)
        assert first == normalize_oracle(t) == second
        placed = [tpl for n in (first, second) for slot in n.translation for p in slot
                  for tpls in [p.default, *(arm for _, arm in p.branches)] for tpl in tpls]
        # Templates recur across arms, pieces and slots, the two normal
        # forms compare template by template, yet each object's key is
        # computed once, and only for objects of the two chains.
        assert len(placed) > len({id(tpl) for tpl in placed})
        assert {id(tpl) for tpl in placed} <= set(calls)
        assert set(calls) <= {id(tpl) for c in (t, twin) for slot in c.translation
                              for p in slot for tpls in [p.default, *(a for _, a in p.branches)]
                              for tpl in tpls}
        assert set(calls.values()) == {1}


def one_field_apart(rng: random.Random, tpl: RuleTemplate) -> RuleTemplate:
    """The template with one field taken from a fresh random template."""
    name = rng.choice([f.name for f in dataclasses.fields(RuleTemplate)])
    return dataclasses.replace(tpl, **{name: getattr(sampling.random_template(rng), name)})


def small_pattern(rng: random.Random) -> MatchPattern:
    """A pattern over few values per field, so exact entries tie, differ
    and face wildcards in every field."""
    return MatchPattern(tuple(rng.choice((None, 0, 1, m)) for m in FIELD_MASKS))


class TestTemplateFacts:
    def test_equality_hash_and_key_agree_with_fields(self):
        rng = random.Random(6101)
        kinds = Counter()
        for _ in range(3000):
            a = sampling.random_template(rng)
            roll = rng.random()
            if roll < 0.3:
                b, kind = copy.deepcopy(a), "copy"  # equal, distinct, no cached facts
            elif roll < 0.7:
                b, kind = one_field_apart(rng, a), "one field"
            else:
                b, kind = sampling.random_template(rng), "fresh"
            want = template_eq_oracle(a, b)
            assert (a == b) is (b == a) is want
            assert (a != b) is not want
            assert (transforms.template_key(a) == transforms.template_key(b)) is want
            if want:
                assert hash(a) == hash(b)
            kinds[kind, want] += 1
        assert kinds["copy", True] and kinds["fresh", False]
        assert kinds["one field", True] and kinds["one field", False] > 500, kinds

    def test_equality_is_not_with_other_types(self):
        tpl = sampling.random_template(random.Random(6102))
        assert tpl != (tpl.match, tpl.out_port, tpl.ttl, tpl.action, tpl.counter)
        assert tpl != transforms.template_key(tpl) and tpl != None  # noqa: E711

    def test_pattern_key_orders_as_the_nested_key(self):
        rng = random.Random(6103)
        for _ in range(300):
            ps = [small_pattern(rng) for _ in range(20)] + [
                sampling.random_pattern(rng) for _ in range(5)]
            assert sorted(ps, key=pattern_key) == sorted(ps, key=pattern_key_oracle)
            for p, q in zip(ps, ps[1:]):
                assert (pattern_key(p) < pattern_key(q)) == (
                    pattern_key_oracle(p) < pattern_key_oracle(q))
                assert (pattern_key(p) == pattern_key(q)) == (p == q)

    def test_table_order_is_the_nested_key_order(self):
        rng = random.Random(6104)
        for _ in range(300):
            rules = [FlowRule(small_pattern(rng), rng.choice((1, 2)), 60,
                              sampling.random_invertible_action(rng)) for _ in range(4)]
            table = FlowTable(FlowEntry(rng.choice(rules), rng.randrange(2)) for _ in range(12))
            assert table.entries == tuple(sorted(table, key=entry_key_oracle))


# ---------------------------------------------------------------------------
# Concrete action decoding

FIELD_NAMES = [f.name for f in FIELDS]

#: One malformed step of each kind the decoder rejects.
MALFORMED_STEPS = (
    {"kind": "modify", "field": "vlan", "delta": 1},  # unknown field
    {"kind": "modify", "field": 3, "delta": 1},  # field index, not a name
    {"kind": "forward", "delta": 1.5},  # float delta
    {"kind": "forward", "delta": True},  # bool delta
    {"kind": "modify", "field": "nw_src"},  # missing delta
    {"kind": "drop", "delta": 0},  # extra key
    {"kind": "seq", "actions": [], "extra": 1},  # extra key
    {"kind": "seq"},  # missing actions
    {"kind": "seq", "actions": 7},  # actions not an array
    {"kind": "jump", "delta": 1},  # unknown kind
    {"delta": 1},  # missing kind
    "forward",  # not an object
)


def random_delta(rng: random.Random) -> int:
    """Small, negative, wider than the port field or wider than every field."""
    return rng.choice((
        rng.randrange(8),
        -rng.randrange(1, 1 << 16),
        rng.randrange(1 << 16, 1 << 32),
        rng.randrange(1 << 48),
        -rng.randrange(1 << 48, 1 << 64),
    ))


def random_action_obj(rng: random.Random, malformed: float, depth: int = 0):
    """A concrete action object; `seq` nests at most 4 deep and may be
    empty, and each step is malformed with probability `malformed`."""
    r = rng.random()
    if r < malformed:
        return rng.choice(MALFORMED_STEPS)
    if depth < 4 and r < 0.45:
        return {"kind": "seq", "actions": [random_action_obj(rng, malformed, depth + 1)
                                           for _ in range(rng.randrange(5))]}
    if r < 0.6:
        return {"kind": "drop"}
    if r < 0.8:
        return {"kind": "forward", "delta": random_delta(rng)}
    return {"kind": "modify", "field": rng.choice(FIELD_NAMES), "delta": random_delta(rng)}


def decoded(decode, obj):
    """The decoded action, or the error's type and message."""
    try:
        return decode(obj, "rule.action")
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


class TestActionDecoder:
    def test_matches_pairwise_compose_on_seeded_objects(self):
        rng = random.Random(7001)
        outcomes = Counter()
        for i in range(20_000):
            obj = random_action_obj(rng, 0.0 if i % 4 else 0.05)
            got = decoded(action_from_obj, obj)
            assert got == decoded(action_from_obj_oracle, obj), obj
            outcomes[type(got) is tuple] += 1
        # both well-formed and malformed objects are compared
        assert outcomes[True] > 600 and outcomes[False] > 15_000

    @pytest.mark.parametrize("obj, expected", [
        ({"kind": "seq", "actions": []}, identity()),
        ({"kind": "seq", "actions": [{"kind": "seq", "actions": []}]}, identity()),
        ({"kind": "seq", "actions": [{"kind": "forward", "delta": 3}, {"kind": "drop"}]},
         drop()),
        ({"kind": "seq", "actions": [{"kind": "drop"}, {"kind": "forward", "delta": 3}]},
         AffineAction((0,) * STATE_SIZE,
                      tuple(3 if i == PORT_SLOT else 0 for i in range(STATE_SIZE)))),
        ({"kind": "forward", "delta": -1}, forward(0xFFFF)),
        ({"kind": "forward", "delta": (1 << 16) + 5}, forward(5)),
        ({"kind": "modify", "field": "nw_tos", "delta": -1}, modify_field("nw_tos", 0xFF)),
        ({"kind": "seq", "actions": [{"kind": "modify", "field": "nw_src", "delta": 1 << 31},
                                     {"kind": "modify", "field": "nw_src", "delta": 1 << 31}]},
         identity()),
    ])
    def test_hand_built(self, obj, expected):
        assert action_from_obj(obj) == expected == action_from_obj_oracle(obj)

    @pytest.mark.parametrize("step", MALFORMED_STEPS)
    def test_malformed_step_inside_seq(self, step):
        obj = {"kind": "seq", "actions": [{"kind": "forward", "delta": 1},
                                          {"kind": "seq", "actions": [step]}]}
        got = decoded(action_from_obj, obj)
        assert type(got) is tuple
        assert got == decoded(action_from_obj_oracle, obj)


# ---------------------------------------------------------------------------
# Template actions


def random_target(rng: random.Random, field: str):
    """A set_field target: near the pool, anywhere in the field, or a
    deferred pick of two such servers (a target or a server outside its
    field cannot be built)."""
    width = FIELDS[FIELD_INDEX[field]].width

    def near():
        return rng.choice(sampling.ADDRESS_POOL) if width == 32 else rng.randrange(8)

    return rng.choice((near(), rng.randrange(1 << width), PickLessLoaded(near(), near())))


def random_template_action(rng: random.Random, depth: int = 0):
    """A template action; `seq` nests at most 4 deep and may be empty,
    and ports may not resolve."""
    r = rng.random()
    if depth < 4 and r < 0.35:
        return Seq(tuple(random_template_action(rng, depth + 1)
                         for _ in range(rng.randrange(5))))
    if r < 0.5:
        return sampling.random_action_spec(rng)
    if r < 0.6:
        return Drop()
    if r < 0.7:
        port = PortName("nope") if rng.random() < 0.6 else sampling.random_port_ref(rng)
        return Forward(port)
    # a few fields, so that one field is often set twice
    field = rng.choice(("nw_dst", "nw_dst", "nw_src", "tp_dst", rng.choice(FIELD_NAMES)))
    return SetField(field, random_target(rng, field))


def flat_steps(spec):
    if isinstance(spec, Seq):
        for step in spec.steps:
            yield from flat_steps(step)
    else:
        yield spec


def oracle_is_exact(spec) -> bool:
    """No set_field after a drop or after a set_field of the same field:
    the specs on which taking every delta from the steered header is right."""
    dropped, fields = False, set()
    for step in flat_steps(spec):
        if isinstance(step, Drop):
            dropped = True
        elif isinstance(step, SetField):
            if dropped or step.field in fields:
                return False
            fields.add(step.field)
    return True


def run_steps(spec, nib: NIB, h: Header, state: list[int]) -> list[int]:
    """The rule state after running the steps one by one."""
    for step in flat_steps(spec):
        if isinstance(step, Drop):
            state = [0] * STATE_SIZE
        elif isinstance(step, Forward):
            state[PORT_SLOT] = (state[PORT_SLOT] + resolve_port(step.port, nib, h)) & PORT_MASK
        else:
            state[FIELD_INDEX[step.field]] = resolve_value(step.to, nib)
    return state


def template_nib(rng: random.Random) -> NIB:
    return sampling.random_nib(rng, sampling.random_topology(rng, 1), max_entries=0)


def template_header(rng: random.Random) -> Header:
    h = sampling.random_header(rng)
    if rng.random() < 0.1:  # a destination with no server port
        return Header(h.values[:7] + (rng.randrange(1 << 32),) + h.values[8:])
    return h


def template_action(spec, nib: NIB, h: Header) -> AffineAction:
    """The action `Instances` builds for a template with action `spec`."""
    tpl = RuleTemplate(InputHeader(), PortNumber(0), 0, spec)
    return transforms.Instances(nib, h).build(tpl).rule.action


class TestTemplateActions:
    def test_fold_matches_pairwise_compose_on_seeded_specs(self):
        rng = random.Random(7002)
        nibs = [template_nib(rng) for _ in range(40)]
        outcomes = Counter()
        for _ in range(20_000):
            spec, nib, h = random_template_action(rng), rng.choice(nibs), template_header(rng)
            got = decoded(lambda s, _: template_action(s, nib, h), spec)
            want = decoded(lambda s, _: build_action_oracle(s, nib, h), spec)
            exact = oracle_is_exact(spec)
            if type(got) is tuple or exact:
                assert got == want, spec
            if type(got) is not tuple:
                port, ttl = rng.randrange(1 << 16), rng.randrange(1 << 16)
                state = RuleState(h, port, ttl)
                assert apply_action(got, state).vector() == tuple(
                    run_steps(spec, nib, h, list(state.vector()))), spec
            outcomes[exact, type(got) is tuple] += 1
        # exact and inexact specs, actions and errors are all compared
        assert min(outcomes.values()) > 1_000, outcomes


# ---------------------------------------------------------------------------
# Behavioural diff and composition


def linear_app(rng: random.Random, n: int, name: str) -> AppTransform:
    """An app with a random 0/1 linear part and up to two random pieces
    per slot; `sampling.random_app` only builds identity rows."""
    linear = tuple(tuple(j for j in range(n) if rng.random() < 0.4) for _ in range(n))
    return AppTransform(name, linear, tuple(
        tuple(sampling.random_delta(rng) for _ in range(rng.randrange(3))) for _ in range(n)))


def random_stage(rng: random.Random, n: int, name: str) -> AppTransform:
    if rng.random() < 0.2:
        return linear_app(rng, n, name)
    return sampling.random_app(rng, n, name)


def with_templates(rng: random.Random, app: AppTransform, edit) -> AppTransform:
    """The app with one arm of one piece replaced by `edit(rng, arm)`;
    an app with no pieces is returned as is."""
    placed = [(i, k) for i, slot in enumerate(app.translation) for k in range(len(slot))]
    if not placed:
        return app
    i, k = rng.choice(placed)
    piece = app.translation[i][k]
    arm = rng.randrange(len(piece.branches) + 1)
    if arm == len(piece.branches):
        piece = GuardedDelta(piece.branches, edit(rng, piece.default))
    else:
        branches = list(piece.branches)
        guard, tpls = branches[arm]
        branches[arm] = (guard, edit(rng, tpls))
        piece = GuardedDelta(tuple(branches), piece.default)
    slot = app.translation[i][:k] + (piece,) + app.translation[i][k + 1:]
    return AppTransform(app.name + "~", app.linear,
                        app.translation[:i] + (slot,) + app.translation[i + 1:])


def one_template(rng: random.Random, tpls):
    """Replace one template by a fresh one, or add one to an empty arm."""
    fresh = sampling.random_template(rng)
    if not tpls:
        return (fresh,)
    j = rng.randrange(len(tpls))
    return tpls[:j] + (fresh,) + tpls[j + 1:]


def inverse_pair(rng: random.Random, tpls):
    """Add two templates whose entries cancel: equal match, port and ttl,
    forwards by p and by -p, so the tables differ but their reductions
    need not."""
    p = rng.randrange(1, 1 << 16)
    base = sampling.random_template(rng)
    return tpls + tuple(RuleTemplate(base.match, PortName("p0"), base.ttl, Forward(PortNumber(d)))
                        for d in (p, -p & PORT_MASK))


EDITS = {"one template": one_template, "inverse pair": inverse_pair}


def partner(rng: random.Random, stages: list[AppTransform]) -> tuple[str, list[AppTransform]]:
    """A congruent shuffle of the chain, or the chain with one stage edited."""
    kind = rng.choice(("shuffled", *EDITS))
    if kind == "shuffled":
        return kind, [sampling.shuffled_variant(rng, s) for s in stages]
    k = rng.randrange(len(stages))
    return kind, stages[:k] + [with_templates(rng, stages[k], EDITS[kind])] + stages[k + 1:]


def diff_outcome(diff, a, b, scenarios):
    """The counterexamples, or the error's type and message."""
    try:
        return diff(a, b, scenarios)
    except FlowspaceError as exc:
        return type(exc), str(exc)


def slot_selections(t: AppTransform, nib: NIB, h: Header) -> list[set]:
    """Each slot's set of selected templates."""
    return [{tpl for piece in slot for tpl in transforms.select_templates(piece, nib, h)}
            for slot in t.translation]


def built_slots(ta: AppTransform, tb: AppTransform, sa: list[set], sb: list[set]) -> list[int]:
    """The slots whose rows or selected template sets differ: the only
    slots where `behavioral_diff` builds tables."""
    return [i for i in range(ta.dimension) if ta.linear[i] != tb.linear[i] or sa[i] != sb[i]]


def diff_case(rng: random.Random, topology: Topology):
    n = topology.switch_count
    stages = [random_stage(rng, n, f"s{i}") for i in range(rng.randint(1, 6))]
    kind, other = partner(rng, stages)
    scenarios = [sampling.random_scenario(rng, topology) for _ in range(3)]
    return kind, transforms.chain(stages), transforms.chain(other), scenarios


class TestBehavioralDiff:
    def test_matches_separate_applies_on_seeded_pairs(self):
        rng = random.Random(8001)
        topologies = [sampling.random_topology(rng, n) for n in (1, 2, 3, 4)]
        kinds, slots = Counter(), Counter()
        for _ in range(1200):
            kind, ta, tb, scenarios = diff_case(rng, rng.choice(topologies))
            got = analysis.behavioral_diff(ta, tb, scenarios)
            assert got == behavioral_diff_oracle(ta, tb, scenarios)
            kinds[kind, bool(got)] += 1
            if kind == "shuffled":
                assert got == []
            for nib, h in scenarios:
                ra, rb = (transforms.apply_transform(t, nib, h) for t in (ta, tb))
                assert ra == apply_transform_oracle(ta, nib, h)
                assert rb == apply_transform_oracle(tb, nib, h)
                for x, y in zip(ra.tables, rb.tables):
                    slots[x == y, reduce(x) == reduce(y)] += 1
        # A changed template may or may not show; an added inverse pair
        # is erased by reduction.  Slots are equal, differ only before
        # reduction, and differ after it.
        assert kinds["one template", True] and kinds["one template", False]
        assert kinds["inverse pair", False]
        assert min(slots[True, True], slots[False, True], slots[False, False]) > 100, slots

    def test_unresolved_ports_raise_as_separate_applies(self):
        rng = random.Random(8002)
        # Half the port names and no server ports for half the pool.
        topologies = [Topology(n, {name: i + 1 for i, name in enumerate(sampling.PORT_NAMES[:3])},
                               {a: 1 for a in sampling.ADDRESS_POOL[:4]}) for n in (1, 2, 3)]
        raised, read = Counter(), Counter()
        for _ in range(1000):
            kind, ta, tb, scenarios = diff_case(rng, rng.choice(topologies))
            got = diff_outcome(analysis.behavioral_diff, ta, tb, scenarios)
            # Every error is raised by the call: reading a witness's
            # results raises nothing, also where a lookup of the first
            # composite fails in a template that is not selected.
            for w in got if type(got) is list else ():
                w.result_a, w.result_b
                nib, h = scenarios[w.index]
                read[transforms.lookups_resolve(ta, nib, h)] += 1
            assert got == diff_outcome(behavioral_diff_oracle, ta, tb, scenarios)
            if type(got) is tuple:
                first = diff_outcome(behavioral_diff_oracle, ta, ta, scenarios)
                where = "first" if first == got else "second only"
                raised[where, got[1].split(" ")[1]] += 1
        # Both kinds of unresolved port, in the first transform and in the
        # second only.
        assert {("first", "port"), ("first", "server"),
                ("second only", "port"), ("second only", "server")} <= set(raised), raised
        assert read[True] and read[False], read

    def test_error_in_second_transform_only(self):
        topology = Topology(1, {"p0": 1}, {sampling.ADDRESS_POOL[0]: 1})
        nib = NIB(topology, (FlowTable(),))
        h = Header.from_fields(nw_dst=sampling.ADDRESS_POOL[1])
        good = RuleTemplate(InputHeader(), PortName("p0"), 60, Drop())
        ta = make_app("a", 0, unconditional([good]), 1)
        for bad, message in ((RuleTemplate(InputHeader(), PortName("p9"), 60, Drop()),
                              "no port named 'p9' in topology"),
                             (RuleTemplate(InputHeader(), DestPort(), 60, Drop()),
                              f"no server port for destination {sampling.ADDRESS_POOL[1]}")):
            tb = make_app("b", 0, unconditional([good, bad]), 1)
            for diff in (analysis.behavioral_diff, behavioral_diff_oracle):
                assert diff_outcome(diff, ta, tb, [(nib, h)]) == (UnresolvedPortError, message)
                # the failing transform first: the same error
                assert diff_outcome(diff, tb, ta, [(nib, h)]) == (UnresolvedPortError, message)

    def test_unequal_linear_parts_on_seeded_pairs(self, monkeypatch):
        # The partner's linear part has one entry flipped, so some slot's
        # rows differ and every scenario builds that slot: each distinct
        # template the two select in the slots whose rows or template sets
        # differ is built once, and a slot's reductions are compared only
        # when its two tables differ, never by reducing whole tables.
        # Reading a witness's results builds the first composite's other
        # distinct templates, once each.
        rng = random.Random(8006)
        # One topology lacks a port name and two server ports.
        topologies = [sampling.random_topology(rng, n) for n in (1, 2, 3)] + [
            Topology(2, {name: i + 1 for i, name in enumerate(sampling.PORT_NAMES[:5])},
                     {a: 1 for a in sampling.ADDRESS_POOL[:6]})]
        calls = Counter()

        def counting(name, f):
            def wrapped(*args):
                calls[name] += 1
                return f(*args)
            return wrapped

        monkeypatch.setattr(transforms.Instances, "build",
                            counting("build", transforms.Instances.build))
        monkeypatch.setattr(analysis, "reductions_equal",
                            counting("reductions_equal", tables.reductions_equal))
        monkeypatch.setattr(tables, "reduce", counting("reduce", reduce))
        # `analysis` binds no `reduce` of its own that the patch above would miss.
        assert not hasattr(analysis, "reduce")
        outcomes = Counter()
        for _ in range(300):
            _, ta, tb, scenarios = diff_case(rng, rng.choice(topologies))
            tb = flipped(rng, tb)
            assert diff_outcome(analysis.behavioral_diff, ta, tb, scenarios) == diff_outcome(
                behavioral_diff_oracle, ta, tb, scenarios)
            for nib, h in scenarios:
                calls.clear()
                got = diff_outcome(analysis.behavioral_diff, ta, tb, [(nib, h)])
                built, compared = calls["build"], calls["reductions_equal"]
                assert calls["reduce"] == 0
                outcomes["error" if type(got) is tuple else bool(got)] += 1
                if type(got) is tuple:
                    continue
                sa, sb = slot_selections(ta, nib, h), slot_selections(tb, nib, h)
                ra, rb = (apply_transform_oracle(t, nib, h) for t in (ta, tb))
                picked = set().union(*(sa[i] | sb[i] for i in built_slots(ta, tb, sa, sb)))
                assert built == len(picked)
                assert compared == sum(x != y for x, y in zip(ra.tables, rb.tables))
                for w in got:
                    w.result_a
                    assert calls["build"] - built == len(set().union(*sa) - picked)
                    assert (w.result_a, w.result_b) == (ra, rb)
        assert min(outcomes[True], outcomes[False], outcomes["error"]) > 50, outcomes

    def test_slot_count_mismatch_raises_before_instantiation(self):
        # Both selections come before any template is built, so a second
        # composite with the wrong slot count raises even where applying
        # the first would fail on a port.
        topology = Topology(1, {"p0": 1})
        nib, h = NIB(topology, (FlowTable(),)), Header.from_fields()
        bad = RuleTemplate(InputHeader(), PortName("p9"), 60, Drop())
        ta = make_app("a", 0, unconditional([bad]), 1)
        tb = transforms.identity_transform(2)
        assert diff_outcome(analysis.behavioral_diff, ta, tb, [(nib, h)]) == (
            DimensionMismatchError, "transform has 2 slots, topology has 1 switches")
        assert diff_outcome(behavioral_diff_oracle, ta, tb, [(nib, h)]) == (
            UnresolvedPortError, "no port named 'p9' in topology")

    def test_skip_raises_as_apply(self, monkeypatch):
        # Both composites select the same failing templates, in another
        # order, so the scenario takes the skip path; it must still raise
        # what an apply of the first composite raises.
        topology = Topology(1, {"p0": 1}, {sampling.ADDRESS_POOL[0]: 1})
        nib = NIB(topology, (FlowTable(),))
        h = Header.from_fields(nw_dst=sampling.ADDRESS_POOL[1])
        good = RuleTemplate(InputHeader(), PortName("p0"), 60, Forward(PortNumber(2)))
        unknown_out = RuleTemplate(InputHeader(), PortName("p9"), 60, Drop())
        unknown_nested = RuleTemplate(InputHeader(), PortNumber(1), 60, Seq(
            (Drop(), Seq((SetField("nw_tos", 3), Forward(PortName("p8")))))))
        no_server = RuleTemplate(InputHeader(), DestPort(), 60, Drop())
        cases = [
            (unknown_out, (UnresolvedPortError, "no port named 'p9' in topology")),
            (unknown_nested, (UnresolvedPortError, "no port named 'p8' in topology")),
            (no_server, (UnresolvedPortError,
                         f"no server port for destination {sampling.ADDRESS_POOL[1]}")),
        ]
        runs = []
        for (bad, message), (other, other_message) in zip(cases, cases[1:] + cases[:1]):
            # One failing template, and two in either order: the first
            # composite's apply order decides which error is raised.
            for first, second, want in (([good, bad], [bad, good], message),
                                        ([bad, good, other], [other, good, bad], message),
                                        ([other, good, bad], [bad, other, good], other_message)):
                ta = make_app("a", 0, unconditional(first), 1)
                tb = make_app("b", 0, guarded([(SourceCountAtMost(0), second)], second), 1)
                assert transforms.selections(ta, nib, h) != transforms.selections(tb, nib, h)
                assert outcome(ta, nib, h) == want
                assert diff_outcome(behavioral_diff_oracle, ta, tb, [(nib, h)]) == want
                runs.append((ta, tb, want))

        def applied(*args):
            raise AssertionError("a scenario whose selections agree was applied")

        monkeypatch.setattr(transforms, "Instances", applied)
        for ta, tb, want in runs:
            assert diff_outcome(analysis.behavioral_diff, ta, tb, [(nib, h)]) == want

    def test_one_instantiation_per_distinct_template(self, monkeypatch):
        # A scenario whose composites have equal linear parts and select
        # equal template sets in every slot builds no entry; any other
        # builds one per distinct template the two select in the slots
        # whose rows or template sets differ.  Reading a witness's
        # results builds the first composite's other distinct templates.
        rng = random.Random(8003)
        topology = sampling.random_topology(rng, 3)
        cases = [diff_case(rng, topology) for _ in range(200)]
        expected = [behavioral_diff_oracle(ta, tb, sc) for _, ta, tb, sc in cases]
        calls = Counter()
        build = transforms.Instances.build

        def counting(inst, tpl):
            calls["build"] += 1
            return build(inst, tpl)

        monkeypatch.setattr(transforms.Instances, "build", counting)
        want_calls, distinct, agreeing, read = 0, 0, Counter(), Counter()
        for (_, ta, tb, scenarios), want in zip(cases, expected):
            assert analysis.behavioral_diff(ta, tb, scenarios) == want
            for nib, h in scenarios:
                sa, sb = slot_selections(ta, nib, h), slot_selections(tb, nib, h)
                agree = ta.linear == tb.linear and sa == sb
                picked = set().union(*(sa[i] | sb[i] for i in built_slots(ta, tb, sa, sb)))
                before = calls["build"]
                got = analysis.behavioral_diff(ta, tb, [(nib, h)])
                assert calls["build"] - before == len(picked)
                assert not (agree and picked)
                want_calls += len(picked)
                for w in got:
                    before = calls["build"]
                    w.result_b
                    rest = len(set().union(*sa) - picked)
                    assert calls["build"] - before == rest
                    want_calls += rest
                    read[rest > 0] += 1
                distinct += len(set().union(*sa, *sb))
                agreeing[agree] += 1
        assert agreeing[True] and agreeing[False], agreeing
        # Some witnesses build nothing more when read, some do.
        assert read[True] and read[False], read
        # Every call above ran twice, once in its case and once on its
        # own, and every witness was read both times.
        assert calls["build"] == 2 * want_calls
        placed = sum(len(tpls) for _, ta, tb, sc in cases for nib, h in sc for t in (ta, tb)
                     for slot in t.translation for piece in slot
                     for tpls in [transforms.select_templates(piece, nib, h)])
        assert want_calls < distinct < placed

    def test_equal_slots_are_not_reduced(self, monkeypatch):
        # Reductions are compared once per slot whose two tables differ.
        rng = random.Random(8004)
        topology = sampling.random_topology(rng, 3)
        reduced = Counter()

        def counting(x, y):
            reduced["reduce"] += 1
            return tables.reductions_equal(x, y)

        monkeypatch.setattr(analysis, "reductions_equal", counting)
        unequal = 0
        for _ in range(200):
            kind, ta, tb, scenarios = diff_case(rng, topology)
            before = reduced["reduce"]
            analysis.behavioral_diff(ta, tb, scenarios)
            if kind == "shuffled":
                assert reduced["reduce"] == before  # every slot table is equal
            unequal += sum(x != y for nib, h in scenarios
                           for x, y in zip(*(transforms.apply_transform(t, nib, h).tables
                                             for t in (ta, tb))))
        assert reduced["reduce"] == unequal > 0


class TestLazyWitness:
    """A witness builds its results on first read, and until then acts
    as one built with them."""

    @staticmethod
    def cases() -> list:
        """Seeded pairs with witnesses, and the oracle's eager witnesses."""
        rng = random.Random(8008)
        topology = sampling.random_topology(rng, 3)
        found = []
        while len(found) < 25:
            _, ta, tb, scenarios = diff_case(rng, topology)
            want = behavioral_diff_oracle(ta, tb, scenarios)
            if want:
                found.append(((ta, tb, scenarios), want))
        return found

    @staticmethod
    def unread(args, k: int) -> analysis.Counterexample:
        w = analysis.behavioral_diff(*args)[k]
        assert not isinstance(vars(w)["result_a"], NIB)
        return w

    def test_fields_are_the_eager_ones(self):
        fields = dataclasses.fields(analysis.Counterexample)
        assert [f.name for f in fields] == [
            "index", "header", "result_a", "result_b", "differing_slots"]
        assert all(f.default is dataclasses.MISSING for f in fields)
        w = self.cases()[0][1][0]
        eager = analysis.Counterexample(w.index, w.header, w.result_a, w.result_b,
                                        w.differing_slots)
        assert vars(eager)["result_a"] is w.result_a and eager == w

    def test_equals_an_eager_witness_in_both_orders(self):
        for args, want in self.cases():
            for k, eager in enumerate(want):
                assert self.unread(args, k) == eager
                assert eager == self.unread(args, k)
                assert not self.unread(args, k) != eager
            assert analysis.behavioral_diff(*args) == want

    def test_replace_repr_copy_and_pickle_as_an_eager_witness(self):
        round_trips = (copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w)))
        for args, want in self.cases():
            for k, eager in enumerate(want):
                for change in ({"differing_slots": eager.differing_slots + (99,)},
                               {"index": eager.index + 1}, {}):
                    moved = dataclasses.replace(self.unread(args, k), **change)
                    assert moved == dataclasses.replace(eager, **change)
                assert repr(self.unread(args, k)) == repr(eager)
                for trip in round_trips:
                    # A copy holds both results, not what builds them.
                    got, same = trip(self.unread(args, k)), trip(eager)
                    assert type(got) is analysis.Counterexample
                    assert isinstance(vars(got)["result_a"], NIB)
                    assert isinstance(vars(got)["result_b"], NIB)
                    assert got == eager == same
                    assert vars(got) == vars(eager) == vars(same)

    def test_results_are_built_once_and_kept(self):
        for args, want in self.cases():
            for k, eager in enumerate(want):
                for first, second in (("result_a", "result_b"), ("result_b", "result_a")):
                    w = self.unread(args, k)
                    x = getattr(w, first)
                    assert isinstance(vars(w)[second], NIB)
                    y = getattr(w, second)
                    assert getattr(w, first) is x and getattr(w, second) is y
                    assert (x, y) == (getattr(eager, first), getattr(eager, second))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    w.result_a = eager.result_a


def recording_resolve_port(monkeypatch, module=transforms) -> list:
    """Record every port reference `module` resolves, in order."""
    resolved = []

    def recording(ref, nib, h):
        resolved.append(ref)
        return resolve_port(ref, nib, h)

    monkeypatch.setattr(module, "resolve_port", recording)
    return resolved


class TestCheckInstantiable:
    def test_literal_ports_are_never_resolved_on_a_skip(self, monkeypatch):
        # The composites select the same templates in another order, so
        # the scenario is skipped after the check: a template whose ports
        # are all `PortNumber`s needs no lookup, a named port does.
        topology = Topology(1, {"p0": 1}, {sampling.ADDRESS_POOL[0]: 1})
        nib = NIB(topology, (FlowTable(),))
        h = Header.from_fields(nw_dst=sampling.ADDRESS_POOL[0])
        literal = RuleTemplate(InputHeader(), PortNumber(1), 60, Seq(
            (Forward(PortNumber(2)), SetField("nw_tos", 3), Seq((Forward(PortNumber(4)),)))))
        drop_only = RuleTemplate(MatchPattern.wildcard(), PortNumber(7), 30, Drop())
        named = RuleTemplate(InputHeader(), PortNumber(1), 60,
                             Seq((Forward(PortNumber(2)), Forward(PortName("p0")))))
        at_dest = RuleTemplate(InputHeader(), DestPort(), 60, Forward(PortNumber(3)))
        resolved = recording_resolve_port(monkeypatch)
        for templates, want in (([literal], []),
                                ([literal, drop_only], []),
                                ([literal, named, drop_only], [PortName("p0")]),
                                ([at_dest, literal, named], [DestPort(), PortName("p0")])):
            ta = make_app("a", 0, unconditional(templates), 1)
            tb = make_app("b", 0, unconditional(templates[::-1]), 1)
            resolved.clear()
            assert analysis.behavioral_diff(ta, tb, [(nib, h)]) == []
            assert resolved == want

    def test_lookups_are_the_applys_in_its_order(self, monkeypatch):
        # On seeded templates whose ports may not resolve, the check
        # resolves exactly the names and destination ports that
        # instantiation resolves, out port first and then each `Forward`
        # in step order, and fails with the same error at the same one.
        # Instantiation resolves no literal port: its plan holds the int.
        rng = random.Random(8101)
        topology = Topology(1, {name: 1 for name in sampling.PORT_NAMES[:3]},
                            {a: 1 for a in sampling.ADDRESS_POOL[:4]})
        resolved = recording_resolve_port(monkeypatch)
        outcomes = Counter()
        for _ in range(3000):
            tpl = RuleTemplate(InputHeader(), sampling.random_port_ref(rng), 60,
                               random_template_action(rng))
            nib = NIB(topology, (FlowTable(),))
            h = Header.from_fields(nw_dst=rng.choice(sampling.ADDRESS_POOL))
            resolved.clear()
            built = outcome_of(lambda: transforms.Instances(nib, h).entry(tpl))
            applied = list(resolved)
            assert not any(isinstance(ref, PortNumber) for ref in applied)
            resolved.clear()
            checked = outcome_of(lambda: transforms.check_instantiable([tpl], nib, h))
            assert resolved == applied
            assert checked == (built if type(built) is tuple else None)
            outcomes[checked[1].split(" ")[1] if checked else "ok", len(applied) > 1] += 1
        assert min(outcomes.values()) > 15 and len(outcomes) == 6, outcomes


# ---------------------------------------------------------------------------
# Instantiation plans


def plan_template(rng: random.Random) -> RuleTemplate:
    """A seeded template: `sampling.random_template`, or one whose action
    nests `seq`s, drops, sets a field after a drop or twice, or picks a
    server, and whose out port may be a name no topology has."""
    if rng.random() < 0.3:
        return sampling.random_template(rng)
    match = InputHeader() if rng.random() < 0.5 else sampling.random_pattern(rng)
    out = PortName("nope") if rng.random() < 0.1 else sampling.random_port_ref(rng)
    return RuleTemplate(match, out, rng.choice(sampling.TTL_POOL),
                        random_template_action(rng), rng.choice((0, 0, 2)))


class TestInstantiationPlans:
    def test_entries_match_the_recursive_instantiation(self, monkeypatch):
        # Half the port names and server ports are missing, so out ports,
        # `Forward` ports and `DestPort`s fail as often as they resolve;
        # flows move the load that a `PickLessLoaded` reads.
        rng = random.Random(8201)
        topology = Topology(2, *PARTIAL_PORTS)
        nibs = [NIB(topology, (FlowTable(), FlowTable()), sampling.random_flows(rng))
                for _ in range(20)]
        planned = recording_resolve_port(monkeypatch)
        rebuilt = recording_resolve_port(monkeypatch, oracles)
        outcomes = Counter()
        for _ in range(4000):
            tpl, nib, h = plan_template(rng), rng.choice(nibs), sampling.random_header(rng)
            planned.clear()
            rebuilt.clear()
            got = outcome_of(lambda: transforms.Instances(nib, h).entry(tpl))
            want = outcome_of(lambda: instantiate(tpl, nib, h))
            assert got == want, tpl
            # The plan holds literal ports as ints; every other lookup is
            # made, in the same order.
            assert planned == [ref for ref in rebuilt if not isinstance(ref, PortNumber)], tpl
            if type(got) is not tuple:  # built again from the kept plan
                assert transforms.Instances(nib, h).build(tpl) == got
                assert got.rule.match == (MatchPattern(h.values) if tpl.match == InputHeader()
                                          else tpl.match)
            steps = list(flat_steps(tpl.action))
            outcomes["error" if type(got) is tuple else "entry",
                     any(isinstance(s, SetField) and isinstance(s.to, PickLessLoaded)
                         for s in steps), oracle_is_exact(tpl.action)] += 1
        assert len(outcomes) == 8 and min(outcomes.values()) > 40, outcomes

    def test_errors_name_the_first_failing_lookup(self):
        # The out port is looked up before any `Forward`, and a nested
        # `Forward` after a drop still is.
        topology = Topology(1, {"p0": 1}, {sampling.ADDRESS_POOL[0]: 2})
        nib, h = NIB(topology, (FlowTable(),)), Header.from_fields(nw_dst=sampling.ADDRESS_POOL[1])
        no_server = f"no server port for destination {sampling.ADDRESS_POOL[1]}"
        for out, action, message in (
                (PortName("p8"), Forward(PortName("p9")), "no port named 'p8' in topology"),
                (DestPort(), Forward(PortName("p9")), no_server),
                (PortNumber(3), Seq((Drop(), Seq((Forward(PortName("p9")),)))),
                 "no port named 'p9' in topology"),
                (PortName("p0"), Seq((SetField("nw_dst", 7), Forward(DestPort()))), no_server)):
            tpl = RuleTemplate(InputHeader(), out, 60, action)
            for build in (lambda: transforms.Instances(nib, h).entry(tpl),
                          lambda: instantiate(tpl, nib, h)):
                assert outcome_of(build) == (UnresolvedPortError, message)

    def test_plan_is_kept_outside_equality_hash_repr_and_pickling(self):
        rng = random.Random(8202)
        topology = sampling.random_topology(rng, 1)  # every port resolves
        nib, h = NIB(topology, (FlowTable(),)), sampling.random_header(rng)
        for _ in range(300):
            tpl = sampling.random_template(rng)
            fresh = dataclasses.replace(tpl)
            hash(tpl)
            facts = tpl._facts  # hashing derives the plan with the key
            assert len(facts) == 3 and facts[2] is not None and fresh._facts is None
            entry = transforms.Instances(nib, h).entry(tpl)
            assert repr(tpl) == repr(fresh)
            assert tpl == fresh and fresh == tpl and hash(tpl) == hash(fresh)
            data = pickle.dumps(tpl)
            loaded = pickle.loads(data)
            assert b"_facts" not in data and loaded._facts is None and loaded == tpl
            assert transforms.Instances(nib, h).entry(loaded) == entry
            # written once: instantiations read the kept facts in place
            assert transforms.Instances(nib, h).entry(tpl) == entry
            assert transforms.Instances(nib, h).build(tpl) == entry
            assert tpl._facts is facts

    def test_the_action_is_walked_once_per_template(self, monkeypatch):
        # One hash and two builds, resolved or not, walk each template's
        # action for its plan once: as many `_plan_steps` calls as the
        # action has nodes, nested `seq`s included.
        rng = random.Random(8203)
        nib = NIB(Topology(1, *PARTIAL_PORTS), (FlowTable(),))
        h = sampling.random_header(rng)
        calls = []
        plan_steps = transforms._plan_steps
        monkeypatch.setattr(transforms, "_plan_steps",
                            lambda spec: calls.append(spec) or plan_steps(spec))
        for _ in range(300):
            tpl = plan_template(rng)
            calls.clear()
            hash(tpl)
            for _ in range(2):
                outcome_of(lambda: transforms.Instances(nib, h).build(tpl))
            assert len(calls) == action_nodes(tpl.action) and calls[0] is tpl.action, tpl


def action_nodes(spec) -> int:
    """The number of specs in an action tree, `seq`s included."""
    return 1 + sum(map(action_nodes, spec.steps)) if isinstance(spec, Seq) else 1


def checked_parts(e: FlowEntry) -> list:
    """The entry's pattern, action, rule and entry, each built anew
    through its checking constructor."""
    r, a = e.rule, e.rule.action
    match, action = MatchPattern(r.match.entries), AffineAction(a.linear, a.translation)
    rule = FlowRule(match, r.out_port, r.ttl, action)
    return [match, action, rule, FlowEntry(rule, e.counter)]


class TestCheckedParts:
    def test_built_values_equal_the_checked_constructors(self):
        # Every port resolves, so each template builds an entry; flows
        # move the load that a `PickLessLoaded` reads.
        rng = random.Random(8301)
        nib = NIB(sampling.random_topology(rng, 1), (FlowTable(),),
                  sampling.random_flows(rng))
        kinds = Counter()
        for _ in range(600):
            tpl = plan_template(rng)
            if tpl.out_port == PortName("nope") or any(
                    isinstance(s, Forward) and s.port == PortName("nope")
                    for s in flat_steps(tpl.action)):
                continue
            h = sampling.random_header(rng)
            e = transforms.Instances(nib, h).entry(tpl)
            built = [e.rule.match, e.rule.action, e.rule, e]
            for got, want in zip(built, checked_parts(e)):
                hash(got)  # kept where the type keeps its hash
                for value in (got, copy.copy(got), copy.deepcopy(got),
                              dataclasses.replace(got)):
                    assert value == want and want == value
                    assert hash(value) == hash(want) and repr(value) == repr(want)
            moved = dataclasses.replace(e, counter=e.counter + 1)
            assert moved == FlowEntry(e.rule, e.counter + 1)
            assert hash(moved) == hash(FlowEntry(e.rule, e.counter + 1)) != hash(e)
            steps = list(flat_steps(tpl.action))
            kinds["exact" if isinstance(tpl.match, InputHeader) else "wildcard"] += 1
            kinds["drop" if not any(e.rule.action.linear) else "kept"] += 1
            kinds.update(type(s).__name__ for s in steps)
            kinds.update(type(s.to).__name__ for s in steps if isinstance(s, SetField))
            kinds["DestPort"] += isinstance(tpl.out_port, DestPort) or any(
                isinstance(s, Forward) and isinstance(s.port, DestPort) for s in steps)
        assert min(kinds[k] for k in ("exact", "wildcard", "drop", "kept", "Drop", "Forward",
                                      "SetField", "PickLessLoaded", "DestPort")) > 20, kinds

    def test_exact_pattern_equals_the_checked_pattern(self):
        rng = random.Random(8302)
        for _ in range(200):
            h = sampling.random_header(rng)
            got, want = MatchPattern.exact_for(h), MatchPattern(h.values)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


#: The dataclasses that keep an instance dict: `NIB`, `AppTransform` and
#: `ServiceChain` for their `cached_property`s, `Counterexample` for the
#: results it builds on first read.
DICT_TYPES = {"NIB", "AppTransform", "ServiceChain", "Counterexample"}


def package_dataclasses() -> list[type]:
    """Every dataclass that a flowspace module defines."""
    found = []
    for path in sorted(Path(flowspace.__file__).parent.glob("*.py")):
        if not path.stem.startswith("__"):
            module = importlib.import_module(f"flowspace.{path.stem}")
            found += [v for v in vars(module).values() if isinstance(v, type)
                      and dataclasses.is_dataclass(v) and v.__module__ == module.__name__]
    return found


def held_values(roots) -> Iterator:
    """Every dataclass value the roots are or hold, each once."""
    seen, stack = set(), list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if dataclasses.is_dataclass(x):
            yield x
            stack += [getattr(x, f.name) for f in dataclasses.fields(x)]
        elif isinstance(x, (tuple, list, frozenset, FlowTable)):
            stack += list(x)
        elif isinstance(x, dict):
            stack += list(x.values())


def seeded_roots(rng: random.Random) -> list:
    """Seeded values of every flowspace dataclass, or values that hold
    them: scenarios, transforms, analyses' reports, and entries built from
    templates through the trusted builders."""
    roots: list = [FIELDS, casestudy.CaseStudyConfig(), casestudy.build_scenario(),
                   axioms.run_suite(seed=rng.randrange(1000), cases=5)]
    for _ in range(30):
        topology = sampling.random_topology(rng)
        n = topology.switch_count
        nib = NIB(topology, tuple(sampling.random_collision_table(rng, 12) for _ in range(n)),
                  sampling.random_flows(rng))
        h = sampling.random_header(rng)
        a = sampling.random_app(rng, n, "a")
        b = sampling.shuffled_variant(rng, a) if rng.random() < 0.5 else \
            sampling.random_app(rng, n, "b")
        old = next(iter(nib.tables[0]), None)
        request = (FlowModRequest("add", 0, sampling.random_rule(rng)) if old is None else
                   FlowModRequest("modify", 0, sampling.random_rule(rng), old.rule))
        state = RuleState(h, rng.randint(0, PORT_MASK), rng.choice(sampling.TTL_POOL))
        roots += [nib, h, analysis.check_congruence(a, b), ServiceChain((a, b)),
                  analysis.behavioral_diff(a, b, [(nib, h)]), detect_loops(nib),
                  request, what_if(nib, request), apply_action(sampling.random_action(rng), state),
                  HeaderDelta.single(rng.choice(FIELDS).name, rng.randrange(1 << 16)),
                  actions.label(sampling.random_action(rng))]
        tpl = plan_template(rng)
        try:
            roots.append(transforms.Instances(nib, h).entry(tpl))
        except UnresolvedPortError:
            pass
    return roots


def hash_or_error(value):
    """The value's hash, or the type of the error hashing it raises."""
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


class TestValueConvention:
    def test_slotted_values_round_trip(self):
        # Every value type keeps its fields in slots and no instance dict,
        # but the four that keep derived values in one; a copy, a pickle
        # and `dataclasses.replace` of each give an equal value.
        types = package_dataclasses()
        assert DICT_TYPES <= {t.__name__ for t in types}
        for t in types:
            slotted = all("__slots__" in vars(c) for c in t.__mro__[:-1])
            assert slotted is (t.__name__ not in DICT_TYPES), t
        checked = Counter()
        for value in held_values(seeded_roots(random.Random(8303))):
            name = type(value).__name__
            if name in DICT_TYPES or checked[name] >= 40:
                continue
            checked[name] += 1
            assert not hasattr(value, "__dict__"), value
            for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                           copy.deepcopy(value), dataclasses.replace(value)):
                assert type(copied) is type(value)
                assert copied == value and value == copied and repr(copied) == repr(value)
                assert hash_or_error(copied) == hash_or_error(value)
        assert set(checked) == {t.__name__ for t in types} - DICT_TYPES, checked

    def test_held_values_hash(self):
        # Every value hashes, and its copies hash as it does, but the two
        # that hold dicts of named parts.
        checked = Counter()
        for value in held_values(seeded_roots(random.Random(8303))):
            name = type(value).__name__
            if name in {"Scenario", "CaseStudyConfig"}:
                assert hash_or_error(value) is TypeError
            elif checked[name] < 40:
                checked[name] += 1
                assert all(hash(copied) == hash(value) and copied == value for copied in (
                    pickle.loads(pickle.dumps(value)), copy.copy(value),
                    copy.deepcopy(value), dataclasses.replace(value)))
        assert {"Topology", "NIB", "WhatIfReport", "Counterexample"} <= set(checked), checked


def outcome_of(run):
    """What `run()` returns, or the error's type and message."""
    try:
        return run()
    except UnresolvedPortError as exc:
        return type(exc), str(exc)


def chain_oracle(stages: list[AppTransform]) -> AppTransform:
    """The composite by `compose_apps_oracle`, folded one stage at a time."""
    acc = stages[0]
    for stage in stages[1:]:
        acc = compose_apps_oracle(stage, acc)
    return acc


def permuting_app(rng: random.Random, n: int, name: str) -> AppTransform:
    """An app whose linear part permutes the slots, with up to two random
    pieces per slot."""
    order = rng.sample(range(n), n)
    return AppTransform(name, tuple((k,) for k in order),
                        tuple(tuple(sampling.random_delta(rng) for _ in range(rng.randrange(3)))
                              for _ in range(n)))


def zero_row_app(rng: random.Random, n: int, name: str) -> AppTransform:
    """A `random_app` with some identity rows made zero, so those slots
    start from the empty table."""
    app = sampling.random_app(rng, n, name)
    return AppTransform(name, tuple(() if rng.random() < 0.4 else (i,) for i in range(n)),
                        app.translation)


STAGE_KINDS = {"identity": lambda rng, n, name: transforms.identity_transform(n, name),
               "permuting": permuting_app, "zero rows": zero_row_app,
               "random 0/1": linear_app, "random_app": sampling.random_app}


def any_stage(rng: random.Random, n: int, name: str, kinds: Counter) -> AppTransform:
    """A stage of a kind drawn from STAGE_KINDS, counted in `kinds`."""
    kind = rng.choice(sorted(STAGE_KINDS))
    kinds[kind] += 1
    return STAGE_KINDS[kind](rng, n, name)


def chain_work(monkeypatch, stages: list[AppTransform]) -> tuple[int, int]:
    """The transforms `chain` builds and the lines of `transforms.py` it runs."""
    built = Counter()
    check = AppTransform.__post_init__

    def counting(self):
        built["transforms"] += 1
        check(self)

    monkeypatch.setattr(AppTransform, "__post_init__", counting)
    code = transforms.chain.__code__.co_filename

    def tracer(frame, event, arg):
        if event == "line" and frame.f_code.co_filename == code:
            built["lines"] += 1
        return tracer

    sys.settrace(tracer)
    try:
        composite = transforms.chain(stages)
    finally:
        sys.settrace(None)
    monkeypatch.undo()
    assert composite == chain_oracle(stages)
    return built["transforms"], built["lines"]


class TestComposeApps:
    def test_chain_matches_the_stagewise_fold(self):
        rng = random.Random(8007)
        for _ in range(800):
            n = rng.randint(1, 5)
            stages = [random_stage(rng, n, f"s{i}") for i in range(rng.randint(1, 9))]
            composite = transforms.chain(stages)
            assert composite == chain_oracle(stages)
            assert composite.name == "*".join(s.name for s in reversed(stages))
        assert transforms.chain(ServiceChain(tuple(stages))) == composite

    def test_chain_work_grows_linearly_with_stages(self, monkeypatch):
        # One transform is built per chain, and the lines run grow with
        # the stage count, not with the pieces accumulated before each
        # stage (that was quadratic: about 16 times the work for 4 times
        # the stages).  Every fifth stage permutes the slots.
        rng = random.Random(8008)

        def stages(k):
            return [permuting_app(rng, 4, f"s{i}") if i % 5 == 4
                    else sampling.random_app(rng, 4, f"s{i}") for i in range(k)]

        small, large = chain_work(monkeypatch, stages(96)), chain_work(monkeypatch, stages(384))
        assert small[0] == large[0] == 1
        assert 3.5 * small[1] < large[1] < 4.5 * small[1], (small, large)

    def test_matches_entrywise_product_on_seeded_apps(self):
        rng = random.Random(8005)
        for _ in range(1500):
            n = rng.randint(1, 6)
            acc = acc_oracle = random_stage(rng, n, "s0")
            for i in range(1, rng.randint(2, 8)):
                stage = random_stage(rng, n, f"s{i}")
                acc = transforms.compose_apps(stage, acc)
                acc_oracle = compose_apps_oracle(stage, acc_oracle)
                assert acc == acc_oracle

    def test_every_kind_of_row_composes_and_applies_as_the_oracles(self):
        # Chains of identity, permuting, zero-row, random 0/1 and
        # `random_app` stages: the composite is the entrywise product,
        # folded, and applies as the apply oracle and as a transform with
        # equal rows built apart do; its diff against a chain with one
        # more stage is the separate applies' diff.
        rng = random.Random(8009)
        kinds = Counter()
        for _ in range(300):
            n = rng.randint(1, 5)
            stages = [any_stage(rng, n, f"s{i}", kinds) for i in range(rng.randint(1, 8))]
            composite = transforms.chain(stages)
            assert composite == chain_oracle(stages)
            rows = tuple([tuple(list(row)) for row in composite.linear])
            apart = AppTransform(composite.name, rows, composite.translation)
            topology = sampling.random_topology(rng, n)
            scenarios = [sampling.random_scenario(rng, topology) for _ in range(2)]
            for nib, h in scenarios:
                want = outcome(apart, nib, h)
                assert outcome(composite, nib, h) == want
                if type(want) is not tuple:
                    assert want == apply_transform_oracle(composite, nib, h)
            other = transforms.chain(stages + [any_stage(rng, n, "t", kinds)])
            assert diff_outcome(analysis.behavioral_diff, composite, other, scenarios) \
                == diff_outcome(behavioral_diff_oracle, composite, other, scenarios)
        assert min(kinds.values()) > 150, kinds

    def test_linear_parts_are_not_all_identity(self):
        rng = random.Random(8005)
        apps = [linear_app(rng, 4, "x") for _ in range(20)]
        assert not all(transforms.is_identity_linear(a) for a in apps)
        products = {compose_apps_oracle(a, b).linear for a, b in zip(apps, apps[1:])}
        assert len(products) > 10

    def test_dimension_mismatch(self):
        for compose in (transforms.compose_apps, compose_apps_oracle):
            with pytest.raises(DimensionMismatchError):
                compose(transforms.identity_transform(2), transforms.identity_transform(3))


# ---------------------------------------------------------------------------
# Values kept on chains and transforms


#: Half the port names and server ports for half the address pool, so
#: that some `PortName`s and `DestPort`s do not resolve.
PARTIAL_PORTS = (dict(zip(sampling.PORT_NAMES[:3], (1, 2, 3))),
                 {a: 1 for a in sampling.ADDRESS_POOL[:4]})


def chain_pair(rng: random.Random, n: int) -> tuple[str, ServiceChain, ServiceChain]:
    """A chain of `sampling.random_app` stages and a partner: shuffled by
    `sampling.shuffled_variant` (congruent), or with one stage edited."""
    stages = [sampling.random_app(rng, n, f"s{i}") for i in range(rng.randint(1, 6))]
    kind, other = partner(rng, stages)
    return kind, ServiceChain(tuple(stages)), ServiceChain(tuple(other))


def equal_normal_forms(a: ServiceChain, b: ServiceChain) -> bool:
    na, nb = (normalize(transforms.chain(c)) for c in (a, b))
    return na.linear == nb.linear and na.translation == nb.translation


class TestKeptChainValues:
    def test_kept_composite_and_normal_form_match_the_oracles(self):
        rng = random.Random(8201)
        for _ in range(400):
            _, a, b = chain_pair(rng, rng.randint(1, 4))
            for c in (a, b):
                composite = transforms.chain(c)
                assert composite == chain_oracle(list(c.stages))
                assert transforms.chain(c) is composite
                normal = normalize(composite)
                assert normal == normalize_oracle(composite)
                assert normalize(composite) is normal
                # A sequence of stages is composed afresh on every call.
                fresh = transforms.chain(list(c.stages))
                assert fresh == composite and fresh is not composite

    def test_equality_hash_and_repr_ignore_kept_values(self):
        rng = random.Random(8202)
        stages = tuple(sampling.random_app(rng, 3, f"s{i}") for i in range(5))
        kept, bare = ServiceChain(stages), ServiceChain(stages)
        composite = transforms.chain(kept)
        normalize(composite)
        fresh = transforms.chain(list(stages))
        assert "composite" in vars(kept) and "composite" not in vars(bare)
        assert "normal_form" in vars(composite) and "normal_form" not in vars(fresh)
        for x, y in ((kept, bare), (composite, fresh)):
            assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert ServiceChain(stages[:4]) != kept

    def test_behavioral_diff_matches_separate_applies(self):
        rng = random.Random(8203)
        topologies = [sampling.random_topology(rng, n) for n in (1, 2, 3)] + [
            Topology(n, *PARTIAL_PORTS) for n in (1, 2, 3)]
        seen = Counter()
        for _ in range(800):
            topology = rng.choice(topologies)
            kind, a, b = chain_pair(rng, topology.switch_count)
            scenarios = [sampling.random_scenario(rng, topology) for _ in range(3)]
            got = diff_outcome(analysis.behavioral_diff, a, b, scenarios)
            assert got == diff_outcome(behavioral_diff_oracle, a, b, scenarios)
            # A second call reads the kept composites and normal forms.
            assert diff_outcome(analysis.behavioral_diff, a, b, scenarios) == got
            outcome = " ".join(got[1].split(" ")[:2]) if type(got) is tuple else bool(got)
            seen[equal_normal_forms(a, b), outcome] += 1
        # Pairs with equal and unequal normal forms, each with both kinds
        # of unresolved port; only unequal ones can differ.
        assert not seen[True, True]
        for equal in (True, False):
            assert min(seen[equal, "no port"], seen[equal, "no server"], seen[equal, False]) > 10
        assert seen[False, True] > 10, seen

    def test_slot_count_mismatch_raises_as_separate_applies(self):
        # A chain with one slot too many: in first place it fails on the
        # first scenario, in second place once the first chain applies.
        rng = random.Random(8204)
        raised = Counter()
        for _ in range(200):
            n = rng.randint(1, 3)
            topology = sampling.random_topology(rng, n)
            _, a, _ = chain_pair(rng, n)
            _, wide, _ = chain_pair(rng, n + 1)
            scenarios = [sampling.random_scenario(rng, topology) for _ in range(2)]
            for x, y in ((wide, a), (a, wide)):
                want = diff_outcome(behavioral_diff_oracle, x, y, scenarios)
                if want[0] is DimensionMismatchError:
                    assert diff_outcome(analysis.behavioral_diff, x, y, scenarios) == want
                    raised[x is wide] += 1
        assert raised[True] == 200 and raised[False] > 50, raised

    def test_only_open_slots_are_selected(self, monkeypatch):
        # Only slots whose normal forms differ are selected, once for
        # each chain per scenario; the first chain's other slots are
        # selected only when a witness's results are read, once per
        # witness.  Every port resolves on this topology, so pairs with
        # equal normal forms select nothing.
        rng = random.Random(8205)
        topology = sampling.random_topology(rng, 3)
        selected = Counter()
        select_slot = transforms.select_slot

        def counting(t, i, nib, h):
            selected[t.name, i] += 1
            return select_slot(t, i, nib, h)

        monkeypatch.setattr(transforms, "select_slot", counting)
        kinds = Counter()
        for _ in range(200):
            kind, a, b = chain_pair(rng, 3)
            scenarios = [sampling.random_scenario(rng, topology) for _ in range(3)]
            selected.clear()
            got = analysis.behavioral_diff(a, b, scenarios)
            ta, tb = transforms.chain(a), transforms.chain(b)
            na, nb = normalize(ta), normalize(tb)
            open_slots = [i for i in range(3) if na.translation[i] != nb.translation[i]]
            for i in range(3):
                assert selected[tb.name, i] == (3 if i in open_slots else 0)
                assert selected[ta.name, i] == (3 if i in open_slots else 0)
            for w in got:
                nib, h = scenarios[w.index]
                assert w.result_b == apply_transform_oracle(tb, nib, h)
                assert w.result_a == apply_transform_oracle(ta, nib, h)
            for i in range(3):
                assert selected[tb.name, i] == (3 if i in open_slots else 0)
                assert selected[ta.name, i] == (3 if i in open_slots else len(got))
            if not open_slots:
                assert got == [] and not selected
            kinds[kind, bool(open_slots), bool(got)] += 1
        assert min(kinds["shuffled", False, False], kinds["one template", True, True],
                   kinds["one template", True, False]) > 5, kinds

    def test_a_slot_whose_keys_agree_never_selects_the_second_chain(self, monkeypatch):
        # On pairs with unresolvable ports, flipped linear entries and a
        # slot-count mismatch, whatever the outcome: the second chain is
        # selected only in slots whose rows or normal forms differ, and
        # its whole selections are never taken.
        rng = random.Random(8206)
        topologies = [sampling.random_topology(rng, n) for n in (1, 2, 3)] + [
            Topology(n, *PARTIAL_PORTS) for n in (1, 2, 3)]
        selected = Counter()
        select_slot, selections = transforms.select_slot, transforms.selections

        def counting_slot(t, i, nib, h):
            selected[t.name, i] += 1
            return select_slot(t, i, nib, h)

        def counting_all(t, nib, h):
            selected[t.name, "all"] += 1
            return selections(t, nib, h)

        monkeypatch.setattr(transforms, "select_slot", counting_slot)
        monkeypatch.setattr(transforms, "selections", counting_all)
        seen = Counter()
        for _ in range(600):
            topology = rng.choice(topologies)
            n = topology.switch_count
            _, a, b = chain_pair(rng, n)
            ta, tb = transforms.chain(a), transforms.chain(b)
            wide = rng.random() < 0.1
            if wide:
                tb = transforms.chain(chain_pair(rng, n + 1)[1])
            elif rng.random() < 0.3:
                tb = flipped(rng, tb)
            scenarios = [sampling.random_scenario(rng, topology) for _ in range(3)]
            selected.clear()
            got = diff_outcome(analysis.behavioral_diff, ta, tb, scenarios)
            if wide:  # raised before anything is instantiated, unlike the oracle
                assert got == (DimensionMismatchError,
                               f"transform has {n + 1} slots, topology has {n} switches")
            else:
                assert got == diff_outcome(behavioral_diff_oracle, ta, tb, scenarios)
            na, nb = normalize(ta), normalize(tb)
            open_slots = {i for i, (x, y, p, q) in enumerate(zip(
                na.linear, nb.linear, na.translation, nb.translation)) if x != y or p != q}
            assert {i for name, i in selected if name == tb.name} <= open_slots
            seen[type(got).__name__ if type(got) is not tuple else got[0].__name__,
                 len(open_slots) < n] += 1
        assert min(seen["list", True], seen["UnresolvedPortError", True],
                   seen["DimensionMismatchError", False]) > 10, seen


# ---------------------------------------------------------------------------
# Kept slot keys, open slots and bucketed reductions


def templates_of(t: AppTransform) -> list[RuleTemplate]:
    """Every template the transform holds, selected or not, in order."""
    return [tpl for slot in t.translation for piece in slot
            for arm in (*(a for _, a in piece.branches), piece.default) for tpl in arm]


def flipped(rng: random.Random, t: AppTransform) -> AppTransform:
    """The transform with one linear entry flipped."""
    i, j = rng.randrange(t.dimension), rng.randrange(t.dimension)
    linear = list(t.linear)
    linear[i] = tuple(sorted(set(linear[i]) ^ {j}))
    return AppTransform(t.name, tuple(linear), t.translation)


def other_guard(g):
    """A guard of the same kind with another value."""
    if isinstance(g, SourceCountAtMost):
        return SourceCountAtMost(g.threshold + 1)
    return LoadAtMost(g.server_a ^ 1, g.server_b)


def guard_edited(rng: random.Random, t: AppTransform) -> AppTransform:
    """The transform with one guard of one piece changed, if it has one."""
    placed = [(i, k, j) for i, slot in enumerate(t.translation) for k, piece in enumerate(slot)
              for j, (g, _) in enumerate(piece.branches) if not isinstance(g, TrueGuard)]
    if not placed:
        return t
    i, k, j = rng.choice(placed)
    piece = t.translation[i][k]
    branches = list(piece.branches)
    branches[j] = (other_guard(branches[j][0]), branches[j][1])
    slot = list(t.translation[i])
    slot[k] = GuardedDelta(tuple(branches), piece.default)
    return AppTransform(t.name + "~", t.linear,
                        t.translation[:i] + (tuple(slot),) + t.translation[i + 1:])


def congruence_case(rng: random.Random) -> tuple[AppTransform, AppTransform]:
    """Two composites of equal slot count: a chain and its shuffled or
    edited partner, sometimes with a linear entry flipped; a chain and
    itself with one guard changed; or two chains whose guards and
    templates are drawn from small pools."""
    n = rng.randint(1, 4)
    roll = rng.random()
    if roll < 0.3:
        return (normal_form_chain(rng, rng.randint(1, 8), n),
                normal_form_chain(rng, rng.randint(1, 8), n))
    _, a, b = chain_pair(rng, n)
    ta, tb = transforms.chain(a), transforms.chain(b)
    if roll < 0.45:
        return ta, guard_edited(rng, ta)
    return ta, flipped(rng, tb) if roll < 0.55 else tb


#: The kinds of first difference: linear parts, guard kinds, one guard,
#: the templates of a guarded or of the otherwise arm, piece counts.
DETAILS = ("linear parts", "piece guards", "piece guard ", "in arm", "otherwise arm",
           "delta pieces")


class TestSlotKeys:
    def test_keys_agree_exactly_where_slots_are_equal(self):
        rng = random.Random(8301)
        seen = Counter()
        for _ in range(1500):
            ta, tb = congruence_case(rng)
            # Unpickled, every template is an equal but distinct object
            # whose key is computed afresh.
            for na, nb in ((normalize(ta), normalize(tb)),
                           (normalize(ta), pickle.loads(pickle.dumps(normalize(ta))))):
                assert len(na.slot_keys) == na.dimension
                for i, (x, y) in enumerate(zip(na.translation, nb.translation)):
                    equal = x == y
                    assert (na.slot_keys[i] == nb.slot_keys[i]) == equal
                    seen[equal] += 1
        assert min(seen.values()) > 1000, seen

    def test_report_matches_the_slotwise_walk(self):
        # Same verdict, first difference and notes as the walk by
        # dataclass equality, on every kind of first difference.
        rng = random.Random(8302)
        details = Counter()
        for _ in range(1500):
            ta, tb = congruence_case(rng)
            na, nb = normalize(ta), normalize(tb)
            first = first_difference_oracle(na, nb)
            notes = tuple(f"{t.name}: non-identity linear part (a table becomes a sum of tables)"
                          for t in (na, nb) if not transforms.is_identity_linear(t))
            assert analysis.check_congruence(ta, tb) == analysis.CongruenceReport(
                first is None, first, na, nb, notes)
            details[next((kind for kind in DETAILS if kind in first.detail), first.detail)
                    if first else "congruent"] += 1
        assert set(details) == {"congruent", *DETAILS}, details
        assert min(details.values()) > 20, details

    def test_port_lookups_are_the_templates_in_order_of_first_appearance(self):
        rng = random.Random(8303)
        for _ in range(300):
            t = normal_form_chain(rng, rng.randint(1, 8), rng.randint(1, 3))
            want = []
            for tpl in templates_of(t):
                forwards = [s.port for s in flat_steps(tpl.action) if isinstance(s, Forward)]
                for ref in (tpl.out_port, *forwards):
                    if not isinstance(ref, PortNumber) and ref not in want:
                        want.append(ref)
            assert t.port_lookups == tuple(want)
            assert t.port_lookups is t.port_lookups

    def test_kept_outside_equality_hash_and_repr(self):
        t = normal_form_chain(random.Random(8304), 6, 3)
        bare = pickle.loads(pickle.dumps(t))
        t.slot_keys, t.port_lookups
        assert {"slot_keys", "port_lookups"} <= set(vars(t))
        assert not {"slot_keys", "port_lookups"} & set(vars(bare))
        assert t == bare and hash(t) == hash(bare) and repr(t) == repr(bare)


def twin_pair(rng: random.Random, n: int) -> tuple[str, ServiceChain, ServiceChain]:
    """Two chains of `sampling.random_app` stages drawn twice from the same
    seeds, so that no template object is shared: the second shuffled by
    `sampling.shuffled_variant` (congruent), or with one template of one
    stage replaced as well."""
    seeds = [rng.randrange(1 << 30) for _ in range(rng.randint(1, 6))]
    a, b = ([sampling.random_app(random.Random(s), n, f"s{i}") for i, s in enumerate(seeds)]
            for _ in range(2))
    b = [sampling.shuffled_variant(rng, stage) for stage in b]
    kind = "shuffled"
    if rng.random() < 0.5:
        k = rng.randrange(len(b))
        b[k], kind = with_templates(rng, b[k], one_template), "edited"
    return kind, ServiceChain(tuple(a)), ServiceChain(tuple(b))


def structural_slots(t: AppTransform) -> tuple:
    """The normal form's slots with every guard keyed by `guard_key` and
    every template by its structural key, the `_canonical_key` tuple."""
    key = transforms._canonical_key
    return tuple(tuple((tuple((transforms.guard_key(g), tuple(key(x) for x in arm))
                               for g, arm in p.branches),
                        tuple(key(x) for x in p.default)) for p in slot)
                 for slot in normalize(t).translation)


def key_objects(keys) -> list:
    """The `TemplateKey`s in nested tuples of slot keys, in order."""
    if isinstance(keys, transforms.TemplateKey):
        return [keys]
    return [k for item in keys if isinstance(item, tuple | transforms.TemplateKey)
            for k in key_objects(item)]


def force_second_key(tpls) -> RuleTemplate | None:
    """Drop from the intern table the entry of the first template whose key
    lives there, so that the next template with that key gets a second,
    distinct key object; the template, or None if no key lives there."""
    for tpl in tpls:
        value = transforms._canonical_key(tpl)
        if value in transforms._keys:
            del transforms._keys[value]
            return tpl
    return None


class TestInternedKeys:
    @pytest.mark.parametrize("forced", [False, True])
    def test_templates_agree_with_the_structural_keys(self, forced):
        rng = random.Random(8401)
        seeds = [rng.randrange(1 << 30) for _ in range(600)]
        first = [sampling.random_template(random.Random(s)) for s in seeds]
        second = [sampling.random_template(random.Random(s)) for s in seeds]
        second += [sampling.random_template(rng) for _ in range(300)]
        for tpl in first:
            hash(tpl)
        # Forced, the templates of `first` with the twin's key keep the key
        # object they got, and those of `second` get a second one.
        twin = force_second_key(first) if forced else None
        key = transforms._canonical_key
        in_first = {id(t) for t in first}
        seen = Counter()
        for a, b in [*zip(first, second), *(rng.sample(first + second, 2) for _ in range(3000))]:
            want = key(a) == key(b)
            assert (a == b) is (b == a) is want and (a != b) is not want
            assert (transforms.template_key(a) == transforms.template_key(b)) is want
            if want:
                assert hash(a) == hash(b)
                split = (twin is not None and key(a) == key(twin)
                         and (id(a) in in_first) is not (id(b) in in_first))
                assert (a._facts[1] is b._facts[1]) is not split
                seen["distinct" if split else "shared"] += 1
        assert sorted(map(key, first + second)) == \
            [key(t) for t in sorted(first + second, key=transforms.template_key)]
        assert seen["shared"] > 500 and bool(seen["distinct"]) is forced, seen

    @pytest.mark.parametrize("forced", [False, True])
    def test_verdicts_agree_with_the_structural_keys(self, forced):
        rng = random.Random(8402)
        kinds = Counter()
        for _ in range(400):
            kind, a, b = twin_pair(rng, rng.randint(1, 4))
            ta, tb = transforms.chain(a), transforms.chain(b)
            normalize(ta).slot_keys
            if forced and force_second_key(templates_of(tb)):
                kinds["forced"] += 1
            report = analysis.check_congruence(a, b)
            na, nb = report.normalized_a, report.normalized_b
            want = na.linear == nb.linear and structural_slots(ta) == structural_slots(tb)
            assert report.congruent is oracles.congruent(ta, tb) is want
            assert report.first_difference == first_difference_oracle(na, nb)
            kinds[kind, want] += 1
        assert kinds["shuffled", True] > 100 and kinds["edited", False] > 100, kinds
        assert (kinds["forced"] > 100) is forced, kinds

    def test_kept_keys_survive_copies_and_dead_keys_leave_the_table(self):
        gc.collect()
        before = len(transforms._keys)
        t = normal_form_chain(random.Random(8404), 12, 3)
        twin = pickle.loads(pickle.dumps(t))  # equal templates, distinct objects
        n = normalize(t)
        keys = key_objects(n.slot_keys)
        assert keys and len(transforms._keys) > before
        for copied in (pickle.loads(pickle.dumps(n)), copy.copy(n), copy.deepcopy(n),
                       normalize(twin)):
            assert copied.slot_keys == n.slot_keys
            assert all(x is y for x, y in zip(key_objects(copied.slot_keys), keys, strict=True))
        data = pickle.dumps(n.slot_keys)
        del t, twin, n, keys, copied
        gc.collect()
        assert len(transforms._keys) == before
        # Unpickled after every key of its value died, a key is interned afresh.
        loaded = pickle.loads(data)
        assert len(transforms._keys) > before
        fresh = normalize(pickle.loads(pickle.dumps(normal_form_chain(random.Random(8404), 12, 3))))
        assert all(x is y for x, y in zip(key_objects(fresh.slot_keys), key_objects(loaded),
                                           strict=True))
        del loaded, fresh
        gc.collect()
        assert len(transforms._keys) == before

    def test_equal_normal_forms_compare_keys_by_pointer(self, monkeypatch):
        # Every call compares two distinct key objects; those with equal
        # hashes go on to compare their values.
        calls = []
        eq = transforms.TemplateKey.__eq__

        def counting(x, y):
            calls.append(x.hash == y.hash)
            return eq(x, y)

        monkeypatch.setattr(transforms.TemplateKey, "__eq__", counting)
        rng = random.Random(8405)
        kinds = Counter()
        for _ in range(300):
            n = rng.randint(1, 4)
            kind, a, b = twin_pair(rng, n)
            ta, tb = transforms.chain(a), transforms.chain(b)
            differing = sum(x != y for x, y in zip(structural_slots(ta), structural_slots(tb)))
            normalize(ta).slot_keys, normalize(tb).slot_keys
            topology = sampling.random_topology(rng, n)
            scenarios = [sampling.random_scenario(rng, topology) for _ in range(3)]
            calls.clear()
            analysis.check_congruence(a, b)
            congruence, calls[:] = list(calls), []
            diff_outcome(analysis.behavioral_diff, ta, tb, scenarios)
            diff = list(calls)
            if not differing:
                assert congruence == diff == []
            else:
                # At most one value comparison per differing slot; the first
                # differing slot's keys are compared to find it, its piece
                # and its arm, and each differing slot's once to open it.
                assert sum(congruence) <= differing and sum(diff) <= differing
                assert len(congruence) <= 3 and len(diff) <= differing
            kinds[kind, bool(differing)] += 1
        assert kinds["shuffled", False] > 100 and kinds["edited", True] > 50, kinds


GOOD = RuleTemplate(InputHeader(), PortName("p0"), 60, Forward(PortNumber(2)))
OTHER = RuleTemplate(InputHeader(), PortNumber(1), 30, Drop())
NO_NAME = RuleTemplate(InputHeader(), PortNumber(1), 60, Forward(PortName("p9")))
AT_DEST = RuleTemplate(InputHeader(), DestPort(), 60, Drop())


def open_slot_cases() -> dict:
    """Hand-built pairs, each with its one scenario and the expected
    outcome: a witness's differing slots, no witness, or an error."""
    topology = Topology(1, {"p0": 1}, {sampling.ADDRESS_POOL[0]: 1})
    served, unserved = (Header.from_fields(nw_src=sampling.ADDRESS_POOL[2], nw_dst=d)
                        for d in sampling.ADDRESS_POOL[:2])
    # One flow from the header's source: `SourceCountAtMost(0)` is false.
    nib = NIB(topology, (FlowTable(),), (Flow(served, None),))
    two = Topology(2, {"p0": 1})
    entry = FlowEntry(FlowRule(MatchPattern.wildcard(), 3, 60, forward(5)), 0)
    full, empty = (NIB(two, (FlowTable(), FlowTable(tbl))) for tbl in ([entry], []))

    def app(name, delta, n=1):
        return make_app(name, 0, delta, n)

    no_port = (UnresolvedPortError, "no port named 'p9' in topology")
    no_server = (UnresolvedPortError,
                 f"no server port for destination {sampling.ADDRESS_POOL[1]}")
    dead = guarded([(TrueGuard(), [GOOD]), (SourceCountAtMost(9), [NO_NAME])], [NO_NAME])
    false = guarded([(SourceCountAtMost(0), [NO_NAME])], [GOOD])
    mix = AppTransform("mix", ((0, 1), (1,)), ((), ()))
    wider = (DimensionMismatchError, "transform has 2 slots, topology has 1 switches")
    return {
        "unselected name, keys agree": (app("a", dead), app("b", unconditional([GOOD])),
                                        nib, served, []),
        "unselected name, guard false": (app("a", false), app("b", unconditional([GOOD])),
                                         nib, served, []),
        "unselected name, slot open": (app("a", false), app("b", unconditional([GOOD, OTHER])),
                                       nib, served, [(0,)]),
        "selected name, keys agree": (app("a", unconditional([GOOD, NO_NAME])),
                                      app("b", unconditional([NO_NAME, GOOD])),
                                      nib, served, no_port),
        "selected name, slot open": (app("a", unconditional([GOOD, NO_NAME])),
                                     app("b", unconditional([GOOD])), nib, served, no_port),
        "selected name in b only": (app("a", unconditional([GOOD])),
                                    app("b", unconditional([GOOD, NO_NAME])),
                                    nib, served, no_port),
        "no server port": (app("a", unconditional([AT_DEST, GOOD])),
                           app("b", unconditional([GOOD, AT_DEST])), nib, unserved, no_server),
        "server port": (app("a", unconditional([AT_DEST, GOOD])),
                        app("b", unconditional([GOOD, AT_DEST])), nib, served, []),
        "wider second": (app("a", unconditional([GOOD])), transforms.identity_transform(2),
                         nib, served, wider),
        "both wider": (transforms.identity_transform(2), transforms.identity_transform(2, "b"),
                       nib, served, wider),
        "rows differ": (transforms.identity_transform(2), mix, full, served, [(0,)]),
        "rows differ, tables equal": (transforms.identity_transform(2), mix, empty, served, []),
    }


class TestOpenSlots:
    @pytest.mark.parametrize("case", open_slot_cases())
    def test_hand_built_pairs_match_the_oracle(self, case):
        ta, tb, nib, h, want = open_slot_cases()[case]
        got = diff_outcome(analysis.behavioral_diff, ta, tb, [(nib, h)])
        assert got == diff_outcome(behavioral_diff_oracle, ta, tb, [(nib, h)])
        assert (got if type(got) is tuple else [w.differing_slots for w in got]) == want

    def test_seeded_pairs_match_the_oracle_scenario_by_scenario(self):
        rng = random.Random(8305)
        topologies = [sampling.random_topology(rng, n) for n in (1, 2, 3)] + [
            Topology(n, *PARTIAL_PORTS) for n in (1, 2, 3)]
        seen = Counter()
        for _ in range(900):
            topology = rng.choice(topologies)
            n = topology.switch_count
            _, a, b = chain_pair(rng, n)
            ta, tb = transforms.chain(a), transforms.chain(b)
            roll = rng.random()
            wide = roll >= 0.9
            tb = (flipped(rng, tb) if roll < 0.2 else
                  transforms.identity_transform(n + 1, "wide") if wide else tb)
            for scenario in [sampling.random_scenario(rng, topology) for _ in range(3)]:
                got = diff_outcome(analysis.behavioral_diff, ta, tb, [scenario])
                if wide:  # raised before anything is instantiated, unlike the oracle
                    assert got == (DimensionMismatchError,
                                   f"transform has {n + 1} slots, topology has {n} switches")
                else:
                    assert got == diff_outcome(behavioral_diff_oracle, ta, tb, [scenario])
                if type(got) is tuple:
                    seen[got[0].__name__ if got[0] is DimensionMismatchError
                         else " ".join(got[1].split(" ")[:2])] += 1
                    continue
                unresolved = outcome_of(lambda: transforms.check_instantiable(
                    templates_of(ta), *scenario))
                if unresolved:
                    seen["unselected " + " ".join(unresolved[1].split(" ")[:2])] += 1
                seen["rows differ" if ta.linear != tb.linear else "rows agree", bool(got)] += 1
        assert min(seen["no port"], seen["no server"], seen["DimensionMismatchError"],
                   seen["unselected no port"], seen["unselected no server"],
                   seen["rows differ", True], seen["rows differ", False],
                   seen["rows agree", True], seen["rows agree", False]) > 10, seen


def bucket(e: FlowEntry) -> tuple:
    return e.rule.match, e.rule.out_port, e.rule.ttl


def edited_table(rng: random.Random, t: FlowTable) -> FlowTable:
    """`t` with up to two entries removed and up to three added: the
    negation of one of its rules, one of its rules under another counter,
    a self-inverse, singular or random action on one of its signatures,
    or a fresh rule."""
    entries = list(t.entries)
    for _ in range(rng.randint(0, 2)):
        if entries:
            entries.remove(rng.choice(entries))
    for _ in range(rng.randint(0, 3)):
        base = rng.choice(t.entries).rule if len(t) else sampling.random_rule(rng, True)
        roll = rng.random()
        if roll < 0.2 and all(base.action.linear):
            r = negate_rule(base)
        elif roll < 0.35:
            r = base
        elif roll < 0.45:
            r = with_action(base, rng.choice((identity(), HALF_TURN)))
        elif roll < 0.55:
            r = with_action(base, drop())
        elif roll < 0.7:
            r = with_action(base, sampling.random_action(rng))
        else:  # a fresh rule and, mostly, its inverse, on one of the signatures
            r = with_action(base, sampling.random_invertible_action(rng))
            if roll < 0.95:
                entries.append(FlowEntry(negate_rule(r), rng.randint(0, 3)))
        entries.append(FlowEntry(r, rng.randint(0, 3)))
    return FlowTable(entries)


class TestReductionsEqual:
    def test_matches_reduce_on_seeded_pairs(self):
        rng = random.Random(8401)
        seen = Counter()
        for _ in range(4000):
            x = collision_table(rng, 12)
            y = edited_table(rng, x)
            want = reduce(x) == reduce(y)
            assert tables.reductions_equal(x, y) == tables.reductions_equal(y, x) == want
            changed = set(x) ^ set(y)
            rules = Counter(e.rule for e in (*x, *y) if bucket(e) in {bucket(d) for d in changed})
            seen["equal tables" if not changed else want] += 1
            seen["singular"] += any(not all(e.rule.action.linear) for e in changed)
            seen["self-inverse"] += any(negate_rule(e.rule) == e.rule for e in changed
                                        if all(e.rule.action.linear))
            seen["counters"] += any(n > 2 for n in rules.values())
        assert min(seen.values()) > 300 and len(seen) == 6, seen

    def test_only_the_touched_buckets_are_indexed(self, monkeypatch):
        # Each table's entries in the buckets of the entries where the two
        # differ are keyed once; a singular entry there decides at once.
        rng = random.Random(8402)
        keyed = Counter()
        key = tables.inverse_key

        def counting(r):
            keyed["calls"] += 1
            return key(r)

        monkeypatch.setattr(tables, "inverse_key", counting)
        seen = Counter()
        for _ in range(2000):
            x = collision_table(rng, 12)
            y = edited_table(rng, x)
            changed = set(x) ^ set(y)
            touched = {bucket(e) for e in changed}
            keyed.clear()
            tables.reductions_equal(x, y)
            if any(not all(e.rule.action.linear) for e in changed):
                want = 0
            else:
                want = sum(bucket(e) in touched for t in (x, y) for e in t)
            assert keyed["calls"] == want
            seen[want == 0, want < len(x) + len(y)] += 1
        assert min(seen[True, True], seen[False, True]) > 300, seen
