"""The indexes against the scans they replaced.

`reduce`, `detect_loops` and `what_if` must give exactly the output of
the oracles in `oracles.py` on seeded collision tables, and on
hand-built tables that hold the cases the index treats specially.

The NIB statistics must equal the linear scans over the flows on
seeded NIBs whose headers collide, on hand-built NIBs, and inside
`apply_transform` of both case-study composites.

`normalize` must give exactly the merge-pass fixpoint's normal form on
seeded chains whose guard sequences collide and whose merged arms
collapse.

`scenario.action_from_obj`, which folds a concrete action's steps into
one action, must give exactly the pairwise-composing decoder's action,
or the same error, on seeded action objects, malformed ones included.

`transforms.build_action`, which folds a template action's steps into
one action, must raise exactly the errors of the pairwise-composing
instantiation, and give its action on every spec with no `set_field`
after a `drop` or after a `set_field` of the same field.  On every spec,
the action must map the steered header's rule state to the state that
running the steps one by one gives.

`analysis.behavioral_diff`, which builds the second composite's table
only in slots whose linear rows or selected template sets differ and
reduces only slots whose tables differ, must give exactly the separate
applies' counterexamples, or the same error, on seeded chain pairs:
shuffled partners, partners with one template changed, partners with an
added inverse template pair and partners with one linear entry flipped.
It must instantiate nothing on a scenario whose two composites have
equal linear parts and select equal template sets in every slot, yet
raise there what an apply raises; on any other scenario it must
instantiate each distinct selected template once.  It must reduce no
slot whose two tables are equal.  `compose_apps` must give exactly the
entrywise matrix product on seeded apps with random 0/1 linear parts.
"""

import random
from collections import Counter

import pytest

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
    normalize_oracle,
    reduce_oracle,
    table_diffs_oracle,
    what_if_new_loops_oracle,
)
from flowspace import analysis, casestudy, sampling, tables, transforms
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
    UnresolvedPortError,
)
from flowspace.headers import FIELD_INDEX, FIELDS, Header, MatchPattern
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
    cache_inverse_index,
    inverse_index,
    inverse_key,
    negate_rule,
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
    SetField,
    SourceCountAtMost,
    build_action,
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


def assert_index_carried(t: FlowTable) -> None:
    """The table carries an index, and it equals one built afresh."""
    assert t._index is not None
    assert t._index == inverse_index(FlowTable(t))


def chain_candidates(rng: random.Random, nib: NIB) -> list[FlowModRequest]:
    """`candidates`, plus a delete and a modify of a drop rule when the
    touched table holds one."""
    out = candidates(rng, nib)
    s = out[0].switch
    drops = [e.rule for e in nib.tables[s] if not all(e.rule.action.linear)]
    if drops:
        old = rng.choice(drops)
        out += [FlowModRequest("delete", s, old),
                FlowModRequest("modify", s, candidate_rule(rng, nib.tables[s]), old)]
    return out


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
            assert_index_carried(report.result.tables[s])
            # Commit the previewed FLOW_MOD or another one on the same parent.
            committed = preview if rng.random() < 0.5 else rng.choice(cands)
            table = commit(parent, committed)
            assert table == commit_oracle(parent, committed)
            assert_index_carried(table)
            nib = NIB(nib.topology, tuple(table if i == s else t
                                          for i, t in enumerate(nib.tables)), nib.flows)
            r = committed.rule
            seen[committed.op] += 1
            seen["different commit"] += committed is not preview
            seen["re-add"] += committed.op == "add" and FlowEntry(r, 0) in parent
            old = committed.old_rule if committed.op == "modify" else r
            seen["drop rule out"] += committed.op != "add" and not all(old.action.linear)
        assert min(seen.values()) >= 50, seen

    def test_flow_mod_returns_the_set_differences(self):
        """On the chain above, `flow_mod` gains and loses exactly the set
        differences of the two tables, from the carried index or a scan."""
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
            cache_inverse_index(parent)  # as `what_if` does
            committed = preview if rng.random() < 0.5 else rng.choice(cands)
            for c in (committed,) if committed is preview else (committed, preview):
                old, new = {"add": (None, c.rule), "delete": (c.rule, None),
                            "modify": (c.old_rule, c.rule)}[c.op]
                for t in (FlowTable(parent), parent):  # a scan, then the carried index
                    table, gained, lost = tables.flow_mod(t, old, new)
                    assert table == commit_oracle(parent, c)
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

    def test_reduce_and_detect_loops_store_no_index(self):
        rng = random.Random(9102)
        for _ in range(50):
            nib = NIB(Topology(2), (collision_table(rng, 16), planted_table(rng, 4)))
            detect_loops(nib)
            for t in nib.tables:
                reduce(t)
            assert [t._index for t in nib.tables] == [None, None]
            t = nib.tables[1]
            index = cache_inverse_index(t)
            assert reduce(t) == reduce_oracle(t)
            assert detect_loops(nib) == detect_loops_oracle(nib)
            assert t._index is index

    def test_table_without_index_stays_without(self):
        rng = random.Random(9103)
        for _ in range(100):
            t = planted_table(rng, 3)
            c = rng.choice(candidates(rng, NIB(Topology(1), (t,))))
            out = commit(t, c)
            assert out == commit_oracle(t, c)
            assert t._index is None and out._index is None

    @pytest.mark.parametrize("size", [8000, 32000])
    def test_preview_work_is_per_touched_entry(self, monkeypatch, size):
        match = MatchPattern.from_fields(nw_src=1)
        entries = [FlowEntry(FlowRule(match, i, 60, forward(5)), 0) for i in range(size)]
        live = entries[size // 2].rule
        entries.append(FlowEntry(live, 3))  # a second counter: two entries to remove
        nib = NIB(Topology(1), (FlowTable(entries),))
        cache_inverse_index(nib.tables[0])
        calls = Counter()

        def counted(r):
            calls["inverse_key"] += 1
            return inverse_key(r)

        # Every module that looks up inverse keys by name.
        for module in (tables, analysis):
            monkeypatch.setattr(module, "inverse_key", counted)
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
        template_key = transforms.template_key

        def counting(t):
            calls[t] += 1
            return template_key(t)

        t = normal_form_chain(random.Random(6002), 192, 3)
        expected = normalize_oracle(t)
        monkeypatch.setattr(transforms, "template_key", counting)
        assert normalize(t) == expected
        placed = [tpl for slot in expected.translation for p in slot
                  for tpls in [p.default, *(arm for _, arm in p.branches)] for tpl in tpls]
        # Templates recur across arms, pieces and slots, yet each key is
        # computed once.
        assert len(placed) > len(set(placed)) == len(calls)
        assert set(calls.values()) == {1}


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


class TestTemplateActions:
    def test_fold_matches_pairwise_compose_on_seeded_specs(self):
        rng = random.Random(7002)
        nibs = [template_nib(rng) for _ in range(40)]
        outcomes = Counter()
        for _ in range(20_000):
            spec, nib, h = random_template_action(rng), rng.choice(nibs), template_header(rng)
            got = decoded(lambda s, _: build_action(s, nib, h), spec)
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
    linear = tuple(tuple(int(rng.random() < 0.4) for _ in range(n)) for _ in range(n))
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
        raised = Counter()
        for _ in range(1000):
            kind, ta, tb, scenarios = diff_case(rng, rng.choice(topologies))
            got = diff_outcome(analysis.behavioral_diff, ta, tb, scenarios)
            assert got == diff_outcome(behavioral_diff_oracle, ta, tb, scenarios)
            if type(got) is tuple:
                first = diff_outcome(behavioral_diff_oracle, ta, ta, scenarios)
                where = "first" if first == got else "second only"
                raised[where, got[1].split(" ")[1]] += 1
        # Both kinds of unresolved port, in the first transform and in the
        # second only.
        assert {("first", "port"), ("first", "server"),
                ("second only", "port"), ("second only", "server")} <= set(raised), raised

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
        # rows differ and every scenario is applied: each distinct
        # template the two select is built once, and a slot is reduced
        # only when its two tables differ.
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

        monkeypatch.setattr(transforms, "build_action", counting("build_action", build_action))
        monkeypatch.setattr(analysis, "reduce", counting("reduce", reduce))
        outcomes = Counter()
        for _ in range(300):
            _, ta, tb, scenarios = diff_case(rng, rng.choice(topologies))
            i, j = rng.randrange(tb.dimension), rng.randrange(tb.dimension)
            linear = [list(row) for row in tb.linear]
            linear[i][j] ^= 1
            tb = AppTransform(tb.name, tuple(map(tuple, linear)), tb.translation)
            assert diff_outcome(analysis.behavioral_diff, ta, tb, scenarios) == diff_outcome(
                behavioral_diff_oracle, ta, tb, scenarios)
            for nib, h in scenarios:
                calls.clear()
                got = diff_outcome(analysis.behavioral_diff, ta, tb, [(nib, h)])
                built, reduced = calls["build_action"], calls["reduce"]
                outcomes["error" if type(got) is tuple else bool(got)] += 1
                if type(got) is tuple:
                    continue
                sa, sb = slot_selections(ta, nib, h), slot_selections(tb, nib, h)
                ra, rb = (apply_transform_oracle(t, nib, h) for t in (ta, tb))
                assert built == len(set().union(*sa, *sb))
                assert reduced == 2 * sum(x != y for x, y in zip(ra.tables, rb.tables))
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
        # equal template sets in every slot builds no action; any other
        # builds one per distinct template the two select.
        rng = random.Random(8003)
        topology = sampling.random_topology(rng, 3)
        cases = [diff_case(rng, topology) for _ in range(200)]
        expected = [behavioral_diff_oracle(ta, tb, sc) for _, ta, tb, sc in cases]
        calls = Counter()
        build_action = transforms.build_action

        def counting(spec, nib, h):
            calls["build_action"] += 1
            return build_action(spec, nib, h)

        monkeypatch.setattr(transforms, "build_action", counting)
        want_calls, distinct, agreeing = 0, 0, Counter()
        for (_, ta, tb, scenarios), want in zip(cases, expected):
            assert analysis.behavioral_diff(ta, tb, scenarios) == want
            for nib, h in scenarios:
                sa, sb = slot_selections(ta, nib, h), slot_selections(tb, nib, h)
                agree = ta.linear == tb.linear and sa == sb
                both = len(set().union(*sa, *sb))
                before = calls["build_action"]
                analysis.behavioral_diff(ta, tb, [(nib, h)])
                assert calls["build_action"] - before == (0 if agree else both)
                want_calls += 0 if agree else both
                distinct += both
                agreeing[agree] += 1
        assert agreeing[True] and agreeing[False], agreeing
        # Every call above ran twice: once in its case, once on its own.
        assert calls["build_action"] == 2 * want_calls
        placed = sum(len(tpls) for _, ta, tb, sc in cases for nib, h in sc for t in (ta, tb)
                     for slot in t.translation for piece in slot
                     for tpls in [transforms.select_templates(piece, nib, h)])
        assert want_calls < distinct < placed

    def test_equal_slots_are_not_reduced(self, monkeypatch):
        rng = random.Random(8004)
        topology = sampling.random_topology(rng, 3)
        reduced = Counter()

        def counting(t):
            reduced["reduce"] += 1
            return reduce(t)

        monkeypatch.setattr(analysis, "reduce", counting)
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
        assert reduced["reduce"] == 2 * unequal > 0


class TestComposeApps:
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
