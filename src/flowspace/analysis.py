"""User-facing analyses over transforms and NIBs.

Congruence reports decide whether two applications (or chains) have the
same composite matrix; behavioral differencing applies two composites
to concrete scenarios and reports where the resulting tables disagree;
loop detection scans each flow table for entry pairs whose actions undo
each other (a packet re-entering a rule it already traversed); what-if
previews a single FLOW_MOD against a NIB, diffing tables and reporting
any loop the change would introduce.  Both find pairs through the
inverse-key index of `flowspace.tables`, so a scan is linear in table
entries and a preview looks up partners of the new entries only.

`what_if` takes the new table and its diff from `tables.flow_mod`, and
stores the index on the table a FLOW_MOD touches, so the previewed
table and a later commit to that table both derive their index from
it.  `detect_loops` reads an index a table carries and builds a
throwaway one otherwise: a single scan gains nothing by storing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from flowspace import actions, transforms
from flowspace.actions import AffineAction
from flowspace.errors import InvalidRuleError, SlotOutOfRangeError, type_error
from flowspace.headers import Header
from flowspace.nib import NIB
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    cache_inverse_index,
    entry_key,
    flow_mod,
    inverse_index,
    inverse_key,
    partner_key,
    reduce,
    table_equal,
)
from flowspace.transforms import (
    AppTransform,
    ServiceChain,
    chain,
    is_identity_linear,
    normal_forms,
)


@dataclass(frozen=True)
class Difference:
    """Where two normalized transforms first disagree."""

    slot: int | None  # None: the linear parts differ
    detail: str


@dataclass(frozen=True)
class CongruenceReport:
    congruent: bool
    first_difference: Difference | None
    normalized_a: AppTransform
    normalized_b: AppTransform
    notes: tuple[str, ...] = ()


def _as_transform(x: ServiceChain | AppTransform) -> AppTransform:
    return chain(x) if isinstance(x, ServiceChain) else x


def _first_difference(a: AppTransform, b: AppTransform) -> Difference | None:
    if a.linear != b.linear:
        return Difference(None, "linear parts differ")
    for i, (sa, sb) in enumerate(zip(a.translation, b.translation)):
        if sa == sb:
            continue
        for pa, pb in zip(sa, sb):
            if pa != pb:
                return Difference(i, f"slot {i}: {_piece_difference(pa, pb)}")
        return Difference(
            i, f"slot {i}: {len(sa)} vs {len(sb)} delta pieces"
        )
    return None


def _piece_difference(pa: transforms.GuardedDelta, pb: transforms.GuardedDelta) -> str:
    """Their guard kinds, else the first arm whose guard or templates differ."""
    ga = [type(g).__name__ for g, _ in pa.branches] or ["unconditional"]
    gb = [type(g).__name__ for g, _ in pb.branches] or ["unconditional"]
    if ga != gb:
        return f"piece guards {ga} vs {gb}"
    for k, ((g, x), (h, y)) in enumerate(zip(pa.branches, pb.branches)):
        if g != h:
            return f"piece guard {k}: {g} vs {h}"
        if x != y:
            return f"piece templates differ in arm {k} ({g})"
    return "piece templates differ in the otherwise arm"


def check_congruence(a: ServiceChain | AppTransform,
                     b: ServiceChain | AppTransform) -> CongruenceReport:
    """Decide congruence and describe the first structural difference."""
    na, nb = normal_forms(_as_transform(a), _as_transform(b))
    # Normal forms of equal slot count differ exactly where a first
    # difference exists, so its absence is the `congruent` verdict.
    first = _first_difference(na, nb)
    notes = tuple(
        f"{t.name}: non-identity linear part (a table becomes a sum of tables)"
        for t in (na, nb)
        if not is_identity_linear(t)
    )
    return CongruenceReport(
        congruent=first is None,
        first_difference=first,
        normalized_a=na,
        normalized_b=nb,
        notes=notes,
    )


@dataclass(frozen=True)
class Counterexample:
    """A scenario on which two composites produce different tables."""

    index: int
    header: Header
    result_a: NIB
    result_b: NIB
    differing_slots: tuple[int, ...]


def behavioral_diff(a: ServiceChain | AppTransform,
                    b: ServiceChain | AppTransform,
                    scenarios: Sequence[tuple[NIB, Header]]) -> list[Counterexample]:
    """Apply both composites to each scenario; keep those that disagree.

    Tables are compared slotwise after cancellation normal form, so
    differences that a reduction would erase do not count.

    Slot i of a result unions the input tables that linear row i
    selects with the entries of the templates the slot selects
    (`transforms.selections`), so the results can differ only in slots
    whose rows or selected template sets differ.  A scenario with no
    such slot is skipped, with no instantiation and no `reduce`, after
    `transforms.check_instantiable` resolves the distinct selected
    templates in `a`'s apply order, so a template that cannot be
    instantiated raises as applying `a` would.  Any other scenario
    applies `a` through one `transforms.Instances` and builds `b`'s
    table only in those slots; a built slot whose two tables are equal
    is not reduced.  Both selections come first, so a slot-count
    mismatch raises before any template is instantiated.
    """
    ta, tb = _as_transform(a), _as_transform(b)
    out = []
    for index, (nib, h) in enumerate(scenarios):
        sa = transforms.selections(ta, nib, h)
        sb = transforms.selections(tb, nib, h)
        slots = [i for i, (x, y) in enumerate(zip(sa, sb))
                 if ta.linear[i] != tb.linear[i] or set(x) != set(y)]
        if not slots:
            transforms.check_instantiable(
                dict.fromkeys(tpl for slot in sa for tpl in slot), nib, h)
            continue
        # b's templates in the other slots are a's, so building b's
        # slots in order instantiates b's new templates in its apply
        # order, and raises as applying b after a would.
        inst = transforms.Instances(nib, h)
        ra = inst.apply(ta, sa)
        tables_b = list(ra.tables)
        for i in slots:
            tables_b[i] = inst.table(tb.linear[i], sb[i])
        rb = NIB(nib.topology, tuple(tables_b), nib.flows)
        differing = tuple(
            i for i in slots
            if not table_equal(x := ra.tables[i], y := rb.tables[i])
            and not table_equal(reduce(x), reduce(y))
        )
        if differing:
            out.append(Counterexample(index, h, ra, rb, differing))
    return out


@dataclass(frozen=True)
class LoopFinding:
    """Two entries in one table whose actions compose to the identity."""

    switch: int
    entry_a: FlowEntry
    entry_b: FlowEntry
    certificate: AffineAction

    def __post_init__(self):
        if not actions.is_identity(self.certificate):
            raise InvalidRuleError("must be the identity action", "certificate", self.certificate)


def _finding(switch: int, x: FlowEntry, y: FlowEntry) -> LoopFinding:
    a, b = sorted((x, y), key=entry_key)
    return LoopFinding(switch, a, b, actions.compose(a.rule.action, b.rule.action))


def _finding_id(f: LoopFinding) -> tuple:
    return (f.switch, entry_key(f.entry_a), entry_key(f.entry_b))


def detect_loops(nib: NIB) -> list[LoopFinding]:
    """Scan every table for additive-inverse entry pairs.

    Entries pair only when match, output port and ttl agree and their
    actions are mutual inverses; the composed (identity) action is kept
    as the certificate.  Each table is scanned independently: its
    entries are indexed by inverse key and every group is paired with
    the group under its partner key.
    """
    findings = []
    for switch, table in enumerate(nib.tables):
        index = inverse_index(table)
        for key, group in index.items():
            pkey = partner_key(key)
            if pkey == key:  # a self-inverse rule under several counters
                pairs = combinations(group, 2)
            elif key[3] < pkey[3]:  # the keys differ in translation only; pair once
                pairs = product(group, index.get(pkey, ()))
            else:
                continue
            findings.extend(_finding(switch, x, y) for x, y in pairs)
    findings.sort(key=_finding_id)
    return findings


@dataclass(frozen=True)
class FlowModRequest:
    """A candidate FLOW_MOD: add, delete or modify one rule on one switch."""

    op: str
    switch: int
    rule: FlowRule
    old_rule: FlowRule | None = None

    def __post_init__(self):
        if self.op not in ("add", "delete", "modify"):
            raise InvalidRuleError(f"must be add/delete/modify, not {self.op!r}", "op", self.op)
        if type(self.switch) is not int:
            raise type_error("switch", self.switch)
        if not isinstance(self.rule, FlowRule):
            raise type_error("rule", self.rule, "a FlowRule")
        if self.op == "modify" and self.old_rule is None:
            raise InvalidRuleError("modify needs the rule being replaced")
        if self.old_rule is not None and not isinstance(self.old_rule, FlowRule):
            raise type_error("old_rule", self.old_rule, "a FlowRule")


@dataclass(frozen=True)
class TableDiff:
    switch: int
    added: tuple[FlowEntry, ...]
    removed: tuple[FlowEntry, ...]


@dataclass(frozen=True)
class WhatIfReport:
    diffs: tuple[TableDiff, ...]
    new_loops: tuple[LoopFinding, ...]
    result: NIB


def what_if(nib: NIB, candidate: FlowModRequest) -> WhatIfReport:
    """Preview a FLOW_MOD: table diffs plus any loops it would introduce.

    Only the touched switch changes, by the entries `tables.flow_mod`
    reports gained and lost, and a pair of its entries is a new loop
    only if one of them is gained; a delete introduces none.

    The touched table's inverse index is built once and stored on it
    (see `tables.cache_inverse_index`).  The previewed table derives its
    index from that one, copying only the groups the FLOW_MOD touches,
    and so does a table that `flow_mod` later commits from the same
    parent; the partners are looked up in the derived index.
    """
    n = nib.topology.switch_count
    s = candidate.switch
    if not 0 <= s < n:
        raise SlotOutOfRangeError(f"switch {s} out of range for {n} switches")
    table = nib.tables[s]
    cache_inverse_index(table)  # the preview and a later commit both derive from it
    old, new = {"add": (None, candidate.rule), "delete": (candidate.rule, None),
                "modify": (candidate.old_rule, candidate.rule)}[candidate.op]
    updated, gained, lost = flow_mod(table, old, new)
    tables = tuple(updated if i == s else t for i, t in enumerate(nib.tables))
    after = NIB(nib.topology, tables, nib.flows)
    touched = TableDiff(s, tuple(gained), tuple(sorted(lost, key=entry_key)))
    pairs = set()
    index = inverse_index(updated)  # derived from the parent's, not rebuilt
    for e in touched.added:
        key = inverse_key(e.rule)
        if key is not None:
            pairs.update(frozenset((e, p)) for p in index.get(partner_key(key), ()) if p != e)
    return WhatIfReport(
        diffs=tuple(touched if i == s else TableDiff(i, (), ()) for i in range(n)),
        new_loops=tuple(sorted((_finding(s, *pair) for pair in pairs), key=_finding_id)),
        result=after,
    )
