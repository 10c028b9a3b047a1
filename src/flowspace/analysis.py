"""User-facing analyses over transforms and NIBs.

Congruence reports compare the normal forms of two applications' (or
chains') composite matrices, a sound but not complete test of equal
behaviour; behavioral differencing applies two composites
to concrete scenarios and reports where the resulting tables disagree.
Both read the slot keys each normal form keeps, in which equal
templates share one interned key object and so compare by pointer:
congruence finds its first difference by them, and differencing
selects templates only in the slots where the keys or the linear rows
differ, builds tables only in the slots whose rows or selected template
sets differ, and compares reductions only in the (match, out_port, ttl)
buckets where two tables differ (`tables.reductions_equal`).  A witness
(`Counterexample`) builds its two whole results on first read, from the
scenario's NIB and header and the work the diff already did.

Loop detection scans each flow table for entry pairs whose actions
undo each other (a packet re-entering a rule it already traversed);
what-if previews a single FLOW_MOD against a NIB, diffing tables and
reporting any loop the change would introduce.  Both pair entries through
`tables.inverse_pairs` and `tables.partners`, which read the inverse
index a table builds on first use and keeps, so a scan is linear in
table entries and a preview looks up partners of the new entries only,
through the edit the previewed table holds over its base.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    entry_key,
    flow_mod,
    inverse_pairs,
    partners,
    reductions_equal,
)
from flowspace.transforms import (
    AppTransform,
    ServiceChain,
    chain,
    is_identity_linear,
    normal_forms,
    normalize,
)


@dataclass(frozen=True, slots=True)
class Difference:
    """Where two normalized transforms first disagree."""

    slot: int | None  # None: the linear parts differ
    detail: str


@dataclass(frozen=True, slots=True)
class CongruenceReport:
    congruent: bool
    first_difference: Difference | None
    normalized_a: AppTransform
    normalized_b: AppTransform
    notes: tuple[str, ...] = ()


def _as_transform(x: ServiceChain | AppTransform) -> AppTransform:
    return chain(x) if isinstance(x, ServiceChain) else x


def _first_difference(a: AppTransform, b: AppTransform) -> Difference | None:
    """The first difference of two normal forms, found by their kept slot
    keys (a piece's key is one item of its slot's)."""
    if a.linear != b.linear:
        return Difference(None, "linear parts differ")
    for i, (ka, kb) in enumerate(zip(a.slot_keys, b.slot_keys)):
        if ka == kb:
            continue
        sa, sb = a.translation[i], b.translation[i]
        for pa, pb, x, y in zip(sa, sb, ka, kb):
            if x != y:
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
    """Decide congruence and describe the first structural difference.

    The normal forms are compared by their kept slot keys
    (`AppTransform.slot_keys`), one tuple comparison per slot, in which
    each template is one pointer test, as equal templates share one
    interned key; only the first differing slot's pieces are read to
    describe how they differ.
    """
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
    """A scenario on which two composites produce different tables.

    `result_a` and `result_b` are the two composites' results on the
    scenario's NIB and header.  A witness that `behavioral_diff` returns
    builds both the first time either is read, from that NIB and header,
    the selections it took and the tables it built; the same objects are
    returned on every later read.  Equality, repr, copying, pickling and
    `dataclasses.replace` read the fields, so such a witness behaves as
    one built with its results.
    """

    index: int
    header: Header
    result_a: NIB
    result_b: NIB
    differing_slots: tuple[int, ...]

    def __getstate__(self) -> dict:
        # Built first, so a copy or a pickle holds both results.
        _ = self.result_a
        return self.__dict__


class _Pending:
    """What a witness keeps until either result is read: the scenario's
    `Instances`, the first composite `ta`, its selections taken and the
    two composites' tables built, by slot."""

    __slots__ = ("inst", "ta", "sa", "built")

    def __init__(self, inst: transforms.Instances, ta: AppTransform,
                 sa: dict[int, transforms.Templates],
                 built: dict[int, tuple[FlowTable, FlowTable]]):
        self.inst, self.ta, self.sa, self.built = inst, ta, sa, built

    def results(self) -> tuple[NIB, NIB]:
        """`ta`'s result, from the tables built and the selections taken,
        and the second composite's, which is `ta`'s outside the built
        slots."""
        inst, ta, sa, built = self.inst, self.ta, self.sa, self.built
        nib, h = inst.nib, inst.h
        tables_a = [built[i][0] if i in built else
                    inst.table(ta, i, sa[i] if i in sa else transforms.select_slot(ta, i, nib, h))
                    for i in range(ta.dimension)]
        tables_b = list(tables_a)
        for i, (_, y) in built.items():
            tables_b[i] = y
        return (NIB(nib.topology, tuple(tables_a), nib.flows),
                NIB(nib.topology, tuple(tables_b), nib.flows))


def _result(name: str) -> property:
    """A result field, kept in the instance dict, that builds both results
    on the first read of either."""

    def get(self: Counterexample) -> NIB:
        kept = self.__dict__
        if type(kept[name]) is _Pending:
            kept["result_a"], kept["result_b"] = kept[name].results()
        return kept[name]

    def put(self: Counterexample, value: NIB | _Pending) -> None:
        self.__dict__[name] = value

    return property(get, put)


# Set after the class is made: a property in the class body would become
# the field's default.  The frozen `__init__` stores each field through
# the property's setter.
Counterexample.result_a = _result("result_a")
Counterexample.result_b = _result("result_b")


def behavioral_diff(a: ServiceChain | AppTransform,
                    b: ServiceChain | AppTransform,
                    scenarios: Sequence[tuple[NIB, Header]]) -> list[Counterexample]:
    """Apply both composites to each scenario; keep those that disagree.

    Tables are compared slotwise after cancellation normal form, so
    differences that a reduction would erase do not count.

    Slot i of a result unions the input tables that linear row i
    selects with the entries of the templates the slot selects
    (`transforms.select_slot`), so the results can differ only in slots
    whose rows or selected template sets differ.  Two normal forms whose
    kept keys agree in a slot select equal template sets there on every
    NIB and header, so once per call the "open" slots are found: those
    whose rows or normal-form keys differ.  Per scenario, only open slots
    take both composites' selections and the set test.  Equal templates
    share one interned key, so the key test and the set test take one
    pointer test per template.

    Slot counts are checked against each scenario's topology first, so
    a mismatch raises before any template is instantiated.  Then `a`
    must instantiate: when a port lookup of its templates does not
    resolve (`transforms.lookups_resolve`), `a`'s selections are taken
    and `transforms.check_instantiable` resolves the distinct selected
    templates in `a`'s apply order, so a template that cannot be
    instantiated raises as applying `a` would.  A scenario where no slot
    differs is then skipped, with no instantiation and no reduction.  Any
    other builds both composites' tables only in the differing slots,
    through one `transforms.Instances`, which instantiates each distinct
    template once; `b`'s slots are built in order, so one of its
    templates that cannot be instantiated raises as applying `b` after
    `a` would.  A built slot whose two tables differ is compared by
    `tables.reductions_equal`, which reduces only the buckets where they
    differ.

    A witness keeps that `Instances`, the selections and the built
    tables, and builds `a`'s other slots, and so both results, on the
    first read of either (see `Counterexample`); `a` is known to
    instantiate, so the read cannot raise.
    """
    ta, tb = _as_transform(a), _as_transform(b)
    rows = {i for i, (x, y) in enumerate(zip(ta.linear, tb.linear)) if x != y}
    open_slots = [i for i, (x, y) in enumerate(zip(normalize(ta).slot_keys,
                                                   normalize(tb).slot_keys))
                  if i in rows or x != y]
    # With equal slot counts, b fits every topology that a fits; with
    # unequal ones, the first scenario raises.
    sized = (ta,) if ta.dimension == tb.dimension else (ta, tb)
    out = []
    for index, (nib, h) in enumerate(scenarios):
        for t in sized:
            transforms.check_dimension(t, nib)
        sa = {}
        if not transforms.lookups_resolve(ta, nib, h):
            sa = dict(enumerate(transforms.selections(ta, nib, h)))
            transforms.check_instantiable(
                dict.fromkeys(tpl for slot in sa.values() for tpl in slot), nib, h)
        for i in open_slots:
            if i not in sa:
                sa[i] = transforms.select_slot(ta, i, nib, h)
        sb = {i: transforms.select_slot(tb, i, nib, h) for i in open_slots}
        slots = [i for i in open_slots if i in rows or set(sa[i]) != set(sb[i])]
        if not slots:
            continue
        # b's templates in the other slots are a's, which instantiate, so
        # building b's slots in order raises as applying b after a would.
        inst = transforms.Instances(nib, h)
        built = {i: (inst.table(ta, i, sa[i]), inst.table(tb, i, sb[i])) for i in slots}
        differing = tuple(i for i, (x, y) in built.items()
                          if x != y and not reductions_equal(x, y))
        if differing:
            pending = _Pending(inst, ta, sa, built)
            out.append(Counterexample(index, h, pending, pending, differing))
    return out


@dataclass(frozen=True, slots=True)
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
    as the certificate.  Each table is scanned independently, through
    `tables.inverse_pairs`.
    """
    findings = [_finding(switch, x, y) for switch, table in enumerate(nib.tables)
                for x, y in inverse_pairs(table)]
    findings.sort(key=_finding_id)
    return findings


@dataclass(frozen=True, slots=True)
class FlowModRequest:
    """A candidate FLOW_MOD: add, delete or modify one rule on one switch.

    `old_rule`, the rule a modify replaces, is given for a modify only.
    """

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
        if self.old_rule is not None:
            if self.op != "modify":
                raise InvalidRuleError(f"applies to op modify only, not {self.op!r}",
                                       "old_rule", self.old_rule)
            if not isinstance(self.old_rule, FlowRule):
                raise type_error("old_rule", self.old_rule, "a FlowRule")


@dataclass(frozen=True, slots=True)
class TableDiff:
    switch: int
    added: tuple[FlowEntry, ...]
    removed: tuple[FlowEntry, ...]


@dataclass(frozen=True, slots=True)
class WhatIfReport:
    diffs: tuple[TableDiff, ...]
    new_loops: tuple[LoopFinding, ...]
    result: NIB


def what_if(nib: NIB, candidate: FlowModRequest) -> WhatIfReport:
    """Preview a FLOW_MOD: table diffs plus any loops it would introduce.

    Only the touched switch changes, by the entries `tables.flow_mod`
    reports gained and lost, and a pair of its entries is a new loop
    only if one of them is gained; a delete introduces none.  The lost
    entries are in canonical order and the new loops in `detect_loops`'s
    order, each sorted only when it holds two or more.

    The previewed table shares a base with the touched table and holds
    only the edit (see `tables.flow_mod`), and the gained entries'
    partners are looked up through the edit and the base's index, so a
    preview builds no whole table.  While the report's result lives, a
    commit of the same FLOW_MOD on the touched table
    (`transforms.flow_mod_add`/`_delete`/`_modify`, or `tables.flow_mod`)
    returns the previewed table without doing the edit again.
    """
    n = nib.topology.switch_count
    s = candidate.switch
    if not 0 <= s < n:
        raise SlotOutOfRangeError(f"switch {s} out of range for {n} switches")
    # Only a modify has an old rule; a delete removes its rule.
    delete = candidate.op == "delete"
    old = candidate.rule if delete else candidate.old_rule
    new = None if delete else candidate.rule
    updated, gained, lost = flow_mod(nib.tables[s], old, new)
    tables = tuple(updated if i == s else t for i, t in enumerate(nib.tables))
    after = NIB(nib.topology, tables, nib.flows)
    if len(lost) > 1:
        lost = tuple(sorted(lost, key=entry_key))
    touched = TableDiff(s, gained, lost)
    # At most one entry is gained and its partners are distinct entries
    # other than it, so each pair comes once.
    loops = [_finding(s, e, p) for e in gained for p in partners(updated, e)]
    if len(loops) > 1:
        loops.sort(key=_finding_id)
    return WhatIfReport(
        diffs=tuple(touched if i == s else TableDiff(i, (), ()) for i in range(n)),
        new_loops=tuple(loops),
        result=after,
    )
