"""Independent oracles used by the test suite.

The structured action algebra is checked against literal dense
homogeneous matrices multiplied by numpy.  Entries stay exact in
int64: diagonals are 0/1, translations are < 2**48, and a product row
sums at most 15 such terms, well under 2**63.

Cancellation, loop scans and what-if previews are checked against the
all-pairs algorithms they replaced: they compose every candidate pair
of actions and index nothing.  The FLOW_MOD operations are checked
against the set operations they replaced, which rebuild the whole
table and carry no index; the what-if oracle applies FLOW_MODs through
them, so it does not test the derived index against itself.  The
shared-base `tables.flow_mod` is also checked against the edit it
replaced, `flow_mod_oracle`, which copies its parent's entry set and
index on every FLOW_MOD; it keeps its memo in the table's `_last` slot,
as the library does, so it runs on a chain of tables of its own.

The NIB statistics are checked against the linear scans they replaced:
each lookup walks every observed flow.

The normal form is checked against the merge-pass fixpoint it replaced:
each pass merges pieces with equal guard sequences, re-sorting the
merged template lists, and passes repeat until nothing changes.

The concrete-action decoder is checked against the one it replaced:
it builds one validated action per step and composes them pairwise,
and checks keys against a frozenset built on every call.  Both take a
`seq`'s steps through the same array check.

Behavioural diffs are checked against the loop they replaced: it
applies each composite to each scenario on its own, through the apply
loop that instantiates every selected template again for every slot
that selects it, and reduces every slot of both results.  Composition
is checked against the entrywise matrix product it replaced, which
XORs n terms for each of the n * n entries.  Both it and the apply
oracle read a transform's linear part as dense 0/1 rows (`dense_rows`),
so they take nothing from the row supports the library stores.

A congruence report's first difference is checked against the walk
that kept slot keys replaced: it compares the normal forms' slots and
then their pieces by dataclass equality, down to template equality.

Congruence has one verdict in the library, `analysis.check_congruence`.
`congruent` here is the structural verdict it is built on, equality of
normal forms, which the tests state laws with; `is_translation_only`
likewise serves the tests only.

Template instantiation is checked against the recursive instantiation
that kept plans replaced: `instantiate` walks the template's action
spec, nested `seq`s included, into one `ActionFold` on every call
(`fold_action`), and builds the exact pattern, the rule and the entry
through their checked constructors.  It shares only `ActionFold`,
`resolve_port` and `resolve_value` with the library, and takes no
private name from `flowspace.transforms`.

Template equality is checked against the field-by-field comparison
that key-based equality replaced, and the flat pattern key against the
nested one it replaced, by the orders they give.

The scenario decoder is checked against the whole-document decode that
per-section decoding replaced: one function that decodes every section
in file order, each app as it is met, and looks chains' stages up in
the apps decoded so far.  Its item decoders are the located ones that
building JSON paths only on failure replaced: each formats the path of
every item and field as it reads it, and `_located` puts the path on a
constructor's error.  They share only the constructors with the
library.  `random_document` gives seeded valid documents for it and for
the CLI's commands.

The one loop that decodes a document's observed flows is checked
against the per-item path it replaced (`flows_from_obj_oracle`): each
flow goes through a decoder of its own, which reads its header through
another and builds it with `Flow`'s checked constructor, and an error
takes one segment of its JSON path from each level it leaves.

Template actions are also checked against the instantiation that
`ActionFold` replaced (`build_action_oracle`): it builds one validated
action per step and composes them pairwise, and takes every `set_field`
delta from the steered header, so it agrees with the fold only on specs
with no `set_field` after a `drop` or after a `set_field` of the same
field.
"""

from __future__ import annotations

import weakref

import numpy as np

from flowspace import actions
from flowspace.actions import PORT_SLOT, STATE_MASKS, STATE_SIZE, ActionFold, AffineAction
from flowspace.analysis import (
    Counterexample,
    Difference,
    FlowModRequest,
    LoopFinding,
    TableDiff,
    _as_transform,
    _piece_difference,
)
from flowspace.errors import (
    DimensionMismatchError,
    InvalidRuleError,
    RuleNotFoundError,
    ScenarioFormatError,
    SlotOutOfRangeError,
    UnknownFieldError,
)
from flowspace.headers import (
    FIELD_COUNT,
    FIELD_INDEX,
    FIELDS,
    Header,
    MatchPattern,
    dest_of,
    field_delta,
    field_index,
    src_of,
)
from flowspace.nib import NIB, Flow, Topology
from flowspace.sampling import (
    random_app,
    random_collision_table,
    random_flows,
    random_header,
    random_topology,
)
from flowspace.scenario import FORMAT_VERSION, MAX_SEQ_DEPTH, Scenario
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    add,
    entry_key,
    inverse_index,
    inverse_key,
    reduce,
)
from flowspace.transforms import (
    ActionSpec,
    AppTransform,
    Branch,
    DeltaSum,
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
    Templates,
    TrueGuard,
    guard_key,
    is_identity_linear,
    make_app,
    normal_forms,
    normalize,
    resolve_port,
    resolve_value,
    select_templates,
    template_key,
)

DIM = STATE_SIZE + 1


def dense(a: AffineAction) -> np.ndarray:
    m = np.zeros((DIM, DIM), dtype=np.int64)
    for i in range(STATE_SIZE):
        m[i, i] = a.linear[i]
        m[i, STATE_SIZE] = a.translation[i]
    m[STATE_SIZE, STATE_SIZE] = 1
    return m


def mod_reduce(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    for i, mask in enumerate(STATE_MASKS):
        out[i, :] &= mask
    return out


def dense_product(a: AffineAction, b: AffineAction) -> np.ndarray:
    """The mod-reduced dense product: apply b, then a."""
    return mod_reduce(dense(a) @ dense(b))


DENSE_IDENTITY = np.eye(DIM, dtype=np.int64)


def dense_pair_is_identity(a: AffineAction, b: AffineAction) -> bool:
    return bool((dense_product(a, b) == DENSE_IDENTITY).all())


def dense_apply(a: AffineAction, state: tuple[int, ...]) -> tuple[int, ...]:
    vec = np.array(list(state) + [1], dtype=np.int64)
    out = dense(a) @ vec
    return tuple(int(out[i]) & STATE_MASKS[i] for i in range(STATE_SIZE))


def loop_pairs_oracle(table: FlowTable) -> set[frozenset]:
    """Brute-force all-pairs scan for additive-inverse entries."""
    entries = table.entries
    found = set()
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            ri, rj = entries[i].rule, entries[j].rule
            if (ri.match, ri.out_port, ri.ttl) != (rj.match, rj.out_port, rj.ttl):
                continue
            if dense_pair_is_identity(ri.action, rj.action):
                found.add(frozenset((entries[i], entries[j])))
    return found


def mutually_inverse(r1: FlowRule, r2: FlowRule) -> bool:
    return (
        r1.match == r2.match
        and r1.out_port == r2.out_port
        and r1.ttl == r2.ttl
        and actions.is_identity(actions.compose(r1.action, r2.action))
    )


def reduce_oracle(t: FlowTable) -> FlowTable:
    """Cancellation by restarting an all-pairs scan after every removal.

    Each round removes the lowest-ordered cancellable group: a single
    self-inverse entry, or an entry and its lowest-ordered partner.
    """
    entries = list(t.entries)
    while True:
        best: tuple[int, ...] | None = None
        for i, ei in enumerate(entries):
            if mutually_inverse(ei.rule, ei.rule):
                best = (i,)
                break  # (i,) precedes every (i, j) and any later candidate
            for j in range(i + 1, len(entries)):
                if mutually_inverse(ei.rule, entries[j].rule):
                    best = (i, j)
                    break
            if best is not None:
                break
        if best is None:
            return FlowTable(entries)
        for k in sorted(best, reverse=True):
            del entries[k]


def detect_loops_oracle(nib: NIB) -> list[LoopFinding]:
    """Every pair i < j of each table, in canonical order, that composes
    to the identity."""
    findings = []
    for switch, table in enumerate(nib.tables):
        entries = table.entries
        for i, ea in enumerate(entries):
            for eb in entries[i + 1:]:
                if mutually_inverse(ea.rule, eb.rule):
                    findings.append(LoopFinding(
                        switch, ea, eb, actions.compose(ea.rule.action, eb.rule.action),
                    ))
    return findings


def _finding_id(f: LoopFinding) -> tuple:
    return (f.switch, entry_key(f.entry_a), entry_key(f.entry_b))


def flow_mod_add_oracle(t: FlowTable, r: FlowRule) -> FlowTable:
    """Install a rule; new entries start with a zero counter."""
    return add(t, FlowTable([FlowEntry(r, 0)]))


def flow_mod_delete_oracle(t: FlowTable, r: FlowRule) -> FlowTable:
    """Remove every entry whose rule equals r (counters included)."""
    keep = [e for e in t._entries if e.rule != r]
    if len(keep) == len(t):
        raise RuleNotFoundError(f"no entry with rule {r!r}")
    return FlowTable(keep)


def flow_mod_modify_oracle(t: FlowTable, old: FlowRule, new: FlowRule) -> FlowTable:
    """Replace old with new; the new entry's counter restarts at zero."""
    return flow_mod_add_oracle(flow_mod_delete_oracle(t, old), new)


def flow_mod_oracle(t: FlowTable, old: FlowRule | None, new: FlowRule | None
                    ) -> tuple[FlowTable, tuple[FlowEntry, ...], tuple[FlowEntry, ...]]:
    """One FLOW_MOD: `t` without every entry of rule `old` (there must be
    one, else `RuleNotFoundError`) plus rule `new` with a zero counter,
    and the entries that table gained and lost, unsorted, as tuples.  An
    add has no `old`, a delete no `new`.

    An invertible rule's entries are one lookup away in `t`'s inverse
    index, since equal inverse keys mean equal rules; a singular (drop)
    rule takes a scan.  frozenset difference and union reuse the stored
    entry hashes, so the table is not rehashed.  The new table's index
    is a copy of `t`'s without `old`'s group, all of whose entries are
    lost, and with the gained entry put first in its rule's group, where
    its zero counter sorts first; no group is rebuilt or rehashed.

    `t` remembers its last edit, with a weak reference to the new table,
    so while that table lives the same edit again (equal `old` and
    `new`, as when a previewed FLOW_MOD is committed) returns the same
    table, gained and lost.  The reference is weak so that a long-lived
    table does not keep every table derived from it alive.
    """
    last = t._last
    if last is not None:
        o, n, ref = last[:3]
        out = ref()
        if out is not None and (o is old or o == old) and (n is new or n == new):
            return out, last[3], last[4]
    entries, index = t._entries, dict(inverse_index(t))
    lost: tuple[FlowEntry, ...] = ()
    gained: tuple[FlowEntry, ...] = ()
    if old is not None:
        key = inverse_key(old)
        if key is not None:
            lost = index.pop(key, ())
        else:
            port = old.out_port  # comparing the port first spares most entries a dataclass __eq__
            lost = tuple(e for e in entries if e.rule.out_port == port and e.rule == old)
        if not lost:
            raise RuleNotFoundError(f"no entry with rule {old!r}")
        entries = entries.difference(lost)
    if new is not None:
        e = FlowEntry(new, 0)
        size = len(entries)
        entries = entries.union((e,))
        if len(entries) > size:  # not held after the removal
            key = inverse_key(new)
            if key is not None:
                index[key] = (e,) + index.get(key, ())
            if e in lost:  # a rule modified into itself keeps its zero-counter entry
                lost = tuple(x for x in lost if x != e)
            else:
                gained = (e,)
    out = FlowTable(entries)
    out._index = index
    t._last = (old, new, weakref.ref(out), gained, lost)
    return out, gained, lost


def apply_flow_mod(nib: NIB, candidate: FlowModRequest) -> NIB:
    table = nib.tables[candidate.switch]
    if candidate.op == "add":
        updated = flow_mod_add_oracle(table, candidate.rule)
    elif candidate.op == "delete":
        updated = flow_mod_delete_oracle(table, candidate.rule)
    else:
        updated = flow_mod_modify_oracle(table, candidate.old_rule, candidate.rule)
    tables = tuple(
        updated if i == candidate.switch else t for i, t in enumerate(nib.tables)
    )
    return NIB(nib.topology, tables, nib.flows)


def what_if_new_loops_oracle(nib: NIB, candidate: FlowModRequest) -> tuple[LoopFinding, ...]:
    """Scan the whole NIB before and after the FLOW_MOD; keep the new findings."""
    before_ids = {_finding_id(f) for f in detect_loops_oracle(nib)}
    after = apply_flow_mod(nib, candidate)
    return tuple(f for f in detect_loops_oracle(after) if _finding_id(f) not in before_ids)


def table_diffs_oracle(before: NIB, after: NIB) -> tuple[TableDiff, ...]:
    """Set differences of every table pair, each side in canonical order."""
    diffs = []
    for i, (tb, ta) in enumerate(zip(before.tables, after.tables)):
        b, a = set(tb), set(ta)
        diffs.append(TableDiff(i, tuple(sorted(a - b, key=entry_key)),
                               tuple(sorted(b - a, key=entry_key))))
    return tuple(diffs)


def count_by_src_oracle(nib: NIB, h: Header) -> int:
    """Number of observed flows sharing h's source field, by a full scan."""
    want = src_of(h)
    return sum(1 for f in nib.flows if src_of(f.header) == want)


def count_by_dest_oracle(nib: NIB, server: int) -> int:
    """Number of observed flows whose effective destination is `server`, by a full scan."""
    return sum(1 for f in nib.flows if f.effective_dest() == server)


def effective_dest_of_header_oracle(nib: NIB, h: Header) -> int:
    """The first balancer assignment of an observed flow equal to h, else h's destination."""
    for f in nib.flows:
        if f.header == h and f.assigned_dest is not None:
            return f.assigned_dest
    return dest_of(h)


def _canon_templates(templates: Templates) -> Templates:
    return tuple(sorted(set(templates), key=template_key))


def _canon_piece(piece: GuardedDelta) -> GuardedDelta:
    """Semantics-preserving canonical form of one piece.

    Later arms repeating an earlier guard are dead (first match wins)
    and are dropped; an always-true arm swallows everything after it
    into the otherwise arm; if every arm selects the same templates as
    the otherwise arm, the piece is unconditional.
    """
    default = _canon_templates(piece.default)
    branches: list[Branch] = []
    seen: set[tuple] = set()
    for guard, templates in piece.branches:
        key = guard_key(guard)
        if key in seen:
            continue
        templates = _canon_templates(templates)
        if isinstance(guard, TrueGuard):
            default = templates
            break
        seen.add(key)
        branches.append((guard, templates))
    if all(tpls == default for _, tpls in branches):
        branches = []
    return GuardedDelta(tuple(branches), default)


def _piece_key(piece: GuardedDelta) -> tuple:
    return (
        tuple(guard_key(g) for g, _ in piece.branches),
        tuple(tuple(template_key(t) for t in tpls) for _, tpls in piece.branches),
        tuple(template_key(t) for t in piece.default),
    )


def _merge_pass(pieces: tuple[GuardedDelta, ...]) -> tuple[GuardedDelta, ...]:
    grouped: dict[tuple, GuardedDelta] = {}
    for piece in pieces:
        sig = tuple(guard_key(g) for g, _ in piece.branches)
        other = grouped.get(sig)
        if other is None:
            grouped[sig] = piece
        else:
            # merging keeps the arm structure, so every piece stored under
            # sig still carries sig's arms; collapses happen only in the
            # canonicalization below, feeding the next pass
            grouped[sig] = GuardedDelta(
                tuple(
                    (g1, _canon_templates(t1 + t2))
                    for (g1, t1), (_, t2) in zip(other.branches, piece.branches)
                ),
                _canon_templates(other.default + piece.default),
            )
    out = (_canon_piece(p) for p in grouped.values())
    return tuple(p for p in out if p.branches or p.default)


def _canon_sum(pieces: DeltaSum) -> DeltaSum:
    """Canonicalize a formal sum of pieces.

    Pieces with identical guard sequences always fire the same arm
    index, so they merge arm-wise (template-list union); pieces that
    contribute nothing vanish; the survivors sort canonically.  Merging
    can collapse a piece to a new guard sequence (arms agreeing with
    the otherwise arm), so passes repeat until a fixpoint.
    """
    current = tuple(
        p for p in (_canon_piece(x) for x in pieces) if p.branches or p.default
    )
    while True:
        merged = _merge_pass(current)
        if merged == current:
            return tuple(sorted(merged, key=_piece_key))
        current = merged


def normalize_oracle(a: AppTransform) -> AppTransform:
    """The normal form by merge passes repeated until a fixpoint."""
    return AppTransform(a.name, a.linear, tuple(_canon_sum(s) for s in a.translation))


def congruent(a: AppTransform, b: AppTransform) -> bool:
    """The structural verdict: equality of composite matrices, decided on normal forms."""
    na, nb = normal_forms(a, b)
    return na.linear == nb.linear and na.translation == nb.translation


def first_difference_oracle(a: AppTransform, b: AppTransform) -> Difference | None:
    """Where two normal forms first differ, found by comparing slots and
    then pieces by dataclass equality, down to template equality."""
    if a.linear != b.linear:
        return Difference(None, "linear parts differ")
    for i, (sa, sb) in enumerate(zip(a.translation, b.translation)):
        if sa == sb:
            continue
        for pa, pb in zip(sa, sb):
            if pa != pb:
                return Difference(i, f"slot {i}: {_piece_difference(pa, pb)}")
        return Difference(i, f"slot {i}: {len(sa)} vs {len(sb)} delta pieces")
    return None


def is_translation_only(a: AppTransform) -> bool:
    """True when the transform only adds unconditional deltas.

    Such transforms commute under composition (union is commutative),
    so chains built from them are order-insensitive.
    """
    return is_identity_linear(a) and all(
        not piece.branches for s in normalize(a).translation for piece in s)


def instantiate(tpl: RuleTemplate, nib: NIB, h: Header) -> FlowEntry:
    """One template's entry for (nib, h), every part built and checked anew.

    Ports are resolved in the library's order: the out port, then each
    `Forward` port in step order.
    """
    match = MatchPattern(h.values) if isinstance(tpl.match, InputHeader) else tpl.match
    rule = FlowRule(
        match=match,
        out_port=resolve_port(tpl.out_port, nib, h),
        ttl=tpl.ttl,
        action=fold_action(tpl.action, nib, h),
    )
    return FlowEntry(rule, tpl.counter)


def fold_action(spec: ActionSpec, nib: NIB, h: Header) -> AffineAction:
    """The concrete action of a template action for header h.

    The steps, nested `seq`s included, fold left to right into one
    `ActionFold`.  A `set_field` translates its field by the distance
    from the value the earlier steps leave there to the target, so
    applying the action to h's rule state sets the field to the target.
    """
    fold = ActionFold()
    _fold_spec(spec, nib, h, fold)
    return fold.action()


def _fold_spec(spec: ActionSpec, nib: NIB, h: Header, fold: ActionFold) -> None:
    if isinstance(spec, Drop):
        fold.drop()
    elif isinstance(spec, Forward):
        fold.translate(PORT_SLOT, resolve_port(spec.port, nib, h))
    elif isinstance(spec, SetField):
        i = field_index(spec.field)
        target = resolve_value(spec.to, nib)
        fold.translate(i, field_delta(fold.value(i, h.values[i]), target, FIELDS[i].width))
    else:
        for step in spec.steps:
            _fold_spec(step, nib, h, fold)


def _check_keys(obj: dict, allowed: tuple[str, ...] | frozenset[str], what: str) -> None:
    if obj.keys() <= frozenset(allowed):
        return
    unknown = sorted(set(obj) - set(allowed))
    raise ScenarioFormatError(f"unknown keys in {what}: {unknown}")


def action_from_obj_oracle(obj, what: str = "action") -> AffineAction:
    obj = _require_obj(obj, what)
    kind = _require(obj, "kind", what)
    if kind == "drop":
        _check_keys(obj, ("kind",), what)
        return actions.drop()
    if kind == "forward":
        _check_keys(obj, ("kind", "delta"), what)
        return actions.forward(_int(_require(obj, "delta", what), f"{what}.delta"))
    if kind == "modify":
        _check_keys(obj, ("kind", "field", "delta"), what)
        return actions.modify_field(
            _field(_require(obj, "field", what), f"{what}.field"),
            _int(_require(obj, "delta", what), f"{what}.delta"),
        )
    if kind == "seq":
        _check_keys(obj, ("kind", "actions"), what)
        acc = actions.identity()
        for i, sub in enumerate(_require_list(_require(obj, "actions", what), f"{what}.actions")):
            acc = actions.compose(action_from_obj_oracle(sub, f"{what}[{i}]"), acc)
        return acc
    raise ScenarioFormatError(f"{what}: unknown action kind {kind!r}")


def build_action_oracle(spec: ActionSpec, nib: NIB, h: Header) -> AffineAction:
    if isinstance(spec, Drop):
        return actions.drop()
    if isinstance(spec, Forward):
        return actions.forward(resolve_port(spec.port, nib, h))
    if isinstance(spec, SetField):
        i = field_index(spec.field)
        target = resolve_value(spec.to, nib)
        delta = field_delta(h.values[i], target, FIELDS[i].width)
        return actions.modify_field(i, delta)
    result = actions.identity()
    for step in spec.steps:
        result = actions.compose(build_action_oracle(step, nib, h), result)
    return result


def apply_transform_oracle(a: AppTransform, nib: NIB, h: Header) -> NIB:
    """One transform applied on its own, each selected template
    instantiated where it is selected."""
    n = nib.topology.switch_count
    if a.dimension != n:
        raise DimensionMismatchError(
            f"transform has {a.dimension} slots, topology has {n} switches"
        )
    new_tables = []
    for i, row in enumerate(dense_rows(a).tolist()):
        acc = FlowTable()
        for j, coeff in enumerate(row):
            if coeff:
                acc = add(acc, nib.tables[j])
        entries = [instantiate(tpl, nib, h)
                   for piece in a.translation[i]
                   for tpl in select_templates(piece, nib, h)]
        new_tables.append(add(acc, FlowTable(entries)))
    return NIB(nib.topology, tuple(new_tables), nib.flows)


def behavioral_diff_oracle(a: ServiceChain | AppTransform,
                           b: ServiceChain | AppTransform,
                           scenarios) -> list[Counterexample]:
    """Apply both composites to each scenario; keep those that disagree.

    Tables are compared slotwise after cancellation normal form, so
    differences that a reduction would erase do not count.
    """
    ta, tb = _as_transform(a), _as_transform(b)
    out = []
    for index, (nib, h) in enumerate(scenarios):
        ra = apply_transform_oracle(ta, nib, h)
        rb = apply_transform_oracle(tb, nib, h)
        differing = tuple(
            i for i, (x, y) in enumerate(zip(ra.tables, rb.tables))
            if reduce(x) != reduce(y)
        )
        if differing:
            out.append(Counterexample(index, h, ra, rb, differing))
    return out


def dense_rows(a: AppTransform) -> np.ndarray:
    """The linear part as an n x n array of entries 0 or 1."""
    m = np.zeros((a.dimension, a.dimension), dtype=np.int64)
    for i, support in enumerate(a.linear):
        m[i, list(support)] = 1
    return m


def compose_apps_oracle(second: AppTransform, first: AppTransform) -> AppTransform:
    """The transform applying `first` and then `second`.

    Linear parts multiply over the two-element field; slot i's delta
    gains the first transform's deltas for every slot selected by
    second's row i, followed by second's own delta.
    """
    n = first.dimension
    if second.dimension != n:
        raise DimensionMismatchError(
            f"cannot compose {second.dimension}-slot with {n}-slot transform"
        )
    s, f = dense_rows(second).tolist(), dense_rows(first).tolist()
    linear = tuple(
        tuple(k for k in range(n) if _xor_all(s[i][j] & f[j][k] for j in range(n)))
        for i in range(n)
    )
    translation = []
    for i in range(n):
        pieces: list[GuardedDelta] = []
        for j in range(n):
            if s[i][j]:
                pieces.extend(first.translation[j])
        pieces.extend(second.translation[i])
        translation.append(tuple(pieces))
    return AppTransform(
        f"{second.name}*{first.name}", linear, tuple(translation)
    )


def template_eq_oracle(a: RuleTemplate, b: RuleTemplate) -> bool:
    """Equality as the dataclass compares: same class, equal field tuples."""
    return a.__class__ is b.__class__ and (
        (a.match, a.out_port, a.ttl, a.action, a.counter)
        == (b.match, b.out_port, b.ttl, b.action, b.counter))


def pattern_key_oracle(p: MatchPattern) -> tuple:
    """Total-order key: exact entries sort before wildcards, nested per field."""
    return tuple((0, e) if e is not None else (1, 0) for e in p.entries)


def entry_key_oracle(e: FlowEntry) -> tuple:
    r = e.rule
    return (pattern_key_oracle(r.match), r.out_port, r.ttl, actions.action_key(r.action),
            e.counter)


def _xor_all(bits) -> int:
    acc = 0
    for b in bits:
        acc ^= b
    return acc


# ---------------------------------------------------------------------------
# The located item decoders, as `flowspace.scenario` had them before it
# built JSON paths only on failure: each formats the path of every item
# and field it reads, and `_located` puts it on a constructor's error.


_KIND_KEYS = frozenset(("kind",))
_FORWARD_KEYS = frozenset(("kind", "delta"))
_MODIFY_KEYS = frozenset(("kind", "field", "delta"))
_SEQ_KEYS = frozenset(("kind", "actions"))
_ENTRY_KEYS = frozenset(("match", "out_port", "ttl", "action", "counter"))
_FLOW_KEYS = frozenset(("header", "assigned_dest"))
_TOPOLOGY_KEYS = frozenset(("switches", "ports", "server_ports"))
_THRESHOLD_KEYS = frozenset(("kind", "threshold"))
_SERVER_PAIR_KEYS = frozenset(("kind", "server_a", "server_b"))
_PORT_KEYS = frozenset(("kind", "port"))
_SET_FIELD_KEYS = frozenset(("kind", "field", "to"))
_DELTA_KEYS = frozenset(("branches", "default"))
_BRANCH_KEYS = frozenset(("guard", "rules"))
_APP_KEYS = frozenset(("name", "slot", "delta"))
_FIELD_NAMES = frozenset(FIELD_INDEX)
_FIELD_ORDER = tuple(FIELD_INDEX)
_ZEROS = (0,) * FIELD_COUNT


def _require_obj(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{what} must be an array, got {type(value).__name__}")
    return value


def _require(obj: dict, key: str, what: str):
    if key not in obj:
        raise ScenarioFormatError(f"{what} is missing required key {key!r}")
    return obj[key]


def _int(value, what: str) -> int:
    """A JSON integer, taken as is: bools, floats and strings are rejected."""
    if type(value) is not int:
        raise ScenarioFormatError(f"{what} must be an int, got {type(value).__name__}")
    return value


def _located(exc: InvalidRuleError, path: str) -> ScenarioFormatError:
    """A constructor's error about one value, reported at the value's JSON path."""
    if exc.width is not None:
        return ScenarioFormatError(f"{path}={exc.value} exceeds {exc.width}-bit range")
    return ScenarioFormatError(f"{path} {exc.reason}")


def _build(what: str, make, *args):
    """`make(*args)`, a value error reported at its field's path in the object at `what`."""
    try:
        return make(*args)
    except InvalidRuleError as exc:
        raise _located(exc, f"{what}.{exc.field}") from None


def _address_key(key: str, what: str) -> int:
    """An address written as an object key: canonical decimal, so that
    signs, spaces, underscores and leading zeros cannot make two keys
    name one server.  `Topology` checks its range."""
    try:
        value = int(key)
    except (TypeError, ValueError):
        value = None
    if value is None or str(value) != key:
        raise ScenarioFormatError(f"{what} key {key!r} is not a decimal address")
    return value


def _field(value, what: str) -> str:
    """A field name: the integer field indices of the library have no wire form."""
    if not isinstance(value, str):
        raise ScenarioFormatError(f"{what} must be a field name, got {type(value).__name__}")
    if value not in FIELD_INDEX:
        raise ScenarioFormatError(f"{what} must be a header field name, got {value!r}")
    return value


def header_from_obj(obj, what: str = "header") -> Header:
    obj = _require_obj(obj, what)
    _check_keys(obj, _FIELD_NAMES, what)
    try:  # not through `_build`: a NIB's flows make this the hottest path
        return Header(tuple(map(obj.get, _FIELD_ORDER, _ZEROS)))
    except InvalidRuleError as exc:
        raise _located(exc, f"{what}.{exc.field}") from None


def pattern_from_obj(obj, what: str = "match") -> MatchPattern:
    obj = _require_obj(obj, what)
    _check_keys(obj, _FIELD_NAMES, what)
    if None in obj.values():  # a wildcard is written by leaving its field out
        name = next(name for name, value in obj.items() if value is None)
        raise ScenarioFormatError(f"{what}.{name} must be an int, got NoneType")
    return _build(what, MatchPattern, tuple(map(obj.get, _FIELD_ORDER)))


def action_from_obj(obj, what: str = "action") -> AffineAction:
    fold = actions.ActionFold()
    _fold_action(obj, what, fold)
    return fold.action()


def _fold_action(obj, what: str, fold: actions.ActionFold) -> None:
    """Check one concrete action and apply it after the steps in `fold`;
    a `seq` applies its steps in order, nested ones included."""
    obj = _require_obj(obj, what)
    kind = _require(obj, "kind", what)
    if kind == "drop":
        _check_keys(obj, _KIND_KEYS, what)
        fold.drop()
    elif kind == "forward":
        _check_keys(obj, _FORWARD_KEYS, what)
        fold.translate(PORT_SLOT, _int(_require(obj, "delta", what), f"{what}.delta"))
    elif kind == "modify":
        _check_keys(obj, _MODIFY_KEYS, what)
        name = _field(_require(obj, "field", what), f"{what}.field")
        fold.translate(FIELD_INDEX[name], _int(_require(obj, "delta", what), f"{what}.delta"))
    elif kind == "seq":
        _check_keys(obj, _SEQ_KEYS, what)
        for i, sub in enumerate(_require_list(_require(obj, "actions", what), f"{what}.actions")):
            _fold_action(sub, f"{what}[{i}]", fold)
    else:
        raise ScenarioFormatError(f"{what}: unknown action kind {kind!r}")


def _rule(obj: dict, what: str) -> FlowRule:
    """The rule of a rule or entry object whose keys are checked."""
    return _build(what, FlowRule,
                  pattern_from_obj(_require(obj, "match", what), f"{what}.match"),
                  _require(obj, "out_port", what), _require(obj, "ttl", what),
                  action_from_obj(_require(obj, "action", what), f"{what}.action"))


def entry_from_obj(obj, what: str = "entry") -> FlowEntry:
    obj = _require_obj(obj, what)
    _check_keys(obj, _ENTRY_KEYS, what)
    return _build(what, FlowEntry, _rule(obj, what), obj.get("counter", 0))


def table_from_obj(obj, what: str = "table") -> FlowTable:
    return FlowTable(entry_from_obj(e, f"{what}[{i}]")
                     for i, e in enumerate(_require_list(obj, what)))


def flow_from_obj(obj, what: str = "flow") -> Flow:
    obj = _require_obj(obj, what)
    _check_keys(obj, _FLOW_KEYS, what)
    header = header_from_obj(_require(obj, "header", what), f"{what}.header")
    try:  # not through `_build`, as in `header_from_obj`
        return Flow(header, obj.get("assigned_dest"))
    except InvalidRuleError as exc:
        raise _located(exc, f"{what}.{exc.field}") from None


def topology_from_obj(obj, what: str = "topology") -> Topology:
    obj = _require_obj(obj, what)
    _check_keys(obj, _TOPOLOGY_KEYS, what)
    ports = _require_obj(obj.get("ports", {}), f"{what}.ports")
    server_ports = {
        _address_key(k, f"{what}.server_ports"): v
        for k, v in _require_obj(obj.get("server_ports", {}), f"{what}.server_ports").items()
    }
    return _build(what, Topology, _require(obj, "switches", what), ports, server_ports)


def guard_from_obj(obj, what: str = "guard"):
    obj = _require_obj(obj, what)
    kind = _require(obj, "kind", what)
    if kind == "true":
        _check_keys(obj, _KIND_KEYS, what)
        return TrueGuard()
    if kind == "source_count_at_most":
        _check_keys(obj, _THRESHOLD_KEYS, what)
        return _build(what, SourceCountAtMost, _require(obj, "threshold", what))
    if kind == "load_at_most":
        _check_keys(obj, _SERVER_PAIR_KEYS, what)
        return _build(what, LoadAtMost, _require(obj, "server_a", what),
                      _require(obj, "server_b", what))
    raise ScenarioFormatError(f"{what}: unknown guard kind {kind!r}")


def port_ref_from_obj(obj, what: str = "port"):
    if isinstance(obj, str):
        return PortName(obj)
    if isinstance(obj, int):
        try:
            return PortNumber(obj)
        except InvalidRuleError as exc:
            raise _located(exc, what) from None  # the number stands alone at `what`
    obj = _require_obj(obj, what)
    _check_keys(obj, _KIND_KEYS, what)
    if obj.get("kind") == "dest_port":
        return DestPort()
    raise ScenarioFormatError(f"{what}: unknown port reference {obj!r}")


def value_ref_from_obj(obj, what: str = "value"):
    """A set-field target: an integer (`SetField` checks it) or a deferred pick."""
    if isinstance(obj, int):
        return obj
    obj = _require_obj(obj, what)
    _check_keys(obj, _SERVER_PAIR_KEYS, what)
    if obj.get("kind") == "pick_less_loaded":
        return _build(what, PickLessLoaded, _require(obj, "server_a", what),
                      _require(obj, "server_b", what))
    raise ScenarioFormatError(f"{what}: unknown value reference {obj!r}")


def action_spec_from_obj(obj, what: str = "action", depth: int = 0):
    obj = _require_obj(obj, what)
    kind = _require(obj, "kind", what)
    if kind == "drop":
        _check_keys(obj, _KIND_KEYS, what)
        return Drop()
    if kind == "forward":
        _check_keys(obj, _PORT_KEYS, what)
        return Forward(port_ref_from_obj(_require(obj, "port", what), f"{what}.port"))
    if kind == "set_field":
        _check_keys(obj, _SET_FIELD_KEYS, what)
        return _build(what, SetField, _require(obj, "field", what),
                      value_ref_from_obj(_require(obj, "to", what), f"{what}.to"))
    if kind == "seq":
        _check_keys(obj, _SEQ_KEYS, what)
        if depth == MAX_SEQ_DEPTH:
            raise ScenarioFormatError(f"{what}: seq nested deeper than {MAX_SEQ_DEPTH} levels")
        steps = _require_list(_require(obj, "actions", what), f"{what}.actions")
        return Seq(tuple(action_spec_from_obj(s, f"{what}[{i}]", depth + 1)
                         for i, s in enumerate(steps)))
    raise ScenarioFormatError(f"{what}: unknown action kind {kind!r}")


def template_from_obj(obj, what: str = "rule template") -> RuleTemplate:
    obj = _require_obj(obj, what)
    _check_keys(obj, _ENTRY_KEYS, what)
    match = _require(obj, "match", what)
    match = InputHeader() if match == "input" else pattern_from_obj(match, f"{what}.match")
    return _build(what, RuleTemplate, match,
                  port_ref_from_obj(_require(obj, "out_port", what), f"{what}.out_port"),
                  _require(obj, "ttl", what),
                  action_spec_from_obj(_require(obj, "action", what), f"{what}.action"),
                  obj.get("counter", 0))


def delta_from_obj(obj, what: str = "delta") -> GuardedDelta:
    obj = _require_obj(obj, what)
    _check_keys(obj, _DELTA_KEYS, what)
    branches = []
    for i, b in enumerate(_require_list(obj.get("branches", []), f"{what}.branches")):
        b = _require_obj(b, f"{what}.branches[{i}]")
        _check_keys(b, _BRANCH_KEYS, f"{what}.branches[{i}]")
        rules = _require_list(b.get("rules", []), f"{what}.branches[{i}].rules")
        branches.append((
            guard_from_obj(_require(b, "guard", f"{what}.branches[{i}]"),
                           f"{what}.branches[{i}].guard"),
            tuple(template_from_obj(t, f"{what}.branches[{i}].rules[{j}]")
                  for j, t in enumerate(rules)),
        ))
    default = tuple(template_from_obj(t, f"{what}.default[{i}]")
                    for i, t in enumerate(_require_list(obj.get("default", []),
                                                        f"{what}.default")))
    return GuardedDelta(tuple(branches), default)


def app_from_obj(obj, n: int, what: str = "app") -> AppTransform:
    obj = _require_obj(obj, what)
    _check_keys(obj, _APP_KEYS, what)
    slot = _require(obj, "slot", what)
    try:
        return _build(what, make_app, _require(obj, "name", what), slot,
                      delta_from_obj(_require(obj, "delta", what), f"{what}.delta"), n)
    except SlotOutOfRangeError:
        raise ScenarioFormatError(f"{what}.slot={slot} out of range for {n} switches") from None


# ---------------------------------------------------------------------------
# The flows decode that one loop replaced, as `flowspace.scenario` had it:
# `_items(_flow, ...)`, with `_flow` reading the header through `_header`.
# An error is an `_Unplaced` whose JSON path is put together on the way out.


class _Unplaced(Exception):
    def __init__(self, head: str, tail: str, path: str = ""):
        super().__init__(head, tail)
        self.head, self.tail, self.path = head, tail, path

    def under(self, segment: str) -> _Unplaced:
        self.path = segment + self.path
        return self


def _unplaced_object(obj, allowed: frozenset[str]) -> _Unplaced:
    if isinstance(obj, dict):
        return _Unplaced("unknown keys in ", f": {sorted(set(obj) - allowed)}")
    return _Unplaced("", f" must be an object, got {type(obj).__name__}")


def _unplaced_misfit(exc: InvalidRuleError) -> _Unplaced:
    if exc.width is not None:
        return _Unplaced("", f"={exc.value} exceeds {exc.width}-bit range", "." + exc.field)
    return _Unplaced("", f" {exc.reason}", "." + exc.field)


def _unplaced_header(obj) -> Header:
    if not isinstance(obj, dict):
        raise _unplaced_object(obj, _FIELD_NAMES)
    try:
        return Header.from_mapping(obj)
    except UnknownFieldError:
        raise _unplaced_object(obj, _FIELD_NAMES) from None
    except InvalidRuleError as exc:
        raise _unplaced_misfit(exc) from None


def _unplaced_flow(obj) -> Flow:
    if not (isinstance(obj, dict) and obj.keys() <= _FLOW_KEYS):
        raise _unplaced_object(obj, _FLOW_KEYS)
    try:
        return Flow(_unplaced_header(obj["header"]), obj.get("assigned_dest"))
    except KeyError as exc:
        raise _Unplaced("", f" is missing required key {exc.args[0]!r}") from None
    except _Unplaced as exc:
        raise exc.under(".header")
    except InvalidRuleError as exc:
        raise _unplaced_misfit(exc) from None


def flows_from_obj_oracle(items) -> tuple[Flow, ...]:
    """The flows of a document's `flows` array, each decoded on its own."""
    if not isinstance(items, list):
        raise ScenarioFormatError(f"flows must be an array, got {type(items).__name__}")
    out = []
    for item in items:
        try:
            out.append(_unplaced_flow(item))
        except _Unplaced as exc:
            raise ScenarioFormatError(f"{exc.head}flows[{len(out)}]{exc.path}{exc.tail}") from None
    return tuple(out)


SCENARIO_KEYS = ("version", "topology", "flows", "tables", "apps", "chains", "queries")


def scenario_from_obj_oracle(obj) -> Scenario:
    obj = _require_obj(obj, "scenario")
    _check_keys(obj, SCENARIO_KEYS, "scenario")
    version = _require(obj, "version", "scenario")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ScenarioFormatError(f"version must be {FORMAT_VERSION}, got {version!r}")
    topology = topology_from_obj(_require(obj, "topology", "scenario"))
    n = topology.switch_count
    raw_tables = _require_list(obj.get("tables", []), "tables")
    if len(raw_tables) != n:
        raise ScenarioFormatError(f"scenario needs exactly {n} tables")
    tables = tuple(table_from_obj(t, f"tables[{i}]") for i, t in enumerate(raw_tables))
    flows = tuple(flow_from_obj(f, f"flows[{i}]")
                  for i, f in enumerate(_require_list(obj.get("flows", []), "flows")))
    nib = NIB(topology, tables, flows)
    apps: dict[str, AppTransform] = {}
    for i, raw in enumerate(_require_list(obj.get("apps", []), "apps")):
        app = app_from_obj(raw, n, f"apps[{i}]")
        if app.name in apps:
            raise ScenarioFormatError(f"duplicate app name {app.name!r}")
        apps[app.name] = app
    chains: dict[str, ServiceChain] = {}
    for name, stage_names in _require_obj(obj.get("chains", {}), "chains").items():
        what = f"chains[{name}]"
        if not _require_list(stage_names, what):
            raise ScenarioFormatError(f"{what} must be a non-empty array")
        for i, stage in enumerate(stage_names):
            if not isinstance(stage, str):
                raise ScenarioFormatError(
                    f"{what}[{i}] must be an app name, got {type(stage).__name__}")
            if stage not in apps:
                raise ScenarioFormatError(f"chain {name!r} references unknown app {stage!r}")
        chains[name] = ServiceChain(tuple(apps[s] for s in stage_names))
    queries = {
        name: header_from_obj(h, f"queries[{name}]")
        for name, h in _require_obj(obj.get("queries", {}), "queries").items()
    }
    return Scenario(topology, nib, apps, chains, queries)


def random_document(rng) -> Scenario:
    """A seeded valid scenario: tables where inverse pairs occur, up to
    six apps, one to three chains whose stages may repeat an app and may
    leave apps out, and zero to two queries."""
    topology = random_topology(rng)
    n = topology.switch_count
    nib = NIB(topology, tuple(random_collision_table(rng, 8) for _ in range(n)),
              random_flows(rng, 8))
    apps = {f"app{i}": random_app(rng, n, f"app{i}") for i in range(rng.randint(1, 6))}
    stages = list(apps.values())
    chains = {f"chain{i}": ServiceChain(tuple(rng.choice(stages)
                                              for _ in range(rng.randint(1, 4))))
              for i in range(rng.randint(1, 3))}
    queries = {f"q{i}": random_header(rng) for i in range(rng.randint(0, 2))}
    return Scenario(topology, nib, apps, chains, queries)
