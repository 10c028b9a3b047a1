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
them, so it does not test the derived index against itself.

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
XORs n terms for each of the n * n entries.

Congruence has one verdict in the library, `analysis.check_congruence`.
`congruent` here is the structural verdict it is built on, equality of
normal forms, which the tests state laws with; `is_translation_only`
and `instantiate` likewise serve the tests only.

Template equality is checked against the field-by-field comparison
that key-based equality replaced, and the flat pattern key against the
nested one it replaced, by the orders they give.

The scenario decoder is checked against the whole-document decode that
per-section decoding replaced: one function that decodes every section
in file order, each app as it is met, and looks chains' stages up in
the apps decoded so far.  `random_document` gives seeded valid
documents for it and for the CLI's commands.

Template actions are checked against the instantiation that `ActionFold`
replaced: it builds one validated action per step and composes them
pairwise, and takes every `set_field` delta from the steered header, so
it agrees with `build_action` only on specs with no `set_field` after a
`drop` or after a `set_field` of the same field.
"""

from __future__ import annotations

import numpy as np

from flowspace import actions
from flowspace.actions import STATE_MASKS, STATE_SIZE, AffineAction
from flowspace.analysis import (
    Counterexample,
    FlowModRequest,
    LoopFinding,
    TableDiff,
    _as_transform,
)
from flowspace.errors import DimensionMismatchError, RuleNotFoundError, ScenarioFormatError
from flowspace.headers import (
    FIELDS,
    Header,
    MatchPattern,
    dest_of,
    field_delta,
    field_index,
    src_of,
)
from flowspace.nib import NIB
from flowspace.sampling import (
    random_app,
    random_collision_table,
    random_flows,
    random_header,
    random_topology,
)
from flowspace.scenario import (
    FORMAT_VERSION,
    Scenario,
    _field,
    _int,
    _require,
    _require_list,
    _require_obj,
    app_from_obj,
    flow_from_obj,
    header_from_obj,
    table_from_obj,
    topology_from_obj,
)
from flowspace.tables import FlowEntry, FlowRule, FlowTable, add, entry_key, reduce
from flowspace.transforms import (
    ActionSpec,
    AppTransform,
    Branch,
    DeltaSum,
    Drop,
    Forward,
    GuardedDelta,
    InputHeader,
    RuleTemplate,
    ServiceChain,
    SetField,
    Templates,
    TrueGuard,
    _instantiate,
    guard_key,
    is_identity_linear,
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


def is_translation_only(a: AppTransform) -> bool:
    """True when the transform only adds unconditional deltas.

    Such transforms commute under composition (union is commutative),
    so chains built from them are order-insensitive.
    """
    return is_identity_linear(a) and all(
        not piece.branches for s in normalize(a).translation for piece in s)


def instantiate(tpl: RuleTemplate, nib: NIB, h: Header) -> FlowEntry:
    """One template's entry for (nib, h), with the exact pattern of h built for it alone."""
    match = MatchPattern.exact_for(h) if isinstance(tpl.match, InputHeader) else tpl.match
    return _instantiate(tpl, nib, h, match)


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
    for i in range(n):
        acc = FlowTable()
        for j, coeff in enumerate(a.linear[i]):
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
    linear = tuple(
        tuple(
            _xor_all(second.linear[i][j] & first.linear[j][k] for j in range(n))
            for k in range(n)
        )
        for i in range(n)
    )
    translation = []
    for i in range(n):
        pieces: list[GuardedDelta] = []
        for j in range(n):
            if second.linear[i][j]:
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
