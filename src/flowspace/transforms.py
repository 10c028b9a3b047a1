"""Control-application transforms over the NIB.

A control application is modeled as a homogeneous matrix acting on the
vector of per-switch flow tables: a square 0/1 linear part (almost
always the identity) plus, per switch slot, a symbolic table delta.  A
delta is a formal sum of guarded pieces; each piece selects a list of
rule templates by evaluating its guards (first match wins, with a
mandatory otherwise arm) against the ambient NIB and the header being
steered, and the selected templates instantiate into flow entries that
are unioned into the slot's table.

Composition multiplies the linear parts over the two-element field and
adds the deltas (formal-sum concatenation), mirroring how composite
application matrices multiply.  `normalize` brings transforms to a
canonical form in one grouping pass per slot, using only
semantics-preserving rewrites - dropping dead arms, merging summed
pieces with identical guard sequences into template sets, collapsing
pieces whose arms all agree, sorting each template set once - so that
structural equality of normal forms (congruence) implies behavioral
equality on every NIB, while the converse is not claimed.

`selections` evaluates a transform's guards for one (NIB, header) and
gives each slot's selected templates in apply order; it is the only
selection loop.  `Instances` builds slot tables and NIBs from
selections, instantiating each distinct template once per (NIB,
header); `apply_transform` is that pass over one transform.  Template
constructors check every value and reference a template holds, a
deferred pick's servers against their field included, so equal
templates instantiate alike and a template fails to instantiate only on
a port lookup.  `check_instantiable` resolves the ports alone, for a
caller that skips the instantiation.

`flow_mod_add`, `flow_mod_delete` and `flow_mod_modify` are the three
shapes of the FLOW_MOD edit `tables.flow_mod`, which owns the edit and
the inverse index the new table carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

from flowspace.actions import PORT_MASK, PORT_SLOT, TTL_MASK, ActionFold, AffineAction
from flowspace.errors import (
    DimensionMismatchError,
    EmptyChainError,
    InvalidRuleError,
    SlotOutOfRangeError,
    UnresolvedPortError,
    counter_error,
    int_error,
    type_error,
)
from flowspace.headers import (
    ADDRESS_MASK,
    FIELD_INDEX,
    FIELD_MASKS,
    FIELDS,
    Header,
    MatchPattern,
    field_delta,
    field_index,
    pattern_key,
)
from flowspace.nib import NIB, count_by_dest, count_by_src, effective_dest_of_header
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    add,
    flow_mod,
)

# ---------------------------------------------------------------------------
# Guards


@dataclass(frozen=True)
class TrueGuard:
    """Always satisfied."""


@dataclass(frozen=True)
class SourceCountAtMost:
    """Holds when the per-source flow count of the steered header is <= threshold."""

    threshold: int

    def __post_init__(self):
        t = self.threshold
        if not (type(t) is int and t >= 0):
            raise (type_error("threshold", t) if type(t) is not int
                   else InvalidRuleError(f"must be non-negative, got {t}", "threshold", t))


@dataclass(frozen=True)
class LoadAtMost:
    """Holds when server_a currently handles no more flows than server_b."""

    server_a: int
    server_b: int

    def __post_init__(self):
        _check_servers(self.server_a, self.server_b)


def _check_servers(a, b) -> None:
    """Both servers of a load comparison are real ints in address range."""
    if not (type(a) is int and 0 <= a <= ADDRESS_MASK
            and type(b) is int and 0 <= b <= ADDRESS_MASK):
        raise int_error("server_a", a, ADDRESS_MASK) or int_error("server_b", b, ADDRESS_MASK)


Guard = Union[TrueGuard, SourceCountAtMost, LoadAtMost]


def eval_guard(g: Guard, nib: NIB, h: Header) -> bool:
    if isinstance(g, TrueGuard):
        return True
    if isinstance(g, SourceCountAtMost):
        return count_by_src(nib, h) <= g.threshold
    if isinstance(g, LoadAtMost):
        return count_by_dest(nib, g.server_a) <= count_by_dest(nib, g.server_b)
    raise TypeError(f"not a guard: {g!r}")


def guard_key(g: Guard) -> tuple:
    if isinstance(g, TrueGuard):
        return (0,)
    if isinstance(g, SourceCountAtMost):
        return (1, g.threshold)
    if isinstance(g, LoadAtMost):
        return (2, g.server_a, g.server_b)
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# Rule templates


@dataclass(frozen=True)
class PortName:
    """A named port, resolved through the topology's port map."""

    name: str

    def __post_init__(self):
        if type(self.name) is not str:
            raise type_error("name", self.name, "a string")


@dataclass(frozen=True)
class PortNumber:
    """A literal port."""

    value: int

    def __post_init__(self):
        value = self.value
        if not (type(value) is int and 0 <= value <= PORT_MASK):
            raise int_error("value", value, PORT_MASK)


@dataclass(frozen=True)
class DestPort:
    """The port of the server addressed by the steered header's effective destination."""


PortRef = Union[PortName, PortNumber, DestPort]
_PORT_REFS = (PortName, PortNumber, DestPort)
_PORT_KIND = "a PortName, PortNumber or DestPort"


@dataclass(frozen=True)
class PickLessLoaded:
    """The address of whichever of two servers currently has less load.

    This is a balancer's deferred choice: with it, a piecewise balancer
    whose arms differ only in the eventual server pick can be written
    with textually identical arms, which then collapse to an
    unconditional delta under normalization.
    """

    server_a: int
    server_b: int

    def __post_init__(self):
        _check_servers(self.server_a, self.server_b)


ValueRef = Union[int, PickLessLoaded]


@dataclass(frozen=True)
class Forward:
    """Translate the output port to the resolved port."""

    port: PortRef

    def __post_init__(self):
        if not isinstance(self.port, _PORT_REFS):
            raise type_error("port", self.port, _PORT_KIND)


@dataclass(frozen=True)
class Drop:
    """The zero-scaling action."""


@dataclass(frozen=True)
class SetField:
    """Rewrite one header field to a target value.

    Instantiation computes the translation delta from the value the
    field holds at this step: the steered header's value after the
    earlier steps of the enclosing `seq`s.  So the field ends at the
    target even after a drop or an earlier rewrite of the same field
    (f:=n; f:=m acts as f:=m), and the resulting action is a function
    of the steered header.  A deferred pick's two servers must both fit
    the field, since either may be picked.
    """

    field: str
    to: ValueRef

    def __post_init__(self):
        field, to = self.field, self.to
        i = FIELD_INDEX.get(field) if type(field) is str else None
        if i is None:
            raise InvalidRuleError(f"must be a header field name, got {field!r}", "field", field)
        mask = FIELD_MASKS[i]
        if not (type(to) is int and 0 <= to <= mask
                or isinstance(to, PickLessLoaded) and to.server_a <= mask and to.server_b <= mask):
            if isinstance(to, PickLessLoaded):
                raise (int_error("to.server_a", to.server_a, mask)
                       or int_error("to.server_b", to.server_b, mask))
            raise int_error("to", to, mask)


@dataclass(frozen=True)
class Seq:
    """A composite action: steps applied left to right."""

    steps: tuple[ActionSpec, ...]

    def __post_init__(self):
        if not isinstance(self.steps, tuple):
            raise type_error("steps", self.steps, "a tuple")
        for i, step in enumerate(self.steps):
            if not isinstance(step, _ACTION_SPECS):
                raise type_error(f"steps[{i}]", step, _ACTION_KIND)


ActionSpec = Union[Forward, Drop, SetField, Seq]
_ACTION_SPECS = (Forward, Drop, SetField, Seq)
_ACTION_KIND = "a Forward, Drop, SetField or Seq"


@dataclass(frozen=True)
class InputHeader:
    """Match exactly the header being steered."""


MatchSpec = Union[InputHeader, MatchPattern]
_MATCH_SPECS = (InputHeader, MatchPattern)


@dataclass(frozen=True)
class RuleTemplate:
    """A symbolic flow entry, instantiated per (NIB, header).

    The hash is computed once per object and kept in `__dict__`, out of
    equality and repr.  Pickling drops it: `PortName` and `SetField`
    strings hash differently in a process with another hash seed.
    """

    match: MatchSpec
    out_port: PortRef
    ttl: int
    action: ActionSpec
    counter: int = 0

    def __post_init__(self):
        # One test on the valid path; the error is worked out only when it fails.
        ttl, counter = self.ttl, self.counter
        if not (type(ttl) is int and 0 <= ttl <= TTL_MASK
                and type(counter) is int and counter >= 0 and isinstance(self.match, _MATCH_SPECS)
                and isinstance(self.out_port, _PORT_REFS) and isinstance(self.action, _ACTION_SPECS)):
            if not isinstance(self.match, _MATCH_SPECS):
                raise type_error("match", self.match, "an InputHeader or a MatchPattern")
            if not isinstance(self.out_port, _PORT_REFS):
                raise type_error("out_port", self.out_port, _PORT_KIND)
            if not isinstance(self.action, _ACTION_SPECS):
                raise type_error("action", self.action, _ACTION_KIND)
            raise int_error("ttl", ttl, TTL_MASK) or counter_error(counter)

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(
                (self.match, self.out_port, self.ttl, self.action, self.counter))
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def _port_key(ref: PortRef) -> tuple:
    if isinstance(ref, PortNumber):
        return (0, ref.value, "")
    if isinstance(ref, PortName):
        return (1, 0, ref.name)
    return (2, 0, "")


def _value_key(ref: ValueRef) -> tuple:
    if isinstance(ref, PickLessLoaded):
        return (1, ref.server_a, ref.server_b)
    return (0, ref, 0)


def _action_spec_key(spec: ActionSpec) -> tuple:
    if isinstance(spec, Drop):
        return (0,)
    if isinstance(spec, Forward):
        return (1, _port_key(spec.port))
    if isinstance(spec, SetField):
        return (2, field_index(spec.field), _value_key(spec.to))
    return (3, tuple(_action_spec_key(s) for s in spec.steps))


def _match_spec_key(m: MatchSpec) -> tuple:
    if isinstance(m, InputHeader):
        return (0, ())
    return (1, pattern_key(m))


def template_key(t: RuleTemplate) -> tuple:
    return (_match_spec_key(t.match), _port_key(t.out_port), t.ttl,
            _action_spec_key(t.action), t.counter)


# ---------------------------------------------------------------------------
# Guarded deltas and application transforms

Templates = tuple[RuleTemplate, ...]
Branch = tuple[Guard, Templates]


@dataclass(frozen=True)
class GuardedDelta:
    """One piecewise table delta: ordered guarded arms plus the otherwise arm."""

    branches: tuple[Branch, ...]
    default: Templates


def unconditional(templates: Sequence[RuleTemplate]) -> GuardedDelta:
    return GuardedDelta((), tuple(templates))


def guarded(branches: Sequence[tuple[Guard, Sequence[RuleTemplate]]],
            default: Sequence[RuleTemplate]) -> GuardedDelta:
    return GuardedDelta(
        tuple((g, tuple(tpls)) for g, tpls in branches),
        tuple(default),
    )


#: A slot's delta is a formal sum of guarded pieces.
DeltaSum = tuple[GuardedDelta, ...]


@dataclass(frozen=True)
class AppTransform:
    """A control application as a matrix over the table vector."""

    name: str
    linear: tuple[tuple[int, ...], ...]
    translation: tuple[DeltaSum, ...]

    def __post_init__(self):
        name, linear, n = self.name, self.linear, len(self.translation)
        if type(name) is not str:
            raise type_error("name", name, "a string")
        if len(linear) != n or any(len(row) != n for row in linear):
            raise DimensionMismatchError("linear part must be square and match the slot count")
        for row in linear:
            for c in row:
                if type(c) is not int or c >> 1:  # an int 0 or 1: True equals 1 but is no int
                    raise _linear_error(linear)

    @property
    def dimension(self) -> int:
        return len(self.translation)


def _linear_error(linear) -> InvalidRuleError:
    """The error for the first linear entry that is not an int 0 or 1."""
    for i, row in enumerate(linear):
        for j, c in enumerate(row):
            error = int_error(f"linear[{i}][{j}]", c, 1)
            if error:
                return error


@dataclass(frozen=True)
class ServiceChain:
    """An ordered sequence of applications; the first stage applies first."""

    stages: tuple[AppTransform, ...]

    def __post_init__(self):
        if not self.stages:
            raise EmptyChainError("a service chain needs at least one stage")


def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def identity_transform(n: int, name: str = "identity") -> AppTransform:
    return AppTransform(name, _identity_matrix(n), ((),) * n)


def make_app(name: str, slot: int, delta: GuardedDelta, n: int) -> AppTransform:
    """An application that applies one delta to one switch slot."""
    if not (type(slot) is int and 0 <= slot < n):
        if type(slot) is not int:
            raise type_error("slot", slot)
        raise SlotOutOfRangeError(f"slot {slot} out of range for {n} switches")
    translation = tuple((delta,) if i == slot else () for i in range(n))
    return AppTransform(name, _identity_matrix(n), translation)


def is_identity_linear(a: AppTransform) -> bool:
    return a.linear == _identity_matrix(a.dimension)


# ---------------------------------------------------------------------------
# FLOW_MOD table operations


def flow_mod_add(t: FlowTable, r: FlowRule) -> FlowTable:
    """Install a rule; new entries start with a zero counter."""
    return flow_mod(t, None, r)[0]


def flow_mod_delete(t: FlowTable, r: FlowRule) -> FlowTable:
    """Remove every entry whose rule equals r (counters included)."""
    return flow_mod(t, r, None)[0]


def flow_mod_modify(t: FlowTable, old: FlowRule, new: FlowRule) -> FlowTable:
    """Replace old with new; the new entry's counter restarts at zero."""
    return flow_mod(t, old, new)[0]


# ---------------------------------------------------------------------------
# Evaluation


def resolve_port(ref: PortRef, nib: NIB, h: Header) -> int:
    if isinstance(ref, PortNumber):
        return ref.value
    if isinstance(ref, PortName):
        try:
            return nib.topology.ports[ref.name]
        except KeyError:
            raise UnresolvedPortError(f"no port named {ref.name!r} in topology") from None
    dest = effective_dest_of_header(nib, h)
    try:
        return nib.topology.server_ports[dest]
    except KeyError:
        raise UnresolvedPortError(f"no server port for destination {dest}") from None


def resolve_value(ref: ValueRef, nib: NIB) -> int:
    if isinstance(ref, PickLessLoaded):
        if count_by_dest(nib, ref.server_a) <= count_by_dest(nib, ref.server_b):
            return ref.server_a
        return ref.server_b
    return ref


def build_action(spec: ActionSpec, nib: NIB, h: Header) -> AffineAction:
    """The concrete action of a template action for header h.

    The steps, nested `seq`s included, fold left to right into one
    `ActionFold`, whose result is valid by construction.  A `set_field`
    translates its field by the distance from the value the earlier
    steps leave there to the target, so applying the action to h's
    rule state sets the field to the target.
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


def _instantiate(tpl: RuleTemplate, nib: NIB, h: Header, match: MatchPattern) -> FlowEntry:
    rule = FlowRule(
        match=match,
        out_port=resolve_port(tpl.out_port, nib, h),
        ttl=tpl.ttl,
        action=build_action(tpl.action, nib, h),
    )
    return FlowEntry(rule, tpl.counter)


def select_templates(piece: GuardedDelta, nib: NIB, h: Header) -> Templates:
    """First satisfied arm wins; the otherwise arm catches the rest."""
    for guard, templates in piece.branches:
        if eval_guard(guard, nib, h):
            return templates
    return piece.default


def selections(a: AppTransform, nib: NIB, h: Header) -> tuple[Templates, ...]:
    """Each slot's selected templates for (NIB, header), in apply order.

    A slot's entries are the instantiations of exactly these templates,
    so two transforms with equal linear parts whose slots select equal
    template sets give equal tables on this NIB and header.
    """
    n = nib.topology.switch_count
    if a.dimension != n:
        raise DimensionMismatchError(
            f"transform has {a.dimension} slots, topology has {n} switches"
        )
    out = []
    for slot in a.translation:
        selected = []
        for piece in slot:
            selected.extend(select_templates(piece, nib, h))
        out.append(tuple(selected))
    return tuple(out)


def _forward_ports(spec: ActionSpec) -> Iterator[PortRef]:
    """The ports of a template action's `Forward` steps, in step order."""
    if isinstance(spec, Forward):
        yield spec.port
    elif isinstance(spec, Seq):
        for step in spec.steps:
            yield from _forward_ports(step)


def check_instantiable(templates: Iterable[RuleTemplate], nib: NIB, h: Header) -> None:
    """Raise what instantiating the templates in order would raise.

    Instantiation can fail only on a port lookup, of the out port and
    then of each `Forward` port in step order, so only those are resolved.
    """
    for tpl in templates:
        resolve_port(tpl.out_port, nib, h)
        for port in _forward_ports(tpl.action):
            resolve_port(port, nib, h)


def apply_transform(a: AppTransform, nib: NIB, h: Header) -> NIB:
    """Apply the application matrix to the NIB's table vector for header h.

    Row i of the linear part selects which input tables union into slot
    i; the slot's delta pieces then evaluate their guards against the
    (pre-transform) NIB and add their instantiated entries.  Flows are
    left untouched.
    """
    return Instances(nib, h).apply(a, selections(a, nib, h))


class Instances:
    """The entries of templates instantiated for one (NIB, header).

    A template's entry is a function of the template, the NIB and the
    header, so each template is instantiated the first time it is asked
    for and its entry is reused after that; the exact pattern of the
    header is built once too.
    """

    __slots__ = ("nib", "h", "_built", "_exact")

    def __init__(self, nib: NIB, h: Header):
        self.nib, self.h = nib, h
        self._built: dict[RuleTemplate, FlowEntry] = {}
        self._exact: MatchPattern | None = None

    def entry(self, tpl: RuleTemplate) -> FlowEntry:
        e = self._built.get(tpl)
        if e is None:
            match = tpl.match
            if isinstance(match, InputHeader):
                if self._exact is None:
                    self._exact = MatchPattern.exact_for(self.h)
                match = self._exact
            e = self._built[tpl] = _instantiate(tpl, self.nib, self.h, match)
        return e

    def table(self, row: tuple[int, ...], selected: Templates) -> FlowTable:
        """One slot's table: the union of the NIB's tables that the
        linear row selects, plus the entries of the selected templates."""
        base = None
        for j, coeff in enumerate(row):
            if coeff:
                t = self.nib.tables[j]
                base = t if base is None else add(base, t)
        added = FlowTable([self.entry(tpl) for tpl in selected])
        return added if base is None else add(base, added)

    def apply(self, a: AppTransform, selected: Sequence[Templates]) -> NIB:
        """The NIB that `a` gives, from its `selections` for this NIB and header."""
        nib = self.nib
        return NIB(nib.topology,
                   tuple(self.table(row, s) for row, s in zip(a.linear, selected)),
                   nib.flows)


# ---------------------------------------------------------------------------
# Composition


def compose_apps(second: AppTransform, first: AppTransform) -> AppTransform:
    """The transform applying `first` and then `second`.

    Linear parts multiply over the two-element field, a row at a time:
    row i of the product is the XOR of the rows of `first` that
    second's row i selects (one selected row is reused as is).  Slot
    i's delta gains the first transform's deltas for those same slots,
    followed by second's own delta.
    """
    n = first.dimension
    if second.dimension != n:
        raise DimensionMismatchError(
            f"cannot compose {second.dimension}-slot with {n}-slot transform"
        )
    linear = []
    translation = []
    for i in range(n):
        selected = [j for j, c in enumerate(second.linear[i]) if c]
        if len(selected) == 1:
            row = tuple(first.linear[selected[0]])
        else:
            acc = [0] * n
            for j in selected:
                for k, c in enumerate(first.linear[j]):
                    acc[k] ^= c
            row = tuple(acc)
        linear.append(row)
        pieces = [p for j in selected for p in first.translation[j]]
        pieces.extend(second.translation[i])
        translation.append(tuple(pieces))
    return AppTransform(
        f"{second.name}*{first.name}", tuple(linear), tuple(translation)
    )


def chain(stages: ServiceChain | Sequence[AppTransform]) -> AppTransform:
    """Collapse a chain into one composite; the first stage applies first."""
    seq = stages.stages if isinstance(stages, ServiceChain) else tuple(stages)
    if not seq:
        raise EmptyChainError("cannot compose an empty chain")
    composite = seq[0]
    for stage in seq[1:]:
        composite = compose_apps(stage, composite)
    return composite


# ---------------------------------------------------------------------------
# Normal form and congruence


def _canon_arms(piece: GuardedDelta) -> tuple[tuple[Guard, ...], list[set], set]:
    """Semantics-preserving canonical arms of one piece.

    Returns the guard sequence, one template set per guarded arm and the
    otherwise arm's set.  Later arms repeating an earlier guard are dead
    (first match wins) and are dropped; an always-true arm swallows
    everything after it into the otherwise arm; if every arm selects the
    same templates as the otherwise arm, the piece is unconditional.
    """
    default = set(piece.default)
    arms: dict[Guard, set] = {}
    for guard, templates in piece.branches:
        if guard in arms:
            continue
        if isinstance(guard, TrueGuard):
            default = set(templates)
            break
        arms[guard] = set(templates)
    if all(arm == default for arm in arms.values()):
        return (), [], default
    return tuple(arms), list(arms.values()), default


def _canon_sum(pieces: DeltaSum, key: Callable[[RuleTemplate], tuple]) -> DeltaSum:
    """Canonicalize a formal sum of pieces in one pass.

    Pieces with identical guard sequences always fire the same arm
    index, so they merge arm-wise (template-set union).  A merged group
    whose arms all agree with its otherwise arm folds into the
    unconditional group, which cannot collapse further.  Pieces that
    contribute nothing vanish.  Guard sequences are unique after
    grouping, so they alone order the surviving pieces.
    """
    groups: dict[tuple[Guard, ...], tuple[list[set], set]] = {}
    for piece in pieces:
        guards, arms, default = _canon_arms(piece)
        if not guards and not default:
            continue
        group = groups.get(guards)
        if group is None:
            groups[guards] = (arms, default)
            continue
        merged_arms, merged_default = group
        for merged, arm in zip(merged_arms, arms):
            merged |= arm
        merged_default |= default
    always: set = set()
    out: list[GuardedDelta] = []
    for guards, (arms, default) in groups.items():
        if all(arm == default for arm in arms):
            always |= default
        else:
            out.append(GuardedDelta(
                tuple((g, tuple(sorted(arm, key=key))) for g, arm in zip(guards, arms)),
                tuple(sorted(default, key=key)),
            ))
    if always:
        out.append(GuardedDelta((), tuple(sorted(always, key=key))))
    return tuple(sorted(out, key=lambda p: tuple(guard_key(g) for g, _ in p.branches)))


def normalize(a: AppTransform) -> AppTransform:
    """Canonical form whose structural equality decides congruence."""
    keys: dict[RuleTemplate, tuple] = {}

    def key(t: RuleTemplate) -> tuple:
        k = keys.get(t)
        if k is None:
            k = keys[t] = template_key(t)
        return k

    return AppTransform(a.name, a.linear, tuple(_canon_sum(s, key) for s in a.translation))


def normal_forms(a: AppTransform, b: AppTransform) -> tuple[AppTransform, AppTransform]:
    """The normal forms of two transforms that have the same slot count."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"cannot compare {a.dimension}-slot with {b.dimension}-slot transform"
        )
    return normalize(a), normalize(b)
