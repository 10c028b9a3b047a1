"""Control-application transforms over the NIB.

A control application is modeled as a homogeneous matrix acting on the
vector of per-switch flow tables: a 0/1 linear part (almost always the
identity) plus, per switch slot, a symbolic table delta.  The linear
part is stored sparse, one row per slot, each row the sorted tuple of
the columns whose entry is 1 over the two-element field: the identity
is `((0,), (1,), ..., (n-1,))` and a zero row is `()`.  A
delta is a formal sum of guarded pieces; each piece selects a list of
rule templates by evaluating its guards (first match wins, with a
mandatory otherwise arm) against the ambient NIB and the header being
steered, and the selected templates instantiate into flow entries that
are unioned into the slot's table.

Composition multiplies the linear parts over the two-element field and
adds the deltas (formal-sum concatenation), mirroring how composite
application matrices multiply; `chain` composes a whole chain in one
pass and builds one transform.  `normalize` brings transforms to a
canonical form in one grouping pass per slot, using only
semantics-preserving rewrites - dropping dead arms, merging summed
pieces with identical guard sequences into template sets, collapsing
pieces whose arms all agree, sorting each template set once - so that
structural equality of normal forms (congruence) implies behavioral
equality on every NIB, while the converse is not claimed.

A composite depends only on its chain, and a normal form only on its
transform, so each is computed once, on first use, and kept: a
`ServiceChain` keeps its composite (`chain` returns it) and an
`AppTransform` its normal form (`normalize` returns it), both outside
equality, hashing and repr.  A sequence of stages is composed on every
call.  A transform keeps two more facts the same way: one key per slot
(`slot_keys`, of `guard_key`s and `template_key`s), equal exactly when
the slots are, and the distinct ports its templates look up
(`port_lookups`).  Two normal forms whose keys agree in a slot select
equal template sets there on every NIB and header, so
`analysis.behavioral_diff` selects only the slots where they differ,
and skips a scenario without selecting anything when
`lookups_resolve` says no template can fail to instantiate.

`selections` evaluates a transform's guards for one (NIB, header) and
gives each slot's selected templates in apply order, after
`check_dimension`; `select_slot` gives one slot's.  `Instances` builds
slot tables and NIBs from selections, instantiating each distinct
template once per (NIB, header); `apply_transform` is that pass over
one transform.  Template
constructors check every value and reference a template holds, a
deferred pick's servers against their field included, so equal
templates instantiate alike and a template fails to instantiate only on
a port lookup.  The scenario decoder builds templates and their parts
through one-test builders (`make_template`, `make_set_field`,
`make_port_number`, `make_port_name`) that test what the constructor
checks and run it only when the test fails, so its error is the
constructor's; a forward, a `seq` and a delta it builds from parts
already checked (`checked_forward`, `checked_seq`, `checked_delta`),
and `make_app` builds an app's identity rows and slots without
`AppTransform`'s check.

Instantiation is the paper's translation step, run on every apply, so
it is compiled once per template: on first use a template derives its
hash, its canonical key (`template_key`) and its instantiation plan
together, and keeps them.  The plan holds the out port, the action's
steps flattened in order, the ttl and the counter, with literal ports
and values in place.  Equality compares the keys, `normalize` sorts by
them, and `check_instantiable`, for a caller that skips the
instantiation, resolves only the port names and destination ports the
plan looks up.  `Instances.build` runs the plan through one
`actions.ActionFold`, and builds the entry, its rule and the header's
exact pattern from parts whose constructors already checked them (the
template, `PortNumber`, `SetField`, `Header` and `Topology`, whose port
maps are read-only), through `tables.checked_entry` and
`MatchPattern.exact_for`, so those checks do not run again.

Composition, application and the constructor's check all follow the
rows' nonzeros, so a transform of n identity rows costs O(n) to build,
compose and apply, not O(n^2).

`flow_mod_add`, `flow_mod_delete` and `flow_mod_modify` are the three
shapes of the FLOW_MOD edit `tables.flow_mod`, which owns the edit and
the base the new table shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

from flowspace.actions import PORT_MASK, PORT_SLOT, TTL_MASK, ActionFold
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
    Header,
    MatchPattern,
    field_index,
    pattern_key,
)
from flowspace.nib import NIB, count_by_dest, count_by_src, effective_dest_of_header
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    checked_entry,
    flow_mod,
    union,
)

_new, _setattr = object.__new__, object.__setattr__  # as a generated `__init__` builds

# ---------------------------------------------------------------------------
# Guards


@dataclass(frozen=True, slots=True)
class TrueGuard:
    """Always satisfied."""


@dataclass(frozen=True, slots=True)
class SourceCountAtMost:
    """Holds when the per-source flow count of the steered header is <= threshold."""

    threshold: int

    def __post_init__(self):
        t = self.threshold
        if not (type(t) is int and t >= 0):
            raise (type_error("threshold", t) if type(t) is not int
                   else InvalidRuleError(f"must be non-negative, got {t}", "threshold", t))


@dataclass(frozen=True, slots=True)
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
_GUARDS = (TrueGuard, SourceCountAtMost, LoadAtMost)


def eval_guard(g: Guard, nib: NIB, h: Header) -> bool:
    if isinstance(g, TrueGuard):
        return True
    if isinstance(g, SourceCountAtMost):
        return count_by_src(nib, h) <= g.threshold
    return count_by_dest(nib, g.server_a) <= count_by_dest(nib, g.server_b)


def guard_key(g: Guard) -> tuple:
    if isinstance(g, TrueGuard):
        return (0,)
    if isinstance(g, SourceCountAtMost):
        return (1, g.threshold)
    return (2, g.server_a, g.server_b)


# ---------------------------------------------------------------------------
# Rule templates


@dataclass(frozen=True, slots=True)
class PortName:
    """A named port, resolved through the topology's port map."""

    name: str

    def __post_init__(self):
        if type(self.name) is not str:
            raise type_error("name", self.name, "a string")


@dataclass(frozen=True, slots=True)
class PortNumber:
    """A literal port."""

    value: int

    def __post_init__(self):
        value = self.value
        if not (type(value) is int and 0 <= value <= PORT_MASK):
            raise int_error("value", value, PORT_MASK)


@dataclass(frozen=True, slots=True)
class DestPort:
    """The port of the server addressed by the steered header's effective destination."""


PortRef = Union[PortName, PortNumber, DestPort]
_PORT_REFS = (PortName, PortNumber, DestPort)
_PORT_KIND = "a PortName, PortNumber or DestPort"


def make_port_name(name: str) -> PortName:
    """The port named `name`: one test, and `PortName`'s check, whose
    error is raised, only when it fails."""
    if type(name) is not str:
        return PortName(name)
    ref = _new(PortName)
    _setattr(ref, "name", name)
    return ref


def make_port_number(value: int) -> PortNumber:
    """The literal port `value`: one test, and `PortNumber`'s check,
    whose error is raised, only when it fails."""
    if not (type(value) is int and 0 <= value <= PORT_MASK):
        return PortNumber(value)
    ref = _new(PortNumber)
    _setattr(ref, "value", value)
    return ref


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Forward:
    """Translate the output port to the resolved port."""

    port: PortRef

    def __post_init__(self):
        if not isinstance(self.port, _PORT_REFS):
            raise type_error("port", self.port, _PORT_KIND)


def checked_forward(port: PortRef) -> Forward:
    """The forward to `port`, which the caller vouches is a `PortRef`,
    built without `Forward`'s check."""
    spec = _new(Forward)
    _setattr(spec, "port", port)
    return spec


@dataclass(frozen=True, slots=True)
class Drop:
    """The zero-scaling action."""


@dataclass(frozen=True, slots=True)
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


def make_set_field(field: str, to: ValueRef) -> SetField:
    """The rewrite of `field` to `to`: one test, and `SetField`'s check,
    whose error is raised, only when it fails."""
    i = FIELD_INDEX.get(field) if type(field) is str else None
    mask = -1 if i is None else FIELD_MASKS[i]  # no target fits an unknown field
    if not (type(to) is int and 0 <= to <= mask
            or isinstance(to, PickLessLoaded) and to.server_a <= mask and to.server_b <= mask):
        return SetField(field, to)
    spec = _new(SetField)
    _setattr(spec, "field", field)
    _setattr(spec, "to", to)
    return spec


@dataclass(frozen=True, slots=True)
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


def checked_seq(steps: tuple[ActionSpec, ...]) -> Seq:
    """The composite of `steps`, a tuple of action specs as the caller
    vouches, built without `Seq`'s check."""
    spec = _new(Seq)
    _setattr(spec, "steps", steps)
    return spec


@dataclass(frozen=True, slots=True)
class InputHeader:
    """Match exactly the header being steered."""


MatchSpec = Union[InputHeader, MatchPattern]
_MATCH_SPECS = (InputHeader, MatchPattern)


class KeptFacts:
    """The `_facts` slot of a `RuleTemplate`."""

    __slots__ = ("_facts",)


@dataclass(frozen=True, slots=True)
class RuleTemplate(KeptFacts):
    """A symbolic flow entry, instantiated per (NIB, header).

    Facts derived from the fields are computed together once per object,
    on first use, and kept in the `_facts` slot, out of equality, repr
    and pickling: the hash, the canonical key (`template_key`) and the
    instantiation plan (`Plan`), whose port references are the lookups
    instantiation makes.  The slot is written once and never rewritten.
    Equality compares the hashes, then the keys: constructors reject
    bools, unknown field names and out-of-range values, so equal keys
    mean equal fields.
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
        _setattr(self, "_facts", None)

    # Both read the kept facts in place and call `_facts` only the first
    # time: every set and dict operation on templates runs them.
    def __hash__(self) -> int:
        return (self._facts or _facts(self))[0]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not RuleTemplate:
            return NotImplemented
        x = self._facts or _facts(self)
        y = other._facts or _facts(other)
        return x[0] == y[0] and x[1] == y[1]

    def __reduce__(self):
        return RuleTemplate, (self.match, self.out_port, self.ttl, self.action, self.counter)


def make_template(match: MatchSpec, out_port: PortRef, ttl: int, action: ActionSpec,
                  counter: int = 0) -> RuleTemplate:
    """The template of these fields, its facts not yet derived.

    One test covers what `RuleTemplate` checks: the ttl, the counter and
    the types of the parts.  On a failure the constructor runs, so the
    error is its own.
    """
    if not (type(ttl) is int and 0 <= ttl <= TTL_MASK and type(counter) is int and counter >= 0
            and isinstance(match, _MATCH_SPECS) and isinstance(out_port, _PORT_REFS)
            and isinstance(action, _ACTION_SPECS)):
        return RuleTemplate(match, out_port, ttl, action, counter)
    t = _new(RuleTemplate)
    _setattr(t, "match", match)
    _setattr(t, "out_port", out_port)
    _setattr(t, "ttl", ttl)
    _setattr(t, "action", action)
    _setattr(t, "counter", counter)
    _setattr(t, "_facts", None)
    return t


#: A template's instantiation plan: (match, out port, ttl, steps,
#: counter).  The match is None for the steered header's exact pattern
#: and the out port an int, or the reference to look up.  The action's
#: steps, nested `seq`s included, are flattened in order into (slot,
#: argument) pairs: (`PORT_SLOT`, port) forwards to a port, an int or
#: the reference to look up; (field index, target) sets the field to an
#: int or a `PickLessLoaded`; (`_DROP`, None) drops.
Plan = tuple

#: The slot of a plan step that drops.
_DROP = -1


def _facts(t: RuleTemplate) -> tuple[int, tuple, Plan]:
    """The template's hash, canonical key and instantiation plan, derived
    together on first use and kept.

    One slot holds them all, written once, so that one test tells
    whether they exist.
    """
    facts = t._facts
    if facts is None:
        out = t.out_port
        facts = (hash((t.match, out, t.ttl, t.action, t.counter)), _canonical_key(t),
                 (None if isinstance(t.match, InputHeader) else t.match,
                  out.value if isinstance(out, PortNumber) else out,
                  t.ttl, tuple(_plan_steps(t.action)), t.counter))
        _setattr(t, "_facts", facts)
    return facts


def _plan_steps(spec: ActionSpec) -> Iterator[tuple]:
    if isinstance(spec, Drop):
        yield _DROP, None
    elif isinstance(spec, Forward):
        port = spec.port
        yield PORT_SLOT, port.value if isinstance(port, PortNumber) else port
    elif isinstance(spec, SetField):
        yield FIELD_INDEX[spec.field], spec.to
    else:
        for step in spec.steps:
            yield from _plan_steps(step)


def _lookups(plan: Plan) -> Iterator[PortRef]:
    """The port names and destination ports that running `plan` looks up,
    in its order: the out port, then each forward step's.  A literal port
    is an int there, needs no lookup and cannot fail."""
    out, steps = plan[1], plan[3]
    if type(out) is not int:
        yield out
    for slot, arg in steps:
        if slot == PORT_SLOT and type(arg) is not int:
            yield arg


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


def _canonical_key(t: RuleTemplate) -> tuple:
    return (_match_spec_key(t.match), _port_key(t.out_port), t.ttl,
            _action_spec_key(t.action), t.counter)


def template_key(t: RuleTemplate) -> tuple:
    """The template's canonical total-order key; equal exactly when the
    templates are.  Computed once per template and kept."""
    return _facts(t)[1]


# ---------------------------------------------------------------------------
# Guarded deltas and application transforms

Templates = tuple[RuleTemplate, ...]
Branch = tuple[Guard, Templates]


@dataclass(frozen=True, slots=True)
class GuardedDelta:
    """One piecewise table delta: ordered guarded arms plus the otherwise arm."""

    branches: tuple[Branch, ...]
    default: Templates

    def __post_init__(self):
        # One test on the valid path, which `normalize` takes for every
        # piece it builds; the error is worked out only when it fails.
        branches = self.branches
        if not (_are_templates(self.default) and isinstance(branches, tuple)
                and all([isinstance(b, tuple) and len(b) == 2 and isinstance(b[0], _GUARDS)
                         and _are_templates(b[1]) for b in branches])):
            raise _delta_error(branches, self.default)


def checked_delta(branches: tuple[Branch, ...], default: Templates) -> GuardedDelta:
    """The piece of these arms, which the caller vouches are as
    `GuardedDelta` checks them (a tuple of (guard, template tuple)
    pairs, and a template tuple), built without that check."""
    piece = _new(GuardedDelta)
    _setattr(piece, "branches", branches)
    _setattr(piece, "default", default)
    return piece


def _piece_key(piece: GuardedDelta) -> tuple:
    """Equal exactly when the pieces are: guards and templates are keyed
    one to one."""
    return (tuple([(guard_key(g), tuple([_facts(t)[1] for t in arm]))
                   for g, arm in piece.branches]),
            tuple([_facts(t)[1] for t in piece.default]))


def _are_templates(x) -> bool:
    return isinstance(x, tuple) and all([isinstance(t, RuleTemplate) for t in x])


def _delta_error(branches, default) -> InvalidRuleError:
    """The error for the first wrong branch shape or guard, else template tuple."""
    if not isinstance(branches, tuple):
        return type_error("branches", branches, "a tuple")
    arms = []
    for i, b in enumerate(branches):
        if not (isinstance(b, tuple) and len(b) == 2):
            return type_error(f"branches[{i}]", b, "a (guard, templates) pair")
        if not isinstance(b[0], _GUARDS):
            return type_error(f"branches[{i}][0]", b[0],
                              "a TrueGuard, SourceCountAtMost or LoadAtMost")
        arms.append((f"branches[{i}][1]", b[1]))
    for field, x in arms + [("default", default)]:
        if not isinstance(x, tuple):
            return type_error(field, x, "a tuple")
        for j, t in enumerate(x):
            if not isinstance(t, RuleTemplate):
                return type_error(f"{field}[{j}]", t, "a RuleTemplate")


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
    """A control application as a matrix over the table vector.

    `linear` holds one row per slot, row i the sorted tuple of the
    columns whose entry is 1 over the two-element field: slot i's input
    is the union of the tables its row names.  The identity is
    `((0,), (1,), ..., (n-1,))`, and a zero row `()` starts its slot
    from the empty table.
    """

    name: str
    linear: tuple[tuple[int, ...], ...]
    translation: tuple[DeltaSum, ...]

    def __post_init__(self):
        # One test on the valid path, which `chain` and `normalize` take
        # for every transform they build; the error is worked out only
        # when it fails.
        name, linear, translation = self.name, self.linear, self.translation
        if type(name) is not str:
            raise type_error("name", name, "a string")
        if not (isinstance(translation, tuple) and all([isinstance(s, tuple) for s in translation])
                and all([isinstance(p, GuardedDelta) for s in translation for p in s])):
            raise _translation_error(translation)
        n = len(translation)
        if not isinstance(linear, tuple):
            raise type_error("linear", linear, "a tuple")
        if len(linear) != n:
            raise DimensionMismatchError(
                f"linear part must have one row per slot, got {len(linear)} for {n}")
        for row in linear:  # O(its length) per row; True equals 1 but is no int
            if not isinstance(row, tuple):
                raise _linear_error(linear, n)
            last = -1
            for c in row:
                if type(c) is not int or not last < c < n:
                    raise _linear_error(linear, n)
                last = c

    @property
    def dimension(self) -> int:
        return len(self.translation)

    # Each is derived on first use and kept in the instance dict (this
    # type has no slots), so it takes no part in equality, hashing or repr.
    @cached_property
    def normal_form(self) -> AppTransform:
        """The canonical form `normalize` returns; see `_canon_sum`."""
        return AppTransform(self.name, self.linear,
                            tuple(_canon_sum(s) for s in self.translation))

    @cached_property
    def slot_keys(self) -> tuple[tuple, ...]:
        """One key per slot, of `guard_key`s and `template_key`s: two slots'
        keys are equal exactly when their piece sums are."""
        return tuple([tuple([_piece_key(p) for p in slot]) for slot in self.translation])

    @cached_property
    def port_lookups(self) -> tuple[PortRef, ...]:
        """The distinct port names and destination ports that instantiating
        any of its templates looks up, in order of first appearance."""
        return tuple(dict.fromkeys([
            ref for slot in self.translation for piece in slot
            for templates in (*[arm for _, arm in piece.branches], piece.default)
            for tpl in templates for ref in _lookups(_facts(tpl)[2])]))


def _translation_error(translation) -> InvalidRuleError:
    """The error for the first slot or piece that is not a tuple or a `GuardedDelta`."""
    if not isinstance(translation, tuple):
        return type_error("translation", translation, "a tuple")
    for i, slot in enumerate(translation):
        if not isinstance(slot, tuple):
            return type_error(f"translation[{i}]", slot, "a tuple")
        for j, piece in enumerate(slot):
            if not isinstance(piece, GuardedDelta):
                return type_error(f"translation[{i}][{j}]", piece, "a GuardedDelta")


def _linear_error(linear: tuple, n: int) -> InvalidRuleError:
    """The error for the first row that is not a tuple, or for the first
    column that is not a slot above the one before it in its row."""
    for i, row in enumerate(linear):
        if not isinstance(row, tuple):
            return type_error(f"linear[{i}]", row, "a tuple")
        for k, c in enumerate(row):
            if type(c) is not int:
                return type_error(f"linear[{i}][{k}]", c)
            if not 0 <= c < n:
                return InvalidRuleError(f"must be a slot in 0..{n - 1}, got {c}",
                                        f"linear[{i}][{k}]", c)
            if k and c <= row[k - 1]:
                return InvalidRuleError(
                    f"must exceed the column before it, {row[k - 1]}, got {c}",
                    f"linear[{i}][{k}]", c)


@dataclass(frozen=True)
class ServiceChain:
    """An ordered sequence of applications; the first stage applies first."""

    stages: tuple[AppTransform, ...]

    def __post_init__(self):
        stages = self.stages
        if not isinstance(stages, tuple):
            raise type_error("stages", stages, "a tuple")
        for i, stage in enumerate(stages):
            if not isinstance(stage, AppTransform):
                raise type_error(f"stages[{i}]", stage, "an AppTransform")
        if not stages:
            raise EmptyChainError("a service chain needs at least one stage")

    # Kept like `AppTransform.normal_form`, out of equality, hashing and repr.
    @cached_property
    def composite(self) -> AppTransform:
        """The one transform of the chain, which `chain` returns."""
        return _compose(self.stages)


def _identity_rows(n: int) -> tuple[tuple[int], ...]:
    return tuple([(i,) for i in range(n)])


def identity_transform(n: int, name: str = "identity") -> AppTransform:
    return AppTransform(name, _identity_rows(n), ((),) * n)


def make_app(name: str, slot: int, delta: GuardedDelta, n: int) -> AppTransform:
    """An application that applies one delta to one switch slot.

    Its linear part and translation are well formed by construction, so
    with a string name it is built without `AppTransform`'s check; the
    scenario decoder builds one per app object."""
    if not isinstance(delta, GuardedDelta):
        raise type_error("delta", delta, "a GuardedDelta")
    if not (type(slot) is int and 0 <= slot < n):
        if type(slot) is not int:
            raise type_error("slot", slot)
        raise SlotOutOfRangeError(f"slot {slot} out of range for {n} switches")
    linear = _identity_rows(n)
    translation = tuple([(delta,) if i == slot else () for i in range(n)])
    if type(name) is not str:
        return AppTransform(name, linear, translation)  # raises the name's error
    app = _new(AppTransform)
    _setattr(app, "name", name)
    _setattr(app, "linear", linear)
    _setattr(app, "translation", translation)
    return app


def is_identity_linear(a: AppTransform) -> bool:
    return all([row == (i,) for i, row in enumerate(a.linear)])


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
    """The port `ref` stands for on (NIB, header).

    Every port was checked where it was built: a literal port by its
    constructor, a port the topology holds by the topology's.  Names
    come first: instantiation and the lookup checks resolve no literal
    port.
    """
    if isinstance(ref, PortName):
        try:
            return nib.topology.ports[ref.name]
        except KeyError:
            raise UnresolvedPortError(f"no port named {ref.name!r} in topology") from None
    if isinstance(ref, PortNumber):
        return ref.value
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


def select_templates(piece: GuardedDelta, nib: NIB, h: Header) -> Templates:
    """First satisfied arm wins; the otherwise arm catches the rest."""
    for guard, templates in piece.branches:
        if eval_guard(guard, nib, h):
            return templates
    return piece.default


def check_dimension(a: AppTransform, nib: NIB) -> None:
    """Raise unless `a` has one slot per switch of the NIB."""
    n = nib.topology.switch_count
    if a.dimension != n:
        raise DimensionMismatchError(
            f"transform has {a.dimension} slots, topology has {n} switches"
        )


def select_slot(a: AppTransform, i: int, nib: NIB, h: Header) -> Templates:
    """Slot i's selected templates for (NIB, header), in apply order."""
    selected = []
    for piece in a.translation[i]:
        selected.extend(select_templates(piece, nib, h))
    return tuple(selected)


def selections(a: AppTransform, nib: NIB, h: Header) -> tuple[Templates, ...]:
    """Each slot's selected templates for (NIB, header), in apply order.

    A slot's entries are the instantiations of exactly these templates,
    so two transforms with equal linear parts whose slots select equal
    template sets give equal tables on this NIB and header.
    """
    check_dimension(a, nib)
    return tuple([select_slot(a, i, nib, h) for i in range(a.dimension)])


def lookups_resolve(a: AppTransform, nib: NIB, h: Header) -> bool:
    """Whether every port lookup of `a`'s templates resolves for (NIB,
    header), so that none of its selections can fail to instantiate.

    Each distinct name and destination port is resolved once, through
    `resolve_port`, in order of first appearance.
    """
    try:
        for ref in a.port_lookups:
            resolve_port(ref, nib, h)
    except UnresolvedPortError:
        return False
    return True


def check_instantiable(templates: Iterable[RuleTemplate], nib: NIB, h: Header) -> None:
    """Raise what instantiating the templates in order would raise.

    Instantiation can fail only on a port lookup, of the out port and
    then of each `Forward` port in step order, so only those are
    resolved, and of them only the names and destination ports that each
    template's kept plan looks up: a literal port cannot fail.
    """
    for tpl in templates:
        for ref in _lookups(_facts(tpl)[2]):
            resolve_port(ref, nib, h)


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
    header, so each template is built the first time it is asked for
    and its entry is reused after that; the exact pattern of the header
    is built once too.
    """

    __slots__ = ("nib", "h", "_built", "_exact")

    def __init__(self, nib: NIB, h: Header):
        self.nib, self.h = nib, h
        self._built: dict[RuleTemplate, FlowEntry] = {}
        self._exact: MatchPattern | None = None

    def entry(self, tpl: RuleTemplate) -> FlowEntry:
        e = self._built.get(tpl)
        if e is None:
            e = self._built[tpl] = self.build(tpl)
        return e

    def build(self, tpl: RuleTemplate) -> FlowEntry:
        """Run `tpl`'s instantiation plan (`Plan`), derived with its hash and
        key on first use, for this NIB and header.

        Ports are looked up in the template's order: the out port, then
        each `Forward` step's.  The steps fold left to right into one
        `ActionFold`; a `set_field` translates its field by the distance
        from the value the earlier steps leave there to the target, so
        the field ends at the target.  Every part of the entry passed a
        check where it was built (the template, its `PortNumber`s and
        `SetField`s, the `Header`, the `Topology`), and the fold is valid
        by construction, so the entry is built without checking them
        again.
        """
        match, out, ttl, steps, counter = (tpl._facts or _facts(tpl))[2]
        nib, h = self.nib, self.h
        if match is None:
            match = self._exact
            if match is None:
                match = self._exact = MatchPattern.exact_for(h)
        if type(out) is not int:
            out = resolve_port(out, nib, h)
        fold = ActionFold()
        for slot, arg in steps:
            if slot == PORT_SLOT:
                fold.translate(slot, arg if type(arg) is int else resolve_port(arg, nib, h))
            elif slot == _DROP:
                fold.drop()
            else:
                target = arg if type(arg) is int else resolve_value(arg, nib)
                fold.translate(slot, target - fold.value(slot, h.values[slot]))
        return checked_entry(match, out, ttl, fold.action(), counter)

    def table(self, a: AppTransform, i: int, selected: Templates) -> FlowTable:
        """Slot i's table under `a`: the union of the NIB's tables that
        row i of the linear part names, plus the entries of the selected
        templates."""
        tables = self.nib.tables
        return union([tables[j] for j in a.linear[i]], [self.entry(tpl) for tpl in selected])

    def apply(self, a: AppTransform, selected: Sequence[Templates]) -> NIB:
        """The NIB that `a` gives, from its `selections` for this NIB and header."""
        nib = self.nib
        return NIB(nib.topology, tuple([self.table(a, i, s) for i, s in enumerate(selected)]),
                   nib.flows)


# ---------------------------------------------------------------------------
# Composition


def compose_apps(second: AppTransform, first: AppTransform) -> AppTransform:
    """The transform applying `first` and then `second`."""
    return chain((first, second))


def chain(stages: ServiceChain | Sequence[AppTransform]) -> AppTransform:
    """Collapse a chain into one composite; the first stage applies first.

    A `ServiceChain` composes once and keeps its composite, so every call
    on it returns the same object; a sequence is composed on each call.
    """
    if isinstance(stages, ServiceChain):
        return stages.composite
    return _compose(tuple(stages))


def _compose(seq: tuple[AppTransform, ...]) -> AppTransform:
    """The composite of the stages, first stage first.

    One pass over the stages, linear in their count, pieces and the
    nonzeros of their rows.  Linear parts multiply over the two-element
    field, a row at a time: after a stage, row i is the symmetric
    difference of the accumulated rows that the stage's row i names (one
    named row is reused as is).  Slot i's pieces become the accumulated
    pieces of those same slots, followed by the stage's own; a row that
    is the only one to name a single slot extends that slot's list in
    place, so an identity or permuting stage copies nothing.  The
    composite, named `s_k*...*s_0`, is built once.
    """
    if not seq:
        raise EmptyChainError("cannot compose an empty chain")
    name = "*".join([stage.name for stage in reversed(seq)])
    first = seq[0]
    n = first.dimension
    linear = first.linear
    pieces = [list(slot) for slot in first.translation]
    for stage in seq[1:]:
        if stage.dimension != n:
            raise DimensionMismatchError(
                f"cannot compose {stage.dimension}-slot with {n}-slot transform"
            )
        uses = [0] * n
        for row in stage.linear:
            for j in row:
                uses[j] += 1
        rows, slots = [], []
        for row, own in zip(stage.linear, stage.translation):
            if len(row) == 1:
                j = row[0]
                rows.append(linear[j])
                slot = pieces[j] if uses[j] == 1 else pieces[j].copy()
            else:
                acc: set[int] = set()
                for j in row:
                    acc.symmetric_difference_update(linear[j])
                rows.append(tuple(sorted(acc)))
                slot = [p for j in row for p in pieces[j]]
            slot.extend(own)
            slots.append(slot)
        linear, pieces = tuple(rows), slots
    return AppTransform(name, linear, tuple(map(tuple, pieces)))


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


def _canon_sum(pieces: DeltaSum) -> DeltaSum:
    """Canonicalize a formal sum of pieces in one pass.

    Pieces with identical guard sequences always fire the same arm
    index, so they merge arm-wise (template-set union).  A merged group
    whose arms all agree with its otherwise arm folds into the
    unconditional group, which cannot collapse further.  Pieces that
    contribute nothing vanish.  Guard sequences are unique after
    grouping, so they alone order the surviving pieces.  Template sets
    sort by `template_key`, which each template computes once and keeps.
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
                tuple((g, tuple(sorted(arm, key=template_key))) for g, arm in zip(guards, arms)),
                tuple(sorted(default, key=template_key)),
            ))
    if always:
        out.append(GuardedDelta((), tuple(sorted(always, key=template_key))))
    return tuple(sorted(out, key=lambda p: tuple(guard_key(g) for g, _ in p.branches)))


def normalize(a: AppTransform) -> AppTransform:
    """Canonical form whose structural equality decides congruence.

    Computed once per transform and kept: every call on `a` returns the
    same object.
    """
    return a.normal_form


def normal_forms(a: AppTransform, b: AppTransform) -> tuple[AppTransform, AppTransform]:
    """The normal forms of two transforms that have the same slot count."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"cannot compare {a.dimension}-slot with {b.dimension}-slot transform"
        )
    return normalize(a), normalize(b)
