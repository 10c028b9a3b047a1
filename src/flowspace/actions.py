"""The rule-state action algebra.

An action operates on the homogeneous rule state [header fields,
out_port, ttl, 1].  Forward and modify-field are translations of one
slot; drop is the zero scaling.  All such maps, and every product of
them, fit in a closed canonical form: a 0/1 diagonal plus a translation
vector, with the homogeneous row implicit.  Dense matrices never appear
at runtime; the test suite expands actions densely as an independent
oracle.

Composites with drop keep the exact matrix semantics: their diagonal is
all zeros, and a translation applied after the drop survives as a
constant output.  Only actions with an all-ones diagonal are
invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, neg

from flowspace.errors import (
    InvalidRuleError,
    SingularActionError,
    WidthOverflowError,
    int_error,
    type_error,
)
from flowspace.headers import FIELD_COUNT, FIELD_MASKS, FIELDS, Header, field_index

# State vector layout: the 12 header fields, then out_port, then ttl.
PORT_SLOT = FIELD_COUNT
TTL_SLOT = FIELD_COUNT + 1
STATE_SIZE = FIELD_COUNT + 2

PORT_MASK = 0xFFFF
TTL_MASK = 0xFFFF  # OpenFlow 1.0 timeouts are u16

STATE_MASKS: tuple[int, ...] = FIELD_MASKS + (PORT_MASK, TTL_MASK)

_ZEROS = (0,) * STATE_SIZE
_ONES = (1,) * STATE_SIZE
_new, _setattr = object.__new__, object.__setattr__  # as a generated `__init__` builds


@dataclass(frozen=True, slots=True)
class RuleState:
    """The vector an action acts on: a header, an output port and a ttl."""

    header: Header
    out_port: int
    ttl: int

    def __post_init__(self):
        # One test on the path every valid state takes, as in `FlowRule`.
        port, ttl = self.out_port, self.ttl
        if not (type(port) is int and 0 <= port <= PORT_MASK
                and type(ttl) is int and 0 <= ttl <= TTL_MASK
                and isinstance(self.header, Header)):
            if not isinstance(self.header, Header):
                raise type_error("header", self.header, "a Header")
            for name, value, mask in (("out_port", port, PORT_MASK), ("ttl", ttl, TTL_MASK)):
                if type(value) is not int:
                    raise type_error(name, value)
                if not 0 <= value <= mask:
                    raise WidthOverflowError(name, value, mask.bit_length())

    def vector(self) -> tuple[int, ...]:
        return self.header.values + (self.out_port, self.ttl)

    @classmethod
    def from_vector(cls, vec: tuple[int, ...]) -> RuleState:
        return cls(Header(vec[:FIELD_COUNT]), vec[PORT_SLOT], vec[TTL_SLOT])


@dataclass(frozen=True, slots=True)
class AffineAction:
    """Canonical diagonal-plus-translation form of a rule-state map."""

    linear: tuple[int, ...]
    translation: tuple[int, ...]

    def __post_init__(self):
        linear, translation = self.linear, self.translation  # a diagonal entry's mask is 1
        if not (_fits(linear, _ONES) and _fits(translation, STATE_MASKS)):
            raise (_vector_error("linear", linear, _ONES)
                   or _vector_error("translation", translation, STATE_MASKS))


def _fits(vec, masks: tuple[int, ...]) -> bool:
    """Whether vec is a tuple of STATE_SIZE real ints (a bool or float is
    not), each in 0..its mask."""
    if type(vec) is not tuple or len(vec) != STATE_SIZE:
        return False
    for v, m in zip(vec, masks):
        if type(v) is not int or not 0 <= v <= m:
            return False
    return True


def _vector_error(name: str, vec, masks: tuple[int, ...]) -> InvalidRuleError | None:
    """Why vec is not an action vector, naming its first bad entry, or None."""
    if type(vec) is not tuple:
        return type_error(name, vec, "a tuple")
    if len(vec) != STATE_SIZE:
        return InvalidRuleError(f"must have {STATE_SIZE} slots, got {len(vec)}", name, vec)
    return next(filter(None, (int_error(f"{name}[{i}]", v, m)
                              for i, (v, m) in enumerate(zip(vec, masks)))), None)


def identity() -> AffineAction:
    return AffineAction(_ONES, _ZEROS)


def forward(port_delta: int) -> AffineAction:
    """Translate the output port; header and ttl are untouched."""
    if type(port_delta) is not int:
        raise type_error("delta", port_delta)
    tr = list(_ZEROS)
    tr[PORT_SLOT] = port_delta % (PORT_MASK + 1)
    return AffineAction(_ONES, tuple(tr))


def drop() -> AffineAction:
    """The zero scaling: every state maps to the all-zero state."""
    return AffineAction(_ZEROS, _ZEROS)


def modify_field(field: int | str, delta: int) -> AffineAction:
    """Translate one header field by delta (mod the field's width)."""
    i = field_index(field)
    if type(delta) is not int:
        raise type_error("delta", delta)
    tr = list(_ZEROS)
    tr[i] = delta % (FIELD_MASKS[i] + 1)
    return AffineAction(_ONES, tuple(tr))


def compose(second: AffineAction, first: AffineAction) -> AffineAction:
    """The action applying `first` and then `second` (matrix product).

    Diagonals multiply pointwise; the translation of the composite is
    second.linear * first.translation + second.translation, per slot.
    """
    lin = tuple(a & b for a, b in zip(second.linear, first.linear))
    tr = tuple(
        (sl * ft + st) & m
        for sl, st, ft, m in zip(second.linear, second.translation, first.translation, STATE_MASKS)
    )
    return AffineAction(lin, tr)


class ActionFold:
    """A left-to-right product of forward, modify and drop steps, built in
    place.

    After steps s1, ..., sk, `action()` equals folding `compose` over them,
    compose(sk, ... compose(s1, identity())).  Diagonals stay exact: a
    translation step has an all-ones diagonal, so it keeps the diagonal
    and adds its delta to one slot under the slot's mask; a drop has an
    all-zero diagonal and translation, so it zeroes both vectors.  The
    diagonal is `_ONES` or `_ZEROS` and every translation entry is an int
    under its slot's mask, so the result is valid by construction and
    `action()` builds it without the constructor's entry-by-entry check
    (see the `headers` module docstring for how a trusted builder writes
    fields).
    """

    __slots__ = ("linear", "translation")

    def __init__(self):
        self.linear = _ONES
        self.translation = list(_ZEROS)

    def translate(self, slot: int, delta: int) -> None:
        """Apply a translation of `slot` by `delta` (any integer) after the steps so far."""
        self.translation[slot] = (self.translation[slot] + delta) & STATE_MASKS[slot]

    def drop(self) -> None:
        """Apply a drop after the steps so far."""
        self.linear = _ZEROS
        self.translation = list(_ZEROS)

    def value(self, slot: int, start: int) -> int:
        """The value that the steps so far leave in `slot` when it starts at `start`."""
        return (self.linear[slot] * start + self.translation[slot]) & STATE_MASKS[slot]

    def action(self) -> AffineAction:
        a = _new(AffineAction)
        _setattr(a, "linear", self.linear)
        _setattr(a, "translation", tuple(self.translation))
        return a


def apply_action(a: AffineAction, s: RuleState) -> RuleState:
    vec = tuple(
        (l * v + t) & m for l, v, t, m in zip(a.linear, s.vector(), a.translation, STATE_MASKS)
    )
    return RuleState.from_vector(vec)


def negate_translation(translation: tuple[int, ...]) -> tuple[int, ...]:
    """Slotwise additive inverse of a state translation: (-t_i) mod 2**width_i."""
    return tuple(map(and_, map(neg, translation), STATE_MASKS))


#: Per slot, the bits below the top bit of its width.
_LOW_BITS = tuple(m >> 1 for m in STATE_MASKS)


def is_own_negation(translation: tuple[int, ...]) -> bool:
    """Whether the translation equals its `negate_translation`: every slot
    is 0 or half its modulus, so no slot has a bit below its top bit."""
    return not any(map(and_, translation, _LOW_BITS))


def invert(a: AffineAction) -> AffineAction:
    """The inverse map; only all-ones diagonals are invertible."""
    if not all(a.linear):
        raise SingularActionError("zero-scaled actions have no inverse")
    return AffineAction(a.linear, negate_translation(a.translation))


def is_identity(a: AffineAction) -> bool:
    return a.linear == _ONES and a.translation == _ZEROS


def is_invertible(a: AffineAction) -> bool:
    return all(a.linear)


def action_key(a: AffineAction) -> tuple:
    """Deterministic total-order key used for canonical table ordering."""
    return (a.linear, a.translation)


@dataclass(frozen=True, slots=True)
class ActionLabel:
    """Human-facing classification of an action's matrix content.

    kind is one of "forward", "drop", "modify" or "composite"; field and
    delta are set for the single-translation kinds.
    """

    kind: str
    field: str | None = None
    delta: int | None = None


def label(a: AffineAction) -> ActionLabel:
    if not any(a.linear):
        if not any(a.translation):
            return ActionLabel("drop")
        return ActionLabel("composite")
    if not all(a.linear):
        return ActionLabel("composite")
    hot = [i for i, t in enumerate(a.translation) if t]
    if hot == [] or hot == [PORT_SLOT]:
        return ActionLabel("forward", delta=a.translation[PORT_SLOT])
    if len(hot) == 1 and hot[0] < FIELD_COUNT:
        i = hot[0]
        return ActionLabel("modify", field=FIELDS[i].name, delta=a.translation[i])
    return ActionLabel("composite")


def describe(a: AffineAction) -> str:
    """Short text form, e.g. ``forward(+3)`` or ``modify(nw_dst,+7)``."""
    lab = label(a)
    if lab.kind == "drop":
        return "drop"
    if lab.kind == "forward":
        return f"forward(+{lab.delta})"
    if lab.kind == "modify":
        return f"modify({lab.field},+{lab.delta})"
    parts = []
    if not any(a.linear):
        parts.append("drop")
    for i, t in enumerate(a.translation):
        if not t:
            continue
        if i == PORT_SLOT:
            parts.append(f"forward(+{t})")
        elif i == TTL_SLOT:
            parts.append(f"ttl(+{t})")
        else:
            parts.append(f"modify({FIELDS[i].name},+{t})")
    return "seq[" + ", ".join(parts) + "]"
