"""The OpenFlow 1.0 header space.

A header is a tuple of the twelve fixed-width match fields of OpenFlow
1.0, one unsigned integer per field.  Each field carries its own
modulus 2**width: translating a field is modular addition, so every
translation has an exact inverse and a set-field rewrite can always be
expressed as a translation (delta = new - old mod 2**width).

Match patterns are the all-or-nothing wildcard form used by flow rules:
per field, either an exact value or a wildcard.  Prefix masks are out
of scope.

Value convention: every value type is a frozen dataclass with
`slots=True`, and has no instance `__dict__` unless it keeps a derived
value there (`NIB`, `AppTransform`, `ServiceChain`, `Counterexample`).
A builder for parts already checked writes fields as the generated
`__init__` does, `object.__new__` then `object.__setattr__`.  A kept
value is a slot a base class declares (`KeptHash._hash`,
`RuleTemplate._facts`), so it stays out of equality, repr and
`dataclasses.fields`; its type copies and pickles through a `__reduce__`
that calls the constructor, as `hash(None)` and string hashes differ
between processes.  A `Topology` keeps its port maps as read-only views
(`types.MappingProxyType`) of the copies its constructor checked, so
they cannot change after the check and the topology hashes; a view
cannot be pickled or deep-copied, so `Topology` has such a `__reduce__`
too.
"""

from __future__ import annotations

from dataclasses import dataclass

from flowspace.errors import (
    ArityMismatchError,
    FlowspaceError,
    InvalidRuleError,
    UnknownFieldError,
    WidthOverflowError,
    type_error,
)


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One canonical match field: a name and a bit width in [1, 64]."""

    name: str
    width: int


#: The OpenFlow 1.0 match set, in wire order.
FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("in_port", 16),
    FieldSpec("dl_src", 48),
    FieldSpec("dl_dst", 48),
    FieldSpec("dl_type", 16),
    FieldSpec("dl_vlan", 12),
    FieldSpec("dl_vlan_pcp", 3),
    FieldSpec("nw_src", 32),
    FieldSpec("nw_dst", 32),
    FieldSpec("nw_proto", 8),
    FieldSpec("nw_tos", 6),
    FieldSpec("tp_src", 16),
    FieldSpec("tp_dst", 16),
)

FIELD_COUNT = len(FIELDS)
FIELD_INDEX: dict[str, int] = {f.name: i for i, f in enumerate(FIELDS)}
FIELD_MASKS: tuple[int, ...] = tuple((1 << f.width) - 1 for f in FIELDS)
FIELD_BOUNDS: tuple[int, ...] = tuple(1 << f.width for f in FIELDS)

_SLOTS: dict[str, tuple[int, int]] = {f.name: (i, 1 << f.width) for i, f in enumerate(FIELDS)}
_ZEROS = (0,) * FIELD_COUNT
_WILDCARDS = (None,) * FIELD_COUNT
_new, _setattr = object.__new__, object.__setattr__  # as a generated `__init__` builds

NW_SRC = FIELD_INDEX["nw_src"]
NW_DST = FIELD_INDEX["nw_dst"]

#: Server addresses (flow assignments, load guards, server ports) are
#: nw_dst values.
ADDRESS_MASK = FIELD_MASKS[NW_DST]


def field_index(field: int | str) -> int:
    """Resolve a field given by index or canonical name; a bool or a
    float is neither."""
    if isinstance(field, str):
        try:
            return FIELD_INDEX[field]
        except KeyError:
            raise UnknownFieldError(f"unknown field {field!r}") from None
    if type(field) is not int:
        raise UnknownFieldError(f"a field is a name or an index, got {type(field).__name__}")
    if not 0 <= field < FIELD_COUNT:
        raise UnknownFieldError(f"field index {field} out of range")
    return field


def _check_values(values: tuple[int, ...], kind: str) -> None:
    """One real int (a bool or a float is not one) per field, in its range."""
    if len(values) != FIELD_COUNT:
        raise ArityMismatchError(f"{kind} needs {FIELD_COUNT} values, got {len(values)}")
    for value, bound in zip(values, FIELD_BOUNDS):
        if not (type(value) is int and 0 <= value < bound):
            raise _field_error(values)


def _field_error(values: tuple) -> InvalidRuleError:
    """The error for the first value that is not a real int in its field's range."""
    for value, bound, spec in zip(values, FIELD_BOUNDS, FIELDS):
        if type(value) is not int:
            return type_error(spec.name, value)
        if not 0 <= value < bound:
            return WidthOverflowError(spec.name, value, spec.width)


@dataclass(frozen=True, slots=True)
class Header:
    """A point in the header space: one value per canonical field, a real
    int that fits the field."""

    values: tuple[int, ...]

    def __post_init__(self):
        _check_values(self.values, "header")

    def field(self, field: int | str) -> int:
        return self.values[field_index(field)]

    @classmethod
    def from_fields(cls, **fields: int) -> Header:
        """Build a header from named fields; omitted fields are 0."""
        return cls.from_mapping(fields)

    @classmethod
    def from_mapping(cls, fields) -> Header:
        """The header holding the values `fields` maps field names to;
        omitted fields are 0.

        Only the named values are tested, since 0 fits every field.  On a
        failure the full check runs: an unknown name raises
        `UnknownFieldError`, else the error names the first bad field in
        field order.
        """
        values = list(_ZEROS)
        try:
            for name, value in fields.items():
                i, bound = _SLOTS[name]
                if not (type(value) is int and 0 <= value < bound):
                    raise _mapping_error(fields)
                values[i] = value
        except KeyError:
            raise _mapping_error(fields) from None
        h = _new(cls)
        _setattr(h, "values", tuple(values))
        return h


def _unknown_name(fields) -> UnknownFieldError | None:
    """The error for the first name of a field mapping that names no field, or None."""
    for name in fields:
        if name not in FIELD_INDEX:
            return UnknownFieldError(f"unknown field {name!r}")
    return None


def _mapping_error(fields) -> FlowspaceError:
    """The error for a field mapping that names no valid header: its first
    unknown name, else its first bad value in field order."""
    return _unknown_name(fields) or _field_error(tuple(map(fields.get, FIELD_INDEX, _ZEROS)))


@dataclass(frozen=True, slots=True)
class HeaderDelta:
    """A per-field translation amount, interpreted modulo 2**width."""

    deltas: tuple[int, ...]

    def __post_init__(self):
        _check_values(self.deltas, "delta")

    @classmethod
    def zero(cls) -> HeaderDelta:
        return cls((0,) * FIELD_COUNT)

    @classmethod
    def single(cls, field: int | str, delta: int) -> HeaderDelta:
        """A delta touching one field only; reduced into the field's range."""
        i = field_index(field)
        if type(delta) is not int:
            raise type_error("delta", delta)
        deltas = [0] * FIELD_COUNT
        deltas[i] = delta & FIELD_MASKS[i]
        return cls(tuple(deltas))

    def negated(self) -> HeaderDelta:
        """The inverse translation: translating by d then d.negated() is a no-op."""
        return HeaderDelta(tuple(-d & m for d, m in zip(self.deltas, FIELD_MASKS)))


def make_header(values) -> Header:
    """Validate a 12-tuple of field values into a Header."""
    return Header(tuple(values))


def field_delta(old: int, new: int, width: int) -> int:
    """Translation amount taking `old` to `new` in a width-bit field."""
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    bound = 1 << width
    if not 0 <= old < bound:
        raise WidthOverflowError("old", old, width)
    if not 0 <= new < bound:
        raise WidthOverflowError("new", new, width)
    return (new - old) % bound


def translate_header(h: Header, d: HeaderDelta) -> Header:
    """Translate every field of h by d, each modulo its own width."""
    return Header(tuple((v + x) & m for v, x, m in zip(h.values, d.deltas, FIELD_MASKS)))


class KeptHash:
    """The `_hash` slot of a value that keeps its hash."""

    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True)
class MatchPattern(KeptHash):
    """Per-field match: an exact value (a real int that fits the field)
    or None for wildcard.

    The hash is kept (see `KeptHash`): one pattern is hashed again in
    every inverse-index key of the table entries that share it.
    """

    entries: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.entries) != FIELD_COUNT:
            raise ArityMismatchError(
                f"pattern needs {FIELD_COUNT} entries, got {len(self.entries)}")
        for entry, bound in zip(self.entries, FIELD_BOUNDS):
            if entry is not None and not (type(entry) is int and 0 <= entry < bound):
                raise _field_error(tuple(0 if e is None else e for e in self.entries))
        _setattr(self, "_hash", hash(self.entries))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return MatchPattern, (self.entries,)

    @classmethod
    def wildcard(cls) -> MatchPattern:
        return cls(_WILDCARDS)

    @classmethod
    def from_fields(cls, **fields: int) -> MatchPattern:
        """Exact matches on the named fields; omitted fields are wildcards."""
        return cls.from_mapping(fields)

    @classmethod
    def from_mapping(cls, fields) -> MatchPattern:
        """The pattern matching exactly the values `fields` maps field
        names to; omitted fields are wildcards.  The twin of
        `Header.from_mapping`.

        Only the named values are tested, since a wildcard fits every
        field.  On a failure the full check runs: an unknown name raises
        `UnknownFieldError`, else the constructor checks all twelve
        entries, so the error names the first bad field in field order
        and a `None` value stands for a wildcard, as it does there.
        """
        entries = list(_WILDCARDS)
        try:
            for name, value in fields.items():
                i, bound = _SLOTS[name]
                if not (type(value) is int and 0 <= value < bound):
                    break
                entries[i] = value
            else:
                return _pattern(tuple(entries))
        except KeyError:
            pass
        error = _unknown_name(fields)
        if error is not None:
            raise error
        return cls(tuple(map(fields.get, FIELD_INDEX)))

    @classmethod
    def exact_for(cls, h: Header) -> MatchPattern:
        """The fully-exact pattern matching only h.

        A `Header`'s values passed the per-field check that a pattern's
        entries take, so the pattern is built without running it again.
        """
        if not isinstance(h, Header):
            raise type_error("h", h, "a Header")
        return _pattern(h.values)


def _pattern(entries: tuple) -> MatchPattern:
    """The pattern of `entries`, which passed `MatchPattern`'s check."""
    p = _new(MatchPattern)
    _setattr(p, "entries", entries)
    _setattr(p, "_hash", hash(entries))
    return p


def matches(p: MatchPattern, h: Header) -> bool:
    """True iff every exact entry of p equals the corresponding field of h."""
    return all(e is None or e == v for e, v in zip(p.entries, h.values))


def src_of(h: Header) -> int:
    """The network-source field (the statistic key for per-source flow counts)."""
    return h.values[NW_SRC]


def dest_of(h: Header) -> int:
    """The network-destination field (the statistic key for per-server load)."""
    return h.values[NW_DST]


#: A wildcard's place in a pattern key: above every exact value of every field.
WILDCARD_KEY = max(FIELD_BOUNDS)


def pattern_key(p: MatchPattern) -> tuple[int, ...]:
    """Total-order key, one int per field: an exact entry as its value, a
    wildcard as `WILDCARD_KEY`, so exact entries sort by value and before
    wildcards."""
    return tuple([WILDCARD_KEY if e is None else e for e in p.entries])
