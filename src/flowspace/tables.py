"""The flow-table space.

A flow table is a finite set of (rule, counter) entries; table addition
is set union and scalar multiplication is over the two-element field
(0 maps every table to the empty table, 1 is the identity).  Union
never deletes, so the additive-inverse law is realized by a separate
cancellation normal form: `reduce` removes mutually-inverse entries
until none remain, and `reduce(add(t, negate_table(t)))` is empty for
every table of invertible actions.

Two rules are mutual inverses exactly when they share match, output
port and ttl, both diagonals are all-ones and one translation is the
slotwise negation of the other.  `inverse_index` groups a table's
invertible entries by `inverse_key`, so an entry's partners are found
by one lookup of its `partner_key` instead of a scan over the table.

Entries are kept in a canonical total order so equality, serialization
and cancellation are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from flowspace import actions
from flowspace.actions import AffineAction, action_key
from flowspace.errors import SingularActionError
from flowspace.headers import MatchPattern, pattern_key


@dataclass(frozen=True)
class FlowRule:
    """A flow rule: match pattern, output port, ttl and an action."""

    match: MatchPattern
    out_port: int
    ttl: int
    action: AffineAction

    def __post_init__(self):
        # Reuse the rule-state bounds for the port/ttl slots.
        if not 0 <= self.out_port <= actions.PORT_MASK:
            raise ValueError(f"out_port {self.out_port} exceeds 16-bit range")
        if not 0 <= self.ttl <= actions.TTL_MASK:
            raise ValueError(f"ttl {self.ttl} exceeds 16-bit range")


@dataclass(frozen=True)
class FlowEntry:
    """A table element: a rule paired with its per-flow packet counter."""

    rule: FlowRule
    counter: int

    def __post_init__(self):
        if self.counter < 0:
            raise ValueError("counter must be non-negative")


def rule_key(r: FlowRule) -> tuple:
    return (pattern_key(r.match), r.out_port, r.ttl, action_key(r.action))


def entry_key(e: FlowEntry) -> tuple:
    return rule_key(e.rule) + (e.counter,)


class FlowTable:
    """An immutable set of flow entries with canonical iteration order."""

    # _order caches the canonical order; it is derived from _entries and
    # takes no part in equality or hashing.
    __slots__ = ("_entries", "_order")

    def __init__(self, entries: Iterable[FlowEntry] = ()):
        object.__setattr__(self, "_entries", frozenset(entries))
        object.__setattr__(self, "_order", None)

    @property
    def entries(self) -> tuple[FlowEntry, ...]:
        if self._order is None:
            object.__setattr__(self, "_order", tuple(sorted(self._entries, key=entry_key)))
        return self._order

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self.entries)

    def __contains__(self, entry: FlowEntry) -> bool:
        return entry in self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowTable):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"FlowTable({len(self._entries)} entries)"


def empty() -> FlowTable:
    """The empty table, the additive identity."""
    return FlowTable()


def add(t1: FlowTable, t2: FlowTable) -> FlowTable:
    """Table addition: set union of the entries."""
    return FlowTable(t1._entries | t2._entries)


def scalar_mul(a: int, t: FlowTable) -> FlowTable:
    """Scalar multiplication over {0, 1}."""
    if a not in (0, 1):
        raise ValueError(f"scalar must be 0 or 1, got {a!r}")
    return empty() if a == 0 else t


def negate_rule(r: FlowRule) -> FlowRule:
    """The additive inverse: same match, port and ttl; inverted action."""
    return FlowRule(r.match, r.out_port, r.ttl, actions.invert(r.action))


def negate_table(t: FlowTable) -> FlowTable:
    """Entrywise rule negation; counters are preserved."""
    out = []
    for e in t:
        try:
            out.append(FlowEntry(negate_rule(e.rule), e.counter))
        except SingularActionError:
            raise SingularActionError(
                f"entry has no additive inverse: {e!r}"
            ) from None
    return FlowTable(out)


def inverse_key(r: FlowRule) -> tuple | None:
    """Index key of an invertible rule: (match, out_port, ttl, translation).

    None when the diagonal is not all-ones: such a rule has no inverse.
    Entries with equal keys carry the same rule and differ only in
    their counters.
    """
    a = r.action
    if not all(a.linear):
        return None
    return (r.match, r.out_port, r.ttl, a.translation)


def partner_key(key: tuple) -> tuple:
    """The key of the inverse rule: the translation negated slotwise."""
    match, out_port, ttl, translation = key
    return (match, out_port, ttl, actions.negate_translation(translation))


def inverse_index(t: FlowTable) -> dict[tuple, list[FlowEntry]]:
    """The table's invertible entries grouped by `inverse_key`, each group
    in canonical order."""
    index: dict[tuple, list[FlowEntry]] = {}
    for e in t._entries:
        key = inverse_key(e.rule)
        if key is not None:
            index.setdefault(key, []).append(e)
    for group in index.values():
        if len(group) > 1:
            group.sort(key=lambda e: e.counter)  # one rule, so counters decide
    return index


def reduce(t: FlowTable) -> FlowTable:
    """Cancellation normal form.

    Repeatedly removes the lowest-ordered cancellable group: a pair of
    entries whose rules are mutual additive inverses, or a single entry
    whose rule is its own inverse (set union collapses such an entry
    and its negation into one copy, so it must self-cancel for
    t + (-t) to reach the empty table).  Counters of cancelled entries
    are discarded.  Entries with singular actions never cancel.

    Removing entries never creates a partner, so that loop gives the
    same result as one greedy pass in canonical order, in which an entry
    cancels alone if it is its own inverse and otherwise with its
    lowest-ordered live partner.  An entry's partners are the entries of
    the inverse rule, so the pass cancels each group of `inverse_index`
    and its partner group pairwise, lowest counters first, until the
    smaller group runs out, and cancels a self-inverse group whole.
    That outcome is computed here directly.
    """
    index = inverse_index(t)
    cancelled: set[FlowEntry] = set()
    for key, group in index.items():
        pkey = partner_key(key)
        n = len(group) if pkey == key else len(index.get(pkey, ()))
        cancelled.update(group[:n])
    return FlowTable(t._entries - cancelled) if cancelled else t


def table_equal(t1: FlowTable, t2: FlowTable) -> bool:
    return t1 == t2
