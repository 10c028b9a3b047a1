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

The index is derived state of the table, as its canonical order is:
`inverse_index` builds it on first use and keeps it.  `flow_mod`, the
one FLOW_MOD edit, copies neither the entry set nor the index.  The
table it returns shares a base, a table whose entries and index are
built, and holds only its edit: the base entries it removed, the
entries it added and the index groups it overrides.  `partners` and the
next `flow_mod` read the edit first and then the base's index, so a
chain of previews and commits costs the entries it touches.  A singular
(drop) rule has no inverse key, so a base also groups its singular
entries by rule, on the first delete or modify of such a rule, and
`flow_mod` finds a drop rule's entries by one lookup there and a look
at the edit; a table built from an edit carries these groups over, as
it carries the index.  The whole entry set and index are built on the
first read of the whole table (iteration, `len`, equality, hashing,
`union`, `reduce`, `inverse_pairs`, pickling), or by `flow_mod` once
the edit outgrows twice the square root of the base's size, so an edit
costs O(sqrt n) amortized.
A table also remembers the last edit made from it, holding the new
table by a weak reference: committing a FLOW_MOD that was just
previewed returns the previewed table instead of editing again, and a
table kept alive does not keep the tables edited from it alive.  Copies
and pickles hold the entries alone.

An entry hashes in one step, from flat parts (the pattern's entries,
the port, the ttl, the action's two vectors and the counter), when it
is built, and keeps that hash in its `_hash` slot, as a `MatchPattern`
does (see the `headers` module docstring for the convention): sets of
entries and inverse-index keys hash one value again and again.  A rule
hashes from the same flat parts and keeps nothing.  `checked_entry`
builds an entry from parts already checked; `make_entry` builds one
from parts it checks with one test, through `checked_entry`.  `union`
builds a table from tables and new entries with one frozenset union.

Only this module reads the key: `partners` and `inverse_pairs` pair
entries for the others, and `reductions_equal` compares two tables'
reductions by reducing only the buckets where the tables differ.

Entries are kept in a canonical total order so equality, serialization
and cancellation are deterministic.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain, combinations, product
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from flowspace import actions
from flowspace.actions import PORT_MASK, TTL_MASK, AffineAction, action_key
from flowspace.errors import (
    RuleNotFoundError,
    SingularActionError,
    counter_error,
    int_error,
    type_error,
)
from flowspace.headers import KeptHash, MatchPattern, pattern_key

_new, _setattr = object.__new__, object.__setattr__  # as a generated `__init__` builds


@dataclass(frozen=True, slots=True)
class FlowRule:
    """A flow rule: match pattern, output port, ttl and an action."""

    match: MatchPattern
    out_port: int
    ttl: int
    action: AffineAction

    def __post_init__(self):
        # One test on the path every valid rule takes; the error is
        # worked out only when it fails.  Port and ttl reuse the
        # rule-state bounds of their slots.
        port, ttl = self.out_port, self.ttl
        if not (type(port) is int and 0 <= port <= PORT_MASK
                and type(ttl) is int and 0 <= ttl <= TTL_MASK
                and isinstance(self.match, MatchPattern)
                and isinstance(self.action, AffineAction)):
            if not isinstance(self.match, MatchPattern):
                raise type_error("match", self.match, "a MatchPattern")
            if not isinstance(self.action, AffineAction):
                raise type_error("action", self.action, "an AffineAction")
            raise int_error("out_port", port, PORT_MASK) or int_error("ttl", ttl, TTL_MASK)

    def __hash__(self) -> int:
        a = self.action
        return hash((self.match.entries, self.out_port, self.ttl, a.linear, a.translation))


@dataclass(frozen=True, slots=True)
class FlowEntry(KeptHash):
    """A table element: a rule paired with its per-flow packet counter.

    The hash is kept (see `headers.KeptHash`): sets and dicts of entries
    hash one entry again and again.
    """

    rule: FlowRule
    counter: int

    def __post_init__(self):
        counter, r = self.counter, self.rule
        if not (type(counter) is int and counter >= 0 and isinstance(r, FlowRule)):
            if not isinstance(r, FlowRule):
                raise type_error("rule", r, "a FlowRule")
            raise counter_error(counter)
        a = r.action
        _setattr(self, "_hash",
                 hash((r.match.entries, r.out_port, r.ttl, a.linear, a.translation, counter)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return FlowEntry, (self.rule, self.counter)


def checked_entry(match: MatchPattern, out_port: int, ttl: int, action: AffineAction,
                  counter: int) -> FlowEntry:
    """The entry of rule (match, out_port, ttl, action) with `counter`,
    built without running `FlowRule`'s and `FlowEntry`'s checks again.

    The caller vouches for every part: a `MatchPattern` and an
    `AffineAction` that their constructors built, a port and a ttl that
    are ints in 0..0xFFFF, and a counter that is a non-negative int.
    """
    r = _new(FlowRule)
    _setattr(r, "match", match)
    _setattr(r, "out_port", out_port)
    _setattr(r, "ttl", ttl)
    _setattr(r, "action", action)
    e = _new(FlowEntry)
    _setattr(e, "rule", r)
    _setattr(e, "counter", counter)
    _setattr(e, "_hash",
             hash((match.entries, out_port, ttl, action.linear, action.translation, counter)))
    return e


def make_entry(match: MatchPattern, out_port: int, ttl: int, action: AffineAction,
               counter: int) -> FlowEntry:
    """The entry of rule (match, out_port, ttl, action) with `counter`.

    One test covers what `FlowRule` and `FlowEntry` check, and a valid
    entry is built by `checked_entry`; on a failure the two constructors
    run, so the error is theirs."""
    if (type(out_port) is int and 0 <= out_port <= PORT_MASK
            and type(ttl) is int and 0 <= ttl <= TTL_MASK
            and type(counter) is int and counter >= 0
            and isinstance(match, MatchPattern) and isinstance(action, AffineAction)):
        return checked_entry(match, out_port, ttl, action, counter)
    return FlowEntry(FlowRule(match, out_port, ttl, action), counter)


def rule_key(r: FlowRule) -> tuple:
    return (pattern_key(r.match), r.out_port, r.ttl, action_key(r.action))


def entry_key(e: FlowEntry) -> tuple:
    return rule_key(e.rule) + (e.counter,)


class FlowTable:
    """An immutable set of flow entries with canonical iteration order.

    Copies and pickles hold the entries alone.
    """

    # _order caches the canonical order and _index the inverse index
    # (see `inverse_index`); both are derived from _entries on first use.
    # _drops holds the singular entries grouped by rule (see `_Drops`)
    # once `flow_mod` has edited the table as a base, and _last is
    # `flow_mod`'s memo of the last edit made from this table.  None of
    # the four takes part in equality, hashing, repr, copying or pickling.
    __slots__ = ("_entries", "_order", "_index", "_drops", "_last", "__weakref__")

    def __init__(self, entries: Iterable[FlowEntry] = ()):
        self._entries = frozenset(entries)
        self._order = None
        self._index = None
        self._drops = None
        self._last = None

    def __reduce__(self):
        return FlowTable, (self._entries,)

    @property
    def entries(self) -> tuple[FlowEntry, ...]:
        if self._order is None:
            self._order = tuple(sorted(self._entries, key=entry_key))
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


class _EditedTable(FlowTable):
    """A table that `flow_mod` returns: a base's entry set and index,
    shared, plus an edit.  The whole table is built on the first read of
    `_entries` or `_index`, after which the edit is dropped and the table
    is a base itself.  Only this type has the `__getattr__` hook, which
    would slow every attribute read of a plain `FlowTable`.
    """

    # _base is the base's (entries, index, drops); _removed holds base
    # entries, _added entries outside the base, and _groups maps an
    # inverse key to its group, () for a removed key.  All four are None
    # once built.
    __slots__ = ("_base", "_removed", "_added", "_groups")

    def __getattr__(self, name):
        if name != "_entries" and name != "_index":
            raise AttributeError(name)
        self._build()
        return getattr(self, name)

    def _build(self) -> None:
        entries, index, drops = self._base
        removed, added = self._removed, self._added
        self._entries = entries.difference(removed).union(added)
        index = dict(index)
        for key, group in self._groups.items():
            if group:
                index[key] = group
            elif key in index:
                del index[key]
        self._index = index
        if drops.groups is not None:  # carried, as the index is, not rebuilt
            groups = dict(drops.groups)
            for e in removed:
                r = e.rule
                if not all(r.action.linear):
                    kept = tuple(x for x in groups[r] if x != e)
                    if kept:
                        groups[r] = kept
                    else:
                        del groups[r]
            self._drops = _Drops(_group_drops(groups, added))
        self._base = self._removed = self._added = self._groups = None


class _Drops:
    """A base table's singular (drop) entries grouped by rule, in
    `groups`: None until the first delete or modify of a singular rule
    on the base or an edit of it builds it.  The base and every edit
    made from it share one `_Drops`, so the base is scanned once, and a
    table built from an edit carries the groups over with its edit."""

    __slots__ = ("groups",)

    def __init__(self, groups: dict[FlowRule, tuple[FlowEntry, ...]] | None = None):
        self.groups = groups


def _group_drops(groups: dict[FlowRule, tuple[FlowEntry, ...]], entries: Iterable[FlowEntry]
                 ) -> dict[FlowRule, tuple[FlowEntry, ...]]:
    """`groups` with each singular entry of `entries` added to its rule's
    group."""
    for e in entries:
        r = e.rule
        if not all(r.action.linear):
            groups[r] = groups.get(r, ()) + (e,)
    return groups


def empty() -> FlowTable:
    """The empty table, the additive identity."""
    return FlowTable()


def add(t1: FlowTable, t2: FlowTable) -> FlowTable:
    """Table addition: set union of the entries."""
    return FlowTable(t1._entries | t2._entries)


def union(ts: Sequence[FlowTable], entries: Iterable[FlowEntry]) -> FlowTable:
    """The sum of the tables `ts` and the table of `entries`, built by one
    frozenset union: the tables' entries keep their stored hashes, and
    only `entries` are hashed."""
    return FlowTable(frozenset().union(*[t._entries for t in ts], entries))


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


InverseIndex = dict[tuple, tuple[FlowEntry, ...]]


_counter = attrgetter("counter")


def inverse_index(t: FlowTable) -> InverseIndex:
    """The table's invertible entries grouped by `inverse_key`, each group
    a tuple in canonical order.

    Built on first use and kept on the table; callers must not mutate it.
    """
    if t._index is not None:
        return t._index
    index = t._index = _index(t._entries)
    return index


def _index(entries: Iterable[FlowEntry]) -> InverseIndex:
    """The invertible entries grouped by `inverse_key`, each group a tuple
    in canonical order."""
    index: InverseIndex = {}
    shared = set()  # keys of groups with more than one entry
    for e in entries:
        key = inverse_key(e.rule)
        if key is not None:
            group = index.get(key)
            if group is None:
                index[key] = (e,)
            else:
                index[key] = group + (e,)
                shared.add(key)
    for key in shared:  # one rule per group, so counters decide the order
        index[key] = tuple(sorted(index[key], key=_counter))
    return index


def partners(t: FlowTable, e: FlowEntry) -> tuple[FlowEntry, ...]:
    """The entries of `t` other than `e` whose rule is the inverse of `e`'s.

    A table `flow_mod` returned answers from its edit and its base's
    index, without being built."""
    key = inverse_key(e.rule)
    if key is None:
        return ()
    if type(t) is _EditedTable and t._base is not None:
        group = _group(t._groups, t._base[1], partner_key(key))
    else:
        group = inverse_index(t).get(partner_key(key), ())
    return tuple(p for p in group if p != e)


def _group(groups: InverseIndex, index: InverseIndex, key: tuple) -> tuple[FlowEntry, ...]:
    """The group of `key` in `index` with the groups of an edit laid over it."""
    group = groups.get(key)
    return index.get(key, ()) if group is None else group


def _partner_groups(index: InverseIndex
                    ) -> Iterator[tuple[tuple[FlowEntry, ...], tuple[FlowEntry, ...]]]:
    """Each pair of index groups whose rules are mutual inverses, once; a
    self-inverse rule's group is paired with itself.

    A partner shares match, out port and ttl, so the keys are bucketed by
    those and a lone key can pair only with itself, which its translation
    shows without negating it.  In a larger bucket, a key's partner is
    the earlier key whose negated translation it is, else it leaves its
    own negation for a later key, so a key that completes a pair is never
    negated.
    """
    buckets: dict[tuple, list] = {}
    for (match, out_port, ttl, translation), group in index.items():
        buckets.setdefault((match.entries, out_port, ttl), []).append((translation, group))
    for bucket in buckets.values():
        if len(bucket) == 1:
            translation, group = bucket[0]
            if actions.is_own_negation(translation):
                yield group, group
            continue
        wanted: dict[tuple, tuple[FlowEntry, ...]] = {}  # negated translation -> its group
        for translation, group in bucket:
            partner = wanted.pop(translation, None)
            if partner is not None:
                yield partner, group
                continue
            negated = actions.negate_translation(translation)
            if negated == translation:
                yield group, group
            else:
                wanted[negated] = group


def inverse_pairs(t: FlowTable) -> Iterator[tuple[FlowEntry, FlowEntry]]:
    """Every pair of entries of `t` whose rules are mutual inverses, once;
    the entries of a self-inverse rule pair among themselves."""
    for group, partner in _partner_groups(inverse_index(t)):
        yield from (combinations(group, 2) if group is partner else product(group, partner))


def flow_mod(t: FlowTable, old: FlowRule | None, new: FlowRule | None
             ) -> tuple[FlowTable, tuple[FlowEntry, ...], tuple[FlowEntry, ...]]:
    """One FLOW_MOD: `t` without every entry of rule `old` (there must be
    one, else `RuleNotFoundError`) plus rule `new` with a zero counter,
    and the entries that table gained and lost, unsorted, as tuples.  An
    add has no `old`, a delete no `new`.

    The new table shares a base with `t`: `t`'s own base while `t` is an
    edit not yet built, else `t` itself, whose index is built here on
    first use.  Its edit is a copy of `t`'s edit, if any, changed by this
    FLOW_MOD: `old`'s group becomes empty, all of its entries lost, and
    the gained entry goes first in its rule's group, where its zero
    counter sorts first.  An invertible rule's entries are one lookup
    away, in the edit or else in the base's index, since equal inverse
    keys mean equal rules; a singular (drop) rule's are its group in the
    base's drop groups (see `_Drops`, built here on the first such
    edit) less the removed entries, plus those the edit added.  Once
    the edit outgrows twice the square root of the base's size, the new
    table is built whole and becomes a base, so an edit costs O(sqrt n)
    amortized.

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
    if type(t) is _EditedTable and t._base is not None:
        base = t._base
        removed, added, groups = set(t._removed), set(t._added), dict(t._groups)
    else:
        if t._drops is None:
            t._drops = _Drops()
        base = (t._entries, inverse_index(t), t._drops)
        removed, added, groups = set(), set(), {}
    entries, index, drops = base
    lost: tuple[FlowEntry, ...] = ()
    gained: tuple[FlowEntry, ...] = ()
    if old is not None:
        key = inverse_key(old)
        if key is not None:
            lost = _group(groups, index, key)
            groups[key] = ()
        else:
            if drops.groups is None:  # the base entries in no index group
                drops.groups = _group_drops({}, entries.difference(
                    chain.from_iterable(index.values())))
            lost = tuple(e for e in drops.groups.get(old, ()) if e not in removed)
            port = old.out_port  # comparing the port first spares most entries a dataclass __eq__
            lost += tuple(e for e in added if e.rule.out_port == port and e.rule == old)
        if not lost:
            raise RuleNotFoundError(f"no entry with rule {old!r}")
        for e in lost:
            if e in added:
                added.remove(e)
            else:
                removed.add(e)
    if new is not None:
        e = FlowEntry(new, 0)
        if e in removed or not (e in added or e in entries):  # not held after the removal
            if e in removed:
                removed.remove(e)
            else:
                added.add(e)
            key = inverse_key(new)
            if key is not None:
                groups[key] = (e,) + _group(groups, index, key)
            if e in lost:  # a rule modified into itself keeps its zero-counter entry
                lost = tuple(x for x in lost if x != e)
            else:
                gained = (e,)
    out = _new(_EditedTable)
    out._order = out._drops = out._last = None
    out._base, out._removed, out._added, out._groups = base, removed, added, groups
    size = len(removed) + len(added) + len(groups)
    if size * size > 4 * len(entries):
        out._build()
    t._last = (old, new, weakref.ref(out), gained, lost)
    return out, gained, lost


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
    cancelled = _cancelled(inverse_index(t))
    return FlowTable(t._entries.difference(cancelled)) if cancelled else t


def _cancelled(index: InverseIndex) -> list[FlowEntry]:
    """The entries that `reduce` cancels, from their inverse index."""
    cancelled: list[FlowEntry] = []
    for group, partner in _partner_groups(index):
        if group is partner:
            cancelled += group
        else:
            n = min(len(group), len(partner))
            cancelled += group[:n] + partner[:n]
    return cancelled


def reductions_equal(x: FlowTable, y: FlowTable) -> bool:
    """Whether `reduce(x) == reduce(y)`, from the entries where they differ.

    Entries cancel only within a (match, out_port, ttl) bucket, so the
    reductions can differ only in the buckets of the entries that one
    table holds and the other lacks, and only those buckets are reduced.
    A singular entry never cancels, so one such entry decides.
    """
    only_x, only_y = x._entries - y._entries, y._entries - x._entries
    touched = set()
    for e in (*only_x, *only_y):
        r = e.rule
        if not all(r.action.linear):
            return False
        touched.add((r.match.entries, r.out_port, r.ttl))
    if not touched:
        return True
    shared = [e for e in x._entries & y._entries
              if ((r := e.rule).match.entries, r.out_port, r.ttl) in touched]

    def kept(only: frozenset[FlowEntry]) -> set[FlowEntry]:
        entries = [*shared, *only]
        return set(entries).difference(_cancelled(_index(entries)))

    return kept(only_x) == kept(only_y)
