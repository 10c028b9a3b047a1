"""Scenario files: the JSON surface of the library.

A scenario is a single self-describing JSON document (version 1)
holding a topology, the initial NIB (tables and observed flows), named
single-slot applications, named chains over those applications, and
named query headers.  Parsing is strict: unknown keys are rejected so a
typo cannot silently change an analysis.

`read_document` checks a file's top level (its keys, the version, the
topology and the length of `tables`) and returns a `Document` that decodes the other sections
on request: the tables, the NIB, one named chain with the apps it
names, one named query.  A command pays only for the sections it
reads.  `load_scenario` decodes the whole document through the same
section decoders, in file order.

Each value goes as read to the module that owns its type and range.
The owners expose one-test builders for the values a document holds
many of: `Header.from_mapping` and `MatchPattern.from_mapping` test
only the fields a JSON object names, `tables.make_entry` tests an
entry's port, ttl and counter in one expression, and
`transforms.make_template` a rule template's ttl, counter and part
types; `make_set_field`, `make_port_number` and `make_port_name` do
the same for a template's parts.  A builder runs its full check only
when that test fails, so its error names the first bad value as the
constructor's would.  A forward, a `seq` and a delta are built from
parts the decoder built (`checked_forward`, `checked_seq`,
`checked_delta`), and each value of a type with no fields
(`InputHeader`, `Drop`, `DestPort`, `TrueGuard`) is one shared
instance.  The decoder checks only JSON's own rules: shapes, keys,
`kind` tags, the version, decimal `server_ports` keys, seq depth and
names.

Every object decoder has one shape.  One test checks the object's shape
and keys (`isinstance(obj, dict) and obj.keys() <= allowed`, its `kind`
choosing `allowed` where it has one), and its own errors are raised
there.  Then one `try` reads the keys in the order their errors are
reported, each nested value through its own decoder; its `except` arms
place a missing key (`KeyError`), a nested value's error (`_Unplaced`,
under a local `at` naming that value) and a constructor's error about
one value (`InvalidRuleError`, at its field).  A concrete action step
holds only ints and a field name, so its one test covers them too.
Each section is walked once, each object read once, and a helper runs
only to raise an error.  A value's JSON path is built only when a check
or a builder fails: the error (`_Unplaced`) takes one segment from each
level it passes on its way out, so a valid document formats no path.
An error names the first bad value in file order.  The observed flows,
which a document holds the most of, decode in one loop in
`Document.nib`: one test per flow object, then the owner's builder
`Flow.from_mapping`; `_flow` reads a flow again only to raise its error.

`parse_json` and each `Document` section decoder run with CPython's
cyclic garbage collector paused (`_collector_paused`), and
`load_scenario` and `loads_scenario` hold one pause from reading the
text to the decoded scenario, so the JSON tree is freed before the
collector runs again.  A decode fills the heap with trees of immutable
values, which hold no cycles, so the collector's scans as the heap
grows find nothing to free.

Headers serialize as objects keyed by field name with omitted fields
defaulting to 0; match patterns likewise, with omitted fields
defaulting to wildcard.  Concrete actions serialize as tagged objects
(forward / drop / modify / seq applied left to right); template actions
use the same tags but may reference named ports, the per-destination
server port, and deferred value picks.
"""

from __future__ import annotations

import gc
import io
import json
from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import islice

from flowspace import actions
from flowspace.actions import PORT_SLOT, TTL_SLOT, AffineAction
from flowspace.errors import (
    FlowspaceError,
    InvalidRuleError,
    ScenarioFormatError,
    SlotOutOfRangeError,
    UnknownFieldError,
)
from flowspace.headers import FIELD_COUNT, FIELD_INDEX, FIELDS, Header, MatchPattern
from flowspace.nib import NIB, Flow, Topology
from flowspace.tables import FlowEntry, FlowRule, FlowTable, make_entry
from flowspace.transforms import (
    AppTransform,
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
    ServiceChain,
    SetField,
    SourceCountAtMost,
    TrueGuard,
    checked_delta,
    checked_forward,
    checked_seq,
    is_identity_linear,
    make_app,
    make_port_name,
    make_port_number,
    make_set_field,
    make_template,
)

FORMAT_VERSION = 1

#: Deepest nesting of template `seq` actions.  Templates stay symbolic
#: until applied, so their normal forms, reports and hashes recurse once
#: per level; a bound here keeps that recursion far from Python's limit.
MAX_SEQ_DEPTH = 64


class _Unplaced(Exception):
    """A decode error raised before its JSON path is known.

    Its message reads `head + path + tail`.  The decoder that raises it
    gives the path below the object it was handed (often none); each
    level the error passes on its way out puts its own segment in front
    (`under`), and the entry point that was handed the outermost value
    makes the `ScenarioFormatError` (`error`).  So a valid document
    formats no path at all, and an invalid one is reported where its
    first error in file order lies.
    """

    def __init__(self, head: str, tail: str = "", path: str = ""):
        super().__init__(head, tail)
        self.head, self.tail, self.path = head, tail, path

    def under(self, segment: str) -> _Unplaced:
        self.path = segment + self.path
        return self

    def error(self) -> ScenarioFormatError:
        return ScenarioFormatError(self.head + self.path + self.tail)


def _collector_paused(decode):
    """`decode`, run with the cyclic garbage collector paused.

    The collector is restored on every exit, an exception included.  One
    that a caller paused stays paused, so a decode nested in another
    changes nothing.  Only an error's traceback makes a cycle, and the
    collector reclaims it once enabled again.  Plain `try`/`finally`: a
    `contextlib.contextmanager` costs about 15 times as much per call.
    """
    @wraps(decode)
    def paused(*args):
        if not gc.isenabled():
            return decode(*args)
        gc.disable()
        try:
            return decode(*args)
        finally:
            gc.enable()
    return paused


def _placed(what: str, decode, *args):
    """`decode(*args)`, whose first argument is the value at the JSON path
    `what`, an error reported there."""
    try:
        return decode(*args)
    except _Unplaced as exc:
        raise exc.under(what).error() from None


def _items(decode, items, *args, at: str = "") -> list:
    """`decode(item, *args)` of each item of the array `items`, which is
    at `at`; an error is placed at its item's index."""
    if not isinstance(items, list):
        _list(items, at)
    out = []
    append = out.append
    for item in items:
        try:
            append(decode(item, *args))
        except _Unplaced as exc:
            raise exc.under(f"{at}[{len(out)}]")
    return out


def _obj(value, at: str = "") -> dict:
    if not isinstance(value, dict):
        raise _not_object(value, at)
    return value


def _not_object(value, at: str = "") -> _Unplaced:
    return _Unplaced("", f" must be an object, got {type(value).__name__}", at)


def _object_error(obj, allowed: frozenset[str]) -> _Unplaced:
    """The error when `isinstance(obj, dict) and obj.keys() <= allowed`
    fails: not an object, else its unknown keys."""
    return _unknown_keys(obj, allowed) if isinstance(obj, dict) else _not_object(obj)


def _list(value, at: str = "") -> list:
    if not isinstance(value, list):
        raise _Unplaced("", f" must be an array, got {type(value).__name__}", at)
    return value


def _keys(obj: dict, allowed: frozenset[str]) -> None:
    if not obj.keys() <= allowed:
        raise _unknown_keys(obj, allowed)


def _unknown_keys(obj: dict, allowed: frozenset[str]) -> _Unplaced:
    return _Unplaced("unknown keys in ", f": {sorted(set(obj) - allowed)}")


def _need(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError:
        raise _missing(key) from None


def _missing(key: str) -> _Unplaced:
    return _Unplaced("", f" is missing required key {key!r}")


def _int(value, at: str) -> int:
    """A JSON integer, taken as is: bools, floats and strings are rejected."""
    if type(value) is not int:
        raise _Unplaced("", f" must be an int, got {type(value).__name__}", at)
    return value


def _misfit(exc: InvalidRuleError, at: str | None = None) -> _Unplaced:
    """A constructor's error about one value, placed at `at`: by default
    at the value's field in the object being read."""
    at = "." + exc.field if at is None else at
    if exc.width is not None:
        return _Unplaced("", f"={exc.value} exceeds {exc.width}-bit range", at)
    return _Unplaced("", f" {exc.reason}", at)


# The keys each kind of object may hold, built once.
_KIND_KEYS = frozenset(("kind",))
_FORWARD_KEYS = frozenset(("kind", "delta"))
_MODIFY_KEYS = frozenset(("kind", "field", "delta"))
_SEQ_KEYS = frozenset(("kind", "actions"))
_RULE_KEYS = frozenset(("match", "out_port", "ttl", "action"))
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
_SCENARIO_KEYS = frozenset(("version", "topology", "flows", "tables", "apps", "chains", "queries"))


def _address_key(key: str) -> int:
    """An address written as an object key: canonical decimal, so that
    signs, spaces, underscores and leading zeros cannot make two keys
    name one server.  `Topology` checks its range."""
    try:
        value = int(key)
    except (TypeError, ValueError):
        value = None
    if value is None or str(value) != key:
        raise _Unplaced("", f" key {key!r} is not a decimal address", ".server_ports")
    return value


_FIELD_NAMES = frozenset(FIELD_INDEX)
_header_of = Header.from_mapping
_pattern_of = MatchPattern.from_mapping

# Each value of a type with no fields decodes to one shared instance.
_INPUT, _DROP, _DEST_PORT, _TRUE = InputHeader(), Drop(), DestPort(), TrueGuard()


def _field(value, at: str) -> str:
    """A field name: the integer field indices of the library have no wire form."""
    if not isinstance(value, str):
        raise _Unplaced("", f" must be a field name, got {type(value).__name__}", at)
    if value not in FIELD_INDEX:
        raise _Unplaced("", f" must be a header field name, got {value!r}", at)
    return value


# ---------------------------------------------------------------------------
# Headers and patterns


def header_to_obj(h: Header) -> dict:
    return {spec.name: v for spec, v in zip(FIELDS, h.values) if v}


def header_from_obj(obj, what: str = "header") -> Header:
    return _placed(what, _header, obj)


def _header(obj) -> Header:
    if not isinstance(obj, dict):
        raise _not_object(obj)
    try:  # `Header` checks the names as well as the values
        return _header_of(obj)
    except UnknownFieldError:
        raise _unknown_keys(obj, _FIELD_NAMES) from None
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


def pattern_to_obj(p: MatchPattern) -> dict:
    return {spec.name: v for spec, v in zip(FIELDS, p.entries) if v is not None}


def pattern_from_obj(obj, what: str = "match") -> MatchPattern:
    return _placed(what, _pattern, obj)


def _pattern(obj) -> MatchPattern:
    if not isinstance(obj, dict):
        raise _not_object(obj)
    if None not in obj.values():  # a wildcard is written by leaving its field out
        try:  # `MatchPattern` checks the names as well as the values
            return _pattern_of(obj)
        except UnknownFieldError:
            raise _unknown_keys(obj, _FIELD_NAMES) from None
        except InvalidRuleError as exc:
            raise _misfit(exc) from None
    _keys(obj, _FIELD_NAMES)  # an unknown key is reported before a null
    name = next(name for name, value in obj.items() if value is None)
    raise _Unplaced("", " must be an int, got NoneType", "." + name)


# ---------------------------------------------------------------------------
# Concrete actions


def action_to_obj(a: AffineAction) -> dict:
    """Tagged-object form of an action.

    Any constructible action decomposes into per-slot translations,
    preceded by a drop when the diagonal is zero.  Hand-built actions
    with mixed diagonals or ttl translations have no wire form.
    """
    if a.translation[TTL_SLOT]:
        raise ScenarioFormatError("ttl-translating actions have no wire form")
    parts = []
    for i in range(FIELD_COUNT):
        if a.translation[i]:
            parts.append({"kind": "modify", "field": FIELDS[i].name,
                          "delta": a.translation[i]})
    if a.translation[PORT_SLOT]:
        parts.append({"kind": "forward", "delta": a.translation[PORT_SLOT]})
    if not any(a.linear):
        if not parts:
            return {"kind": "drop"}
        return {"kind": "seq", "actions": [{"kind": "drop"}] + parts}
    if not all(a.linear):
        raise ScenarioFormatError("mixed-diagonal actions have no wire form")
    if not parts:
        return {"kind": "forward", "delta": 0}
    if len(parts) == 1:
        return parts[0]
    return {"kind": "seq", "actions": parts}


def action_from_obj(obj, what: str = "action") -> AffineAction:
    return _placed(what, _action, obj)


def _action(obj) -> AffineAction:
    fold = actions.ActionFold()
    _fold_action(obj, fold)
    return fold.action()


def _fold_action(obj, fold: actions.ActionFold) -> None:
    """Check one concrete action and apply it after the steps in `fold`;
    a `seq` applies its steps in order, nested ones included.

    One or more per table entry, so the checks are written out here; a
    helper runs only to raise the first error.
    """
    if not isinstance(obj, dict):
        raise _not_object(obj)
    kind = obj.get("kind")
    if kind == "modify":
        # Three keys, of which the two read are valid: no other key.
        name, delta = obj.get("field"), obj.get("delta")
        i = FIELD_INDEX.get(name) if type(name) is str else None  # a list is no dict key
        if not (len(obj) == 3 and i is not None and type(delta) is int):
            _keys(obj, _MODIFY_KEYS)
            _field(_need(obj, "field"), ".field")
            _int(_need(obj, "delta"), ".delta")
        fold.translate(i, delta)
    elif kind == "forward":
        delta = obj.get("delta")
        if not (len(obj) == 2 and type(delta) is int):
            _keys(obj, _FORWARD_KEYS)
            _int(_need(obj, "delta"), ".delta")
        fold.translate(PORT_SLOT, delta)
    elif kind == "seq":
        if not obj.keys() <= _SEQ_KEYS:
            raise _unknown_keys(obj, _SEQ_KEYS)
        steps = obj.get("actions")
        if not isinstance(steps, list):
            _list(_need(obj, "actions"), ".actions")
        for i, step in enumerate(steps):
            try:
                _fold_action(step, fold)
            except _Unplaced as exc:
                raise exc.under(f"[{i}]")
    elif kind == "drop":
        if not obj.keys() <= _KIND_KEYS:
            raise _unknown_keys(obj, _KIND_KEYS)
        fold.drop()
    else:
        _need(obj, "kind")
        raise _Unplaced("", f": unknown action kind {kind!r}")


# ---------------------------------------------------------------------------
# Rules, entries, tables, flows


def rule_to_obj(r: FlowRule) -> dict:
    return {
        "match": pattern_to_obj(r.match),
        "out_port": r.out_port,
        "ttl": r.ttl,
        "action": action_to_obj(r.action),
    }


def rule_from_obj(obj, what: str = "rule") -> FlowRule:
    return _placed(what, _rule_obj, obj)


def _rule_obj(obj) -> FlowRule:
    if not (isinstance(obj, dict) and obj.keys() <= _RULE_KEYS):
        raise _object_error(obj, _RULE_KEYS)
    return _entry(obj).rule  # an entry object without its counter


def entry_to_obj(e: FlowEntry) -> dict:
    obj = rule_to_obj(e.rule)
    obj["counter"] = e.counter
    return obj


def entry_from_obj(obj, what: str = "entry") -> FlowEntry:
    return _placed(what, _entry, obj)


def _entry(obj) -> FlowEntry:
    if not (isinstance(obj, dict) and obj.keys() <= _ENTRY_KEYS):
        raise _object_error(obj, _ENTRY_KEYS)
    at = ".match"
    try:  # the keys in the order their errors are reported
        match = _pattern(obj["match"])
        out_port, ttl, action = obj["out_port"], obj["ttl"], obj["action"]
        at = ".action"
        return make_entry(match, out_port, ttl, _action(action), obj.get("counter", 0))
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except _Unplaced as exc:
        raise exc.under(at)
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


def table_to_obj(t: FlowTable) -> list:
    return [entry_to_obj(e) for e in t.entries]


def table_from_obj(obj, what: str = "table") -> FlowTable:
    return _placed(what, _table, obj)


def _table(obj) -> FlowTable:
    return FlowTable(_items(_entry, obj))


def flow_to_obj(f: Flow) -> dict:
    obj = {"header": header_to_obj(f.header)}
    if f.assigned_dest is not None:
        obj["assigned_dest"] = f.assigned_dest
    return obj


def _flow(obj) -> Flow:
    """A flow object read the long way, to raise the error of one that
    `Document.nib`'s loop rejected."""
    if not (isinstance(obj, dict) and obj.keys() <= _FLOW_KEYS):
        raise _object_error(obj, _FLOW_KEYS)
    try:
        return Flow(_header(obj["header"]), obj.get("assigned_dest"))
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except _Unplaced as exc:
        raise exc.under(".header")
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


# ---------------------------------------------------------------------------
# Topology


def topology_to_obj(t: Topology) -> dict:
    return {
        "switches": t.switch_count,
        "ports": dict(sorted(t.ports.items())),
        "server_ports": {str(k): v for k, v in sorted(t.server_ports.items())},
    }


def topology_from_obj(obj, what: str = "topology") -> Topology:
    return _placed(what, _topology, obj)


def _topology(obj) -> Topology:
    if not (isinstance(obj, dict) and obj.keys() <= _TOPOLOGY_KEYS):
        raise _object_error(obj, _TOPOLOGY_KEYS)
    ports, server_ports = obj.get("ports", {}), obj.get("server_ports", {})
    if not isinstance(ports, dict):
        raise _not_object(ports, ".ports")
    if not isinstance(server_ports, dict):
        raise _not_object(server_ports, ".server_ports")
    try:  # an address key is checked before the switch count is read
        server_ports = {_address_key(k): v for k, v in server_ports.items()}
        return Topology(obj["switches"], ports, server_ports)
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


# ---------------------------------------------------------------------------
# Guards, port/value references, templates, deltas, apps


def guard_to_obj(g) -> dict:
    if isinstance(g, TrueGuard):
        return {"kind": "true"}
    if isinstance(g, SourceCountAtMost):
        return {"kind": "source_count_at_most", "threshold": g.threshold}
    return {"kind": "load_at_most", "server_a": g.server_a, "server_b": g.server_b}


def _guard(obj):
    if not isinstance(obj, dict):
        raise _not_object(obj)
    kind = obj.get("kind")
    allowed = (_KIND_KEYS if kind == "true" else _THRESHOLD_KEYS if kind == "source_count_at_most"
               else _SERVER_PAIR_KEYS if kind == "load_at_most" else None)
    if allowed is None:
        _need(obj, "kind")
        raise _Unplaced("", f": unknown guard kind {kind!r}")
    if not obj.keys() <= allowed:
        raise _unknown_keys(obj, allowed)
    try:
        if kind == "true":
            return _TRUE
        if kind == "load_at_most":
            return LoadAtMost(obj["server_a"], obj["server_b"])
        return SourceCountAtMost(obj["threshold"])
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


def port_ref_to_obj(ref):
    if isinstance(ref, PortName):
        return ref.name
    if isinstance(ref, PortNumber):
        return ref.value
    return {"kind": "dest_port"}


def _port_ref(obj):
    if isinstance(obj, str):
        return make_port_name(obj)
    if isinstance(obj, int):
        try:
            return make_port_number(obj)
        except InvalidRuleError as exc:
            raise _misfit(exc, "") from None  # the number stands alone at the path
    if not (isinstance(obj, dict) and obj.keys() <= _KIND_KEYS):
        raise _object_error(obj, _KIND_KEYS)
    if obj.get("kind") == "dest_port":
        return _DEST_PORT
    raise _Unplaced("", f": unknown port reference {obj!r}")


def value_ref_to_obj(ref):
    if isinstance(ref, PickLessLoaded):
        return {"kind": "pick_less_loaded", "server_a": ref.server_a,
                "server_b": ref.server_b}
    return ref


def _value_ref(obj):
    """A set-field target: an integer (`SetField` checks it) or a deferred pick."""
    if isinstance(obj, int):
        return obj
    if not (isinstance(obj, dict) and obj.keys() <= _SERVER_PAIR_KEYS):
        raise _object_error(obj, _SERVER_PAIR_KEYS)
    if obj.get("kind") != "pick_less_loaded":
        raise _Unplaced("", f": unknown value reference {obj!r}")
    try:
        return PickLessLoaded(obj["server_a"], obj["server_b"])
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


def action_spec_to_obj(spec) -> dict:
    if isinstance(spec, Drop):
        return {"kind": "drop"}
    if isinstance(spec, Forward):
        return {"kind": "forward", "port": port_ref_to_obj(spec.port)}
    if isinstance(spec, SetField):
        return {"kind": "set_field", "field": spec.field,
                "to": value_ref_to_obj(spec.to)}
    return {"kind": "seq", "actions": [action_spec_to_obj(s) for s in spec.steps]}


def action_spec_from_obj(obj, what: str = "action", depth: int = 0):
    return _placed(what, _action_spec, obj, depth)


def _action_spec(obj, depth: int):
    if not isinstance(obj, dict):
        raise _not_object(obj)
    kind = obj.get("kind")
    if kind == "set_field":
        allowed, at = _SET_FIELD_KEYS, ".to"
    elif kind == "forward":
        allowed, at = _PORT_KEYS, ".port"
    elif kind == "drop":
        if not obj.keys() <= _KIND_KEYS:
            raise _unknown_keys(obj, _KIND_KEYS)
        return _DROP
    elif kind == "seq":
        if not obj.keys() <= _SEQ_KEYS:
            raise _unknown_keys(obj, _SEQ_KEYS)
        if depth == MAX_SEQ_DEPTH:
            raise _Unplaced("", f": seq nested deeper than {MAX_SEQ_DEPTH} levels")
        # The steps' array is at `.actions`, but each step is named `[i]`.
        steps = obj.get("actions")
        if not isinstance(steps, list):
            _list(_need(obj, "actions"), ".actions")
        return checked_seq(tuple(_items(_action_spec, steps, depth + 1)))
    else:
        _need(obj, "kind")
        raise _Unplaced("", f": unknown action kind {kind!r}")
    if not obj.keys() <= allowed:
        raise _unknown_keys(obj, allowed)
    try:
        if kind == "forward":
            return checked_forward(_port_ref(obj["port"]))
        return make_set_field(obj["field"], _value_ref(obj["to"]))
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except _Unplaced as exc:
        raise exc.under(at)
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


def template_to_obj(t: RuleTemplate) -> dict:
    obj = {
        "match": "input" if isinstance(t.match, InputHeader) else pattern_to_obj(t.match),
        "out_port": port_ref_to_obj(t.out_port),
        "ttl": t.ttl,
        "action": action_spec_to_obj(t.action),
    }
    if t.counter:
        obj["counter"] = t.counter
    return obj


def template_from_obj(obj, what: str = "rule template") -> RuleTemplate:
    return _placed(what, _template, obj)


def _template(obj) -> RuleTemplate:
    if not (isinstance(obj, dict) and obj.keys() <= _ENTRY_KEYS):
        raise _object_error(obj, _ENTRY_KEYS)
    at = ".match"
    try:  # the keys in the order their errors are reported
        match = obj["match"]
        match = _INPUT if match == "input" else _pattern(match)
        at = ".out_port"
        out_port = _port_ref(obj["out_port"])
        ttl, action = obj["ttl"], obj["action"]
        at = ".action"
        return make_template(match, out_port, ttl, _action_spec(action, 0), obj.get("counter", 0))
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except _Unplaced as exc:
        raise exc.under(at)
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


def delta_to_obj(d: GuardedDelta) -> dict:
    return {
        "branches": [
            {"guard": guard_to_obj(g), "rules": [template_to_obj(t) for t in tpls]}
            for g, tpls in d.branches
        ],
        "default": [template_to_obj(t) for t in d.default],
    }


def delta_from_obj(obj, what: str = "delta") -> GuardedDelta:
    return _placed(what, _delta, obj)


def _delta(obj) -> GuardedDelta:
    if not (isinstance(obj, dict) and obj.keys() <= _DELTA_KEYS):
        raise _object_error(obj, _DELTA_KEYS)
    branches = _items(_branch, obj.get("branches", []), at=".branches")
    default = _items(_template, obj.get("default", []), at=".default")
    return checked_delta(tuple(branches), tuple(default))


def _branch(obj) -> tuple:
    """One branch of a delta: its guard and its rule templates."""
    if not (isinstance(obj, dict) and obj.keys() <= _BRANCH_KEYS):
        raise _object_error(obj, _BRANCH_KEYS)
    rules = obj.get("rules", [])
    if not isinstance(rules, list):  # checked before the guard is read
        _list(rules, ".rules")
    try:
        guard = _guard(obj["guard"])
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except _Unplaced as exc:
        raise exc.under(".guard")
    return guard, tuple(_items(_template, rules, at=".rules"))


def app_to_obj(app: AppTransform) -> dict:
    """Single-slot application form used inside scenario files."""
    if not is_identity_linear(app):
        raise ScenarioFormatError(
            f"app {app.name!r} has a non-identity linear part; a scenario file holds "
            "single-slot apps only")
    hot = [i for i, s in enumerate(app.translation) if s]
    if len(hot) != 1 or len(app.translation[hot[0]]) != 1:
        raise ScenarioFormatError(
            f"app {app.name!r} is not in single-slot form; chains express composites"
        )
    return {
        "name": app.name,
        "slot": hot[0],
        "delta": delta_to_obj(app.translation[hot[0]][0]),
    }


def app_from_obj(obj, n: int, what: str = "app") -> AppTransform:
    return _placed(what, _app, obj, n)


def _app(obj, n: int) -> AppTransform:
    if not (isinstance(obj, dict) and obj.keys() <= _APP_KEYS):
        raise _object_error(obj, _APP_KEYS)
    try:  # the keys in the order their errors are reported
        slot, name, delta = obj["slot"], obj["name"], obj["delta"]
        return make_app(name, slot, _delta(delta), n)
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    except _Unplaced as exc:
        raise exc.under(".delta")
    except SlotOutOfRangeError:
        raise _Unplaced("", f"={slot} out of range for {n} switches", ".slot") from None
    except InvalidRuleError as exc:
        raise _misfit(exc) from None


def transform_to_obj(app: AppTransform) -> dict:
    """Full composite form (reports only; scenario files use app_to_obj).
    `linear` lists each row's columns: the 3-switch identity is `[[0], [1], [2]]`."""
    return {
        "name": app.name,
        "linear": [list(row) for row in app.linear],
        "slots": [[delta_to_obj(p) for p in s] for s in app.translation],
    }


# ---------------------------------------------------------------------------
# Scenario


@dataclass(frozen=True, slots=True)
class Scenario:
    topology: Topology
    nib: NIB
    apps: dict[str, AppTransform] = field(default_factory=dict)
    chains: dict[str, ServiceChain] = field(default_factory=dict)
    queries: dict[str, Header] = field(default_factory=dict)


def scenario_to_obj(s: Scenario) -> dict:
    return {
        "version": FORMAT_VERSION,
        "topology": topology_to_obj(s.topology),
        "flows": [flow_to_obj(f) for f in s.nib.flows],
        "tables": [table_to_obj(t) for t in s.nib.tables],
        "apps": [app_to_obj(s.apps[name]) for name in sorted(s.apps)],
        "chains": {
            name: [stage.name for stage in chain.stages]
            for name, chain in sorted(s.chains.items())
        },
        "queries": {name: header_to_obj(h) for name, h in sorted(s.queries.items())},
    }


class Document:
    """A scenario document with its top level checked (an object of known
    keys, the version, the topology, one table per switch in `tables`)
    and each section decoded on request, with every check the
    whole-document decode makes on it:

    - `tables` decodes the tables, one per switch;
    - `nib` decodes the tables and the flows;
    - `chain` decodes one chain and, of `apps`, the apps it names, each
      at most once, so chains that name an app share it.  It reads every
      app's name, to find them and to reject duplicates;
    - `query` decodes one query header;
    - `scenario` decodes the whole document through the three.

    An error's JSON path keeps each item's position in the whole array.
    The shape of `apps`, `chains` and `queries` is checked once, on the
    section's first use, and kept.
    """

    def __init__(self, obj):
        self.topology = _placed("topology", _topology, _placed("scenario", _head, obj))
        n = self.topology.switch_count
        # Every app holds a row and a slot per switch, so also a command that
        # decodes no table checks n against the length of an array the file holds.
        self._tables = _placed("tables", _list, obj.get("tables", []))
        if len(self._tables) != n:
            raise ScenarioFormatError(f"scenario needs exactly {n} tables")
        self._obj = obj
        self._app_index: dict[str, int] | None = None  # name -> position in `apps`
        self._apps: dict[int, AppTransform] = {}  # position -> the app, once decoded

    @_collector_paused
    def tables(self) -> tuple[FlowTable, ...]:
        return tuple(_placed("tables", _items, _table, self._tables))

    @_collector_paused
    def nib(self) -> NIB:
        tables = self.tables()
        items = _placed("flows", _list, self._obj.get("flows", []))
        flows = []
        append, flow = flows.append, Flow.from_mapping
        try:  # one test per flow, then its builder; the first to fail ends the loop
            for obj in items:
                if not (isinstance(obj, dict) and obj.keys() <= _FLOW_KEYS
                        and isinstance(header := obj.get("header"), dict)):
                    break
                append(flow(header, obj.get("assigned_dest")))
        except FlowspaceError:
            pass
        if len(flows) < len(items):  # `_flow` makes each check the loop makes, so it raises
            _placed(f"flows[{len(flows)}]", _flow, items[len(flows)])
        return NIB(self.topology, tables, tuple(flows))

    @_collector_paused
    def chain(self, name: str) -> ServiceChain:
        chains = self._chains
        if name not in chains:
            raise FlowspaceError(f"no chain named {name!r} in scenario")
        stage_names = chains[name]
        if not (isinstance(stage_names, list) and stage_names):
            _placed(f"chains[{name}]", _list, stage_names)
            raise ScenarioFormatError(f"chains[{name}] must be a non-empty array")
        index = self._names()
        for i, stage in enumerate(stage_names):
            if not isinstance(stage, str):
                raise ScenarioFormatError(
                    f"chains[{name}][{i}] must be an app name, got {type(stage).__name__}")
            if stage not in index:
                raise ScenarioFormatError(f"chain {name!r} references unknown app {stage!r}")
        return ServiceChain(tuple(self._app_at(index[s]) for s in stage_names))

    @_collector_paused
    def query(self, name: str) -> Header:
        queries = self._queries
        if name not in queries:
            raise FlowspaceError(f"no query named {name!r} in scenario")
        return _placed(f"queries[{name}]", _header, queries[name])

    @_collector_paused
    def scenario(self) -> Scenario:
        nib = self.nib()
        # Every app decodes before the next name is checked, as in file order.
        self._app_index = _positions(self._app_at(i).name for i in range(len(self._raw_apps)))
        apps = {name: self._apps[i] for name, i in self._app_index.items()}
        chains = {name: self.chain(name) for name in self._chains}
        queries = {name: self.query(name) for name in self._queries}
        return Scenario(self.topology, nib, apps, chains, queries)

    @cached_property
    def _raw_apps(self) -> list:
        return _placed("apps", _list, self._obj.get("apps", []))

    @cached_property
    def _chains(self) -> dict:
        return _placed("chains", _obj, self._obj.get("chains", {}))

    @cached_property
    def _queries(self) -> dict:
        return _placed("queries", _obj, self._obj.get("queries", {}))

    def _names(self) -> dict[str, int]:
        """Each app's position by name, found by reading the names alone."""
        if self._app_index is None:
            self._app_index = _positions(self._read_app(i, _app_name)
                                         for i in range(len(self._raw_apps)))
        return self._app_index

    def _app_at(self, i: int) -> AppTransform:
        app = self._apps.get(i)
        if app is None:
            app = self._apps[i] = self._read_app(i, _app)
        return app

    def _read_app(self, i: int, decode):
        """`decode(obj, n)` of the app object at `apps[i]`, an error placed there."""
        return _placed(f"apps[{i}]", decode, self._raw_apps[i], self.topology.switch_count)


def _head(obj):
    """The topology object of a scenario object, read after its keys and its version."""
    if not (isinstance(obj, dict) and obj.keys() <= _SCENARIO_KEYS):
        raise _object_error(obj, _SCENARIO_KEYS)
    try:  # the keys in the order their errors are reported
        version = obj["version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise ScenarioFormatError(f"version must be {FORMAT_VERSION}, got {version!r}")
        return obj["topology"]
    except KeyError as exc:
        raise _missing(exc.args[0]) from None


def _app_name(obj, n: int) -> str:
    """The name of an app object, the rest of it unread.  A name that is
    no string fails as decoding the app reports it, since the app's
    constructor owns that check."""
    if not (isinstance(obj, dict) and type(obj.get("name")) is str):
        _need(_obj(obj), "name")  # not an object, or no name
        _app(obj, n)
    return obj["name"]


def _positions(names) -> dict[str, int]:
    """Each app name's position, a name given twice rejected."""
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if name in index:
            raise ScenarioFormatError(f"duplicate app name {name!r}")
        index[name] = i
    return index


def scenario_from_obj(obj) -> Scenario:
    return Document(obj).scenario()


def dump_scenario(s: Scenario) -> str:
    """The indented JSON text of `s`, keys sorted, with a final newline.

    `json.dumps` with an indent runs the pure-Python encoder and joins a
    list of every chunk it makes, so its transient is many times the
    text.  Here the chunks go to one buffer a few thousand at a time."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(scenario_to_obj(s))
    out = io.StringIO()
    while block := list(islice(chunks, 4096)):
        out.write("".join(block))
    out.write("\n")
    return out.getvalue()


@_collector_paused
def parse_json(text: str, what: str):
    """The JSON value `text` holds, called `what` in errors."""
    try:
        return json.loads(text)
    except ValueError as exc:  # not JSON, or an integer past Python's int-string limit
        raise ScenarioFormatError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioFormatError(f"{what} is nested too deeply") from None


@_collector_paused
def loads_scenario(text: str) -> Scenario:
    return Document(parse_json(text, "scenario")).scenario()


def _read(path) -> str:
    """The text of the scenario file at `path`; every command reads it here."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"scenario is not valid UTF-8: {exc}") from None


def read_document(path) -> Document:
    """The scenario file at `path`, its sections left to decode on request."""
    return Document(parse_json(_read(path), "scenario"))


@_collector_paused
def load_scenario(path) -> Scenario:
    return loads_scenario(_read(path))
