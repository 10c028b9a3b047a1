"""Scenario files: the JSON surface of the library.

A scenario is a single self-describing JSON document (version 1)
holding a topology, the initial NIB (tables and observed flows), named
single-slot applications, named chains over those applications, and
named query headers.  Parsing is strict: unknown keys are rejected so a
typo cannot silently change an analysis.

`read_document` checks a file's top level (its keys, the version, the
topology and the length of `tables`) and returns a `Document` that decodes the other sections
on request: the NIB, one named chain with the apps it names, one named
query.  A command pays only for the sections it reads.  `load_scenario`
decodes the whole document through the same section decoders, in file
order.

Each value goes as read to the constructor that owns its type and range;
`_located` puts the value's JSON path on that constructor's error.  The
decoder checks only JSON's own rules: shapes, keys, `kind` tags, the
version, decimal `server_ports` keys, seq depth and names.

Headers serialize as objects keyed by field name with omitted fields
defaulting to 0; match patterns likewise, with omitted fields
defaulting to wildcard.  Concrete actions serialize as tagged objects
(forward / drop / modify / seq applied left to right); template actions
use the same tags but may reference named ports, the per-destination
server port, and deferred value picks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from flowspace import actions
from flowspace.actions import PORT_SLOT, TTL_SLOT, AffineAction
from flowspace.errors import (
    FlowspaceError,
    InvalidRuleError,
    ScenarioFormatError,
    SlotOutOfRangeError,
)
from flowspace.headers import FIELD_COUNT, FIELD_INDEX, FIELDS, Header, MatchPattern
from flowspace.nib import NIB, Flow, Topology
from flowspace.tables import FlowEntry, FlowRule, FlowTable
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
    Seq,
    ServiceChain,
    SetField,
    SourceCountAtMost,
    TrueGuard,
    make_app,
)

FORMAT_VERSION = 1

#: Deepest nesting of template `seq` actions.  Templates stay symbolic
#: until applied, so their normal forms, reports and hashes recurse once
#: per level; a bound here keeps that recursion far from Python's limit.
MAX_SEQ_DEPTH = 64


def _require_obj(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{what} must be an array, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed: frozenset[str], what: str) -> None:
    if obj.keys() <= allowed:
        return
    unknown = sorted(set(obj) - allowed)
    raise ScenarioFormatError(f"unknown keys in {what}: {unknown}")


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


_FIELD_NAMES = frozenset(FIELD_INDEX)
_FIELD_ORDER = tuple(FIELD_INDEX)
_ZEROS = (0,) * FIELD_COUNT


def _field(value, what: str) -> str:
    """A field name: the integer field indices of the library have no wire form."""
    if not isinstance(value, str):
        raise ScenarioFormatError(f"{what} must be a field name, got {type(value).__name__}")
    if value not in FIELD_INDEX:
        raise ScenarioFormatError(f"{what} must be a header field name, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Headers and patterns


def header_to_obj(h: Header) -> dict:
    return {spec.name: v for spec, v in zip(FIELDS, h.values) if v}


def header_from_obj(obj, what: str = "header") -> Header:
    obj = _require_obj(obj, what)
    _check_keys(obj, _FIELD_NAMES, what)
    try:  # not through `_build`: a NIB's flows make this the hottest path
        return Header(tuple(map(obj.get, _FIELD_ORDER, _ZEROS)))
    except InvalidRuleError as exc:
        raise _located(exc, f"{what}.{exc.field}") from None


def pattern_to_obj(p: MatchPattern) -> dict:
    return {spec.name: v for spec, v in zip(FIELDS, p.entries) if v is not None}


def pattern_from_obj(obj, what: str = "match") -> MatchPattern:
    obj = _require_obj(obj, what)
    _check_keys(obj, _FIELD_NAMES, what)
    if None in obj.values():  # a wildcard is written by leaving its field out
        name = next(name for name, value in obj.items() if value is None)
        raise ScenarioFormatError(f"{what}.{name} must be an int, got NoneType")
    return _build(what, MatchPattern, tuple(map(obj.get, _FIELD_ORDER)))


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
    obj = _require_obj(obj, what)
    _check_keys(obj, _RULE_KEYS, what)
    return _rule(obj, what)


def _rule(obj: dict, what: str) -> FlowRule:
    """The rule of a rule or entry object whose keys are checked."""
    return _build(what, FlowRule,
                  pattern_from_obj(_require(obj, "match", what), f"{what}.match"),
                  _require(obj, "out_port", what), _require(obj, "ttl", what),
                  action_from_obj(_require(obj, "action", what), f"{what}.action"))


def entry_to_obj(e: FlowEntry) -> dict:
    obj = rule_to_obj(e.rule)
    obj["counter"] = e.counter
    return obj


def entry_from_obj(obj, what: str = "entry") -> FlowEntry:
    obj = _require_obj(obj, what)
    _check_keys(obj, _ENTRY_KEYS, what)
    return _build(what, FlowEntry, _rule(obj, what), obj.get("counter", 0))


def table_to_obj(t: FlowTable) -> list:
    return [entry_to_obj(e) for e in t.entries]


def table_from_obj(obj, what: str = "table") -> FlowTable:
    return FlowTable(entry_from_obj(e, f"{what}[{i}]")
                     for i, e in enumerate(_require_list(obj, what)))


def flow_to_obj(f: Flow) -> dict:
    obj = {"header": header_to_obj(f.header)}
    if f.assigned_dest is not None:
        obj["assigned_dest"] = f.assigned_dest
    return obj


def flow_from_obj(obj, what: str = "flow") -> Flow:
    obj = _require_obj(obj, what)
    _check_keys(obj, _FLOW_KEYS, what)
    header = header_from_obj(_require(obj, "header", what), f"{what}.header")
    try:  # not through `_build`, as in `header_from_obj`
        return Flow(header, obj.get("assigned_dest"))
    except InvalidRuleError as exc:
        raise _located(exc, f"{what}.{exc.field}") from None


# ---------------------------------------------------------------------------
# Topology


def topology_to_obj(t: Topology) -> dict:
    return {
        "switches": t.switch_count,
        "ports": dict(sorted(t.ports.items())),
        "server_ports": {str(k): v for k, v in sorted(t.server_ports.items())},
    }


def topology_from_obj(obj, what: str = "topology") -> Topology:
    obj = _require_obj(obj, what)
    _check_keys(obj, _TOPOLOGY_KEYS, what)
    ports = _require_obj(obj.get("ports", {}), f"{what}.ports")
    server_ports = {
        _address_key(k, f"{what}.server_ports"): v
        for k, v in _require_obj(obj.get("server_ports", {}), f"{what}.server_ports").items()
    }
    return _build(what, Topology, _require(obj, "switches", what), ports, server_ports)


# ---------------------------------------------------------------------------
# Guards, port/value references, templates, deltas, apps


def guard_to_obj(g) -> dict:
    if isinstance(g, TrueGuard):
        return {"kind": "true"}
    if isinstance(g, SourceCountAtMost):
        return {"kind": "source_count_at_most", "threshold": g.threshold}
    return {"kind": "load_at_most", "server_a": g.server_a, "server_b": g.server_b}


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


def port_ref_to_obj(ref):
    if isinstance(ref, PortName):
        return ref.name
    if isinstance(ref, PortNumber):
        return ref.value
    return {"kind": "dest_port"}


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


def value_ref_to_obj(ref):
    if isinstance(ref, PickLessLoaded):
        return {"kind": "pick_less_loaded", "server_a": ref.server_a,
                "server_b": ref.server_b}
    return ref


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
    obj = _require_obj(obj, what)
    _check_keys(obj, _ENTRY_KEYS, what)
    match = _require(obj, "match", what)
    match = InputHeader() if match == "input" else pattern_from_obj(match, f"{what}.match")
    return _build(what, RuleTemplate, match,
                  port_ref_from_obj(_require(obj, "out_port", what), f"{what}.out_port"),
                  _require(obj, "ttl", what),
                  action_spec_from_obj(_require(obj, "action", what), f"{what}.action"),
                  obj.get("counter", 0))


def delta_to_obj(d: GuardedDelta) -> dict:
    return {
        "branches": [
            {"guard": guard_to_obj(g), "rules": [template_to_obj(t) for t in tpls]}
            for g, tpls in d.branches
        ],
        "default": [template_to_obj(t) for t in d.default],
    }


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


def app_to_obj(app: AppTransform) -> dict:
    """Single-slot application form used inside scenario files."""
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
    obj = _require_obj(obj, what)
    _check_keys(obj, _APP_KEYS, what)
    slot = _require(obj, "slot", what)
    try:
        return _build(what, make_app, _require(obj, "name", what), slot,
                      delta_from_obj(_require(obj, "delta", what), f"{what}.delta"), n)
    except SlotOutOfRangeError:
        raise ScenarioFormatError(f"{what}.slot={slot} out of range for {n} switches") from None


def transform_to_obj(app: AppTransform) -> dict:
    """Full composite form (reports only; scenario files use app_to_obj)."""
    return {
        "name": app.name,
        "linear": [list(row) for row in app.linear],
        "slots": [[delta_to_obj(p) for p in s] for s in app.translation],
    }


# ---------------------------------------------------------------------------
# Scenario


@dataclass(frozen=True)
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

    - `nib` decodes the tables and the flows;
    - `chain` decodes one chain and, of `apps`, the apps it names, each
      at most once, so chains that name an app share it.  It reads every
      app's name, to find them and to reject duplicates;
    - `query` decodes one query header;
    - `scenario` decodes the whole document through the three.

    An error's JSON path keeps each item's position in the whole array.
    """

    def __init__(self, obj):
        obj = _require_obj(obj, "scenario")
        _check_keys(obj, _SCENARIO_KEYS, "scenario")
        version = _require(obj, "version", "scenario")
        if type(version) is not int or version != FORMAT_VERSION:
            raise ScenarioFormatError(f"version must be {FORMAT_VERSION}, got {version!r}")
        self.topology = topology_from_obj(_require(obj, "topology", "scenario"))
        n = self.topology.switch_count
        # Every app is an n x n matrix, so also a command that decodes no
        # table checks n against the length of an array the file holds.
        self._tables = _require_list(obj.get("tables", []), "tables")
        if len(self._tables) != n:
            raise ScenarioFormatError(f"scenario needs exactly {n} tables")
        self._obj = obj
        self._app_index: dict[str, int] | None = None  # name -> position in `apps`
        self._apps: dict[int, AppTransform] = {}  # position -> the app, once decoded

    def nib(self) -> NIB:
        tables = tuple(table_from_obj(t, f"tables[{i}]") for i, t in enumerate(self._tables))
        flows = tuple(flow_from_obj(f, f"flows[{i}]")
                      for i, f in enumerate(_require_list(self._obj.get("flows", []), "flows")))
        return NIB(self.topology, tables, flows)

    def chain(self, name: str) -> ServiceChain:
        chains = _require_obj(self._obj.get("chains", {}), "chains")
        if name not in chains:
            raise FlowspaceError(f"no chain named {name!r} in scenario")
        what = f"chains[{name}]"
        stage_names = chains[name]
        if not _require_list(stage_names, what):
            raise ScenarioFormatError(f"{what} must be a non-empty array")
        index = self._names()
        for i, stage in enumerate(stage_names):
            if not isinstance(stage, str):
                raise ScenarioFormatError(
                    f"{what}[{i}] must be an app name, got {type(stage).__name__}")
            if stage not in index:
                raise ScenarioFormatError(f"chain {name!r} references unknown app {stage!r}")
        return ServiceChain(tuple(self._app(index[s]) for s in stage_names))

    def query(self, name: str) -> Header:
        queries = _require_obj(self._obj.get("queries", {}), "queries")
        if name not in queries:
            raise FlowspaceError(f"no query named {name!r} in scenario")
        return header_from_obj(queries[name], f"queries[{name}]")

    def scenario(self) -> Scenario:
        nib = self.nib()
        # Every app decodes before the next name is checked, as in file order.
        self._app_index = _positions(self._app(i).name for i in range(len(self._raw_apps())))
        apps = {name: self._apps[i] for name, i in self._app_index.items()}
        chains = {name: self.chain(name)
                  for name in _require_obj(self._obj.get("chains", {}), "chains")}
        queries = {name: self.query(name)
                   for name in _require_obj(self._obj.get("queries", {}), "queries")}
        return Scenario(self.topology, nib, apps, chains, queries)

    def _raw_apps(self) -> list:
        return _require_list(self._obj.get("apps", []), "apps")

    def _names(self) -> dict[str, int]:
        """Each app's position by name, found by reading the names alone."""
        if self._app_index is None:
            n = self.topology.switch_count
            self._app_index = _positions(_app_name(raw, n, f"apps[{i}]")
                                         for i, raw in enumerate(self._raw_apps()))
        return self._app_index

    def _app(self, i: int) -> AppTransform:
        app = self._apps.get(i)
        if app is None:
            app = self._apps[i] = app_from_obj(self._raw_apps()[i], self.topology.switch_count,
                                               f"apps[{i}]")
        return app


def _app_name(obj, n: int, what: str) -> str:
    """The name of the app object at `what`, the rest of it unread.  A
    name that is no string fails as decoding the app reports it, since
    the app's constructor owns that check."""
    name = _require(_require_obj(obj, what), "name", what)
    if type(name) is not str:
        app_from_obj(obj, n, what)
    return name


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
    return json.dumps(scenario_to_obj(s), indent=2, sort_keys=True) + "\n"


def parse_json(text: str, what: str):
    """The JSON value `text` holds, called `what` in errors."""
    try:
        return json.loads(text)
    except ValueError as exc:  # not JSON, or an integer past Python's int-string limit
        raise ScenarioFormatError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioFormatError(f"{what} is nested too deeply") from None


def loads_scenario(text: str) -> Scenario:
    obj = parse_json(text, "scenario")
    try:
        return scenario_from_obj(obj)
    except (TypeError, ValueError) as exc:
        # malformed field values (wrong JSON types, out-of-range ints)
        raise ScenarioFormatError(f"malformed scenario: {exc}") from exc


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


def load_scenario(path) -> Scenario:
    return loads_scenario(_read(path))
