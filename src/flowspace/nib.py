"""The network information base.

The NIB aggregates what a control application needs: a static topology,
one flow table per switch, and the observed active flows.  Flows feed
the two statistics the bundled applications use: the per-source flow
count (anomaly detection) and the per-server load (balancing).  A
flow's effective destination is the server assigned by the balancer
when present, else its header destination; without that, load would
only ever count the virtual address.

The statistics come from one index per NIB: it costs one pass over
the flows, on the first lookup, and O(1) per lookup after that.  NIBs
that transforms return build their own index when first asked.

All values are immutable; transformations return new NIBs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from flowspace.actions import PORT_MASK
from flowspace.errors import (
    DimensionMismatchError,
    FlowspaceError,
    InvalidRuleError,
    int_error,
    type_error,
)
from flowspace.headers import ADDRESS_MASK, NW_DST, NW_SRC, Header, dest_of, src_of
from flowspace.tables import FlowTable

_new, _setattr = object.__new__, object.__setattr__  # as a generated `__init__` builds
_header_of = Header.from_mapping


@dataclass(frozen=True, slots=True)
class Topology:
    """A fixed set of switches, named u16 ports, and server-port bindings
    keyed by server address (an nw_dst value).  Its port maps are
    read-only views of the copies its constructor checked (see the
    `flowspace.headers` module docstring)."""

    switch_count: int
    ports: Mapping[str, int] = field(default_factory=dict)
    server_ports: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        n = self.switch_count
        if not (type(n) is int and n >= 1):
            raise (type_error("switches", n) if type(n) is not int
                   else InvalidRuleError(f"must be at least 1, got {n}", "switches", n))
        ports, server_ports = dict(self.ports), dict(self.server_ports)
        errors = [type_error(f"ports[{name}] name", name, "a string") if type(name) is not str
                  else int_error(f"ports[{name}]", port, PORT_MASK)
                  for name, port in ports.items()]
        errors += [int_error(f"server_ports[{address}]", address, ADDRESS_MASK)
                   or int_error(f"server_ports[{address}]", port, PORT_MASK)
                   for address, port in server_ports.items()]
        error = next(filter(None, errors), None)
        if error:
            raise error
        _setattr(self, "ports", MappingProxyType(ports))
        _setattr(self, "server_ports", MappingProxyType(server_ports))

    def __hash__(self):
        return hash((self.switch_count, frozenset(self.ports.items()),
                     frozenset(self.server_ports.items())))

    def __reduce__(self):
        return Topology, (self.switch_count, dict(self.ports), dict(self.server_ports))


@dataclass(frozen=True, slots=True, init=False)
class Flow:
    """An observed flow; assigned_dest is the balancer's server choice.

    A scenario holds one per observed flow, so `__init__` is written out:
    the generated one and a `__post_init__` took steer's `setup_s` from
    0.067 to 0.073 s (medians of six paired 25 s runs).  The scenario
    decoder builds each flow through `from_mapping`, which builds the
    header as well and does not test it again.
    """

    header: Header
    assigned_dest: int | None = None

    def __init__(self, header: Header, assigned_dest: int | None = None):
        if not (isinstance(header, Header)
                and (assigned_dest is None
                     or type(assigned_dest) is int and 0 <= assigned_dest <= ADDRESS_MASK)):
            if not isinstance(header, Header):
                raise type_error("header", header, "a Header")
            raise int_error("assigned_dest", assigned_dest, ADDRESS_MASK)
        _setattr(self, "header", header)
        _setattr(self, "assigned_dest", assigned_dest)

    @classmethod
    def from_mapping(cls, fields, assigned_dest: int | None = None) -> Flow:
        """The flow of the header `fields` maps field names to, assigned to
        `assigned_dest`.  The twin of `Header.from_mapping`, which builds
        the header and raises its errors; `assigned_dest` raises the
        constructor's."""
        header = _header_of(fields)
        if not (assigned_dest is None
                or type(assigned_dest) is int and 0 <= assigned_dest <= ADDRESS_MASK):
            raise int_error("assigned_dest", assigned_dest, ADDRESS_MASK)
        f = _new(cls)
        _setattr(f, "header", header)
        _setattr(f, "assigned_dest", assigned_dest)
        return f

    def effective_dest(self) -> int:
        return self.assigned_dest if self.assigned_dest is not None else dest_of(self.header)


class FlowStats(NamedTuple):
    """The flow statistics of one NIB, keyed for direct lookup."""

    by_src: dict[int, int]  # source -> flow count
    by_dest: dict[int, int]  # effective destination -> flow count
    assigned: dict[tuple[int, ...], int]  # header values -> first assignment


@dataclass(frozen=True)
class NIB:
    topology: Topology
    tables: tuple[FlowTable, ...]
    flows: tuple[Flow, ...] = ()

    def __post_init__(self):
        # One test on the valid path, which every FLOW_MOD commit takes; the
        # error is worked out only when it fails.  The flows are not checked
        # one by one: a NIB can hold many, and the scenario decoder builds
        # each through `Flow.from_mapping`'s check.
        topology, tables = self.topology, self.tables
        if not (isinstance(topology, Topology) and isinstance(tables, tuple)
                and isinstance(self.flows, tuple) and len(tables) == topology.switch_count):
            raise _nib_error(topology, tables, self.flows)
        for table in tables:
            if not isinstance(table, FlowTable):
                raise _nib_error(topology, tables, self.flows)

    # Built from flows on first use; cached_property writes to the
    # instance __dict__, so the index takes no part in equality, hashing
    # or repr.
    @cached_property
    def stats(self) -> FlowStats:
        """Index the flows in one pass; the first assigned flow of a header wins."""
        by_src: dict[int, int] = {}
        by_dest: dict[int, int] = {}
        assigned: dict[tuple[int, ...], int] = {}
        for f in self.flows:
            values = f.header.values
            src = values[NW_SRC]
            by_src[src] = by_src.get(src, 0) + 1
            dest = f.assigned_dest
            if dest is None:
                dest = values[NW_DST]
            elif values not in assigned:
                assigned[values] = dest
            by_dest[dest] = by_dest.get(dest, 0) + 1
        return FlowStats(by_src, by_dest, assigned)


def _nib_error(topology, tables, flows) -> FlowspaceError:
    """The error for the first NIB part of the wrong type, else the table count."""
    if not isinstance(topology, Topology):
        return type_error("topology", topology, "a Topology")
    if not isinstance(tables, tuple):
        return type_error("tables", tables, "a tuple")
    for i, table in enumerate(tables):
        if not isinstance(table, FlowTable):
            return type_error(f"tables[{i}]", table, "a FlowTable")
    if not isinstance(flows, tuple):
        return type_error("flows", flows, "a tuple")
    return DimensionMismatchError(f"{len(tables)} tables for {topology.switch_count} switches")


def empty_nib(topology: Topology) -> NIB:
    return NIB(topology, tuple(FlowTable() for _ in range(topology.switch_count)))


def nib_vector(nib: NIB) -> tuple:
    """The homogeneous table vector: the tables plus a trailing unit slot."""
    return nib.tables + (1,)


def nib_from_vector(topology: Topology, vector: tuple, flows: tuple[Flow, ...] = ()) -> NIB:
    """Inverse of nib_vector (the unit slot is checked and stripped)."""
    if not vector or vector[-1] != 1:
        raise InvalidRuleError("homogeneous vector must end in 1")
    return NIB(topology, tuple(vector[:-1]), flows)


def count_by_src(nib: NIB, h: Header) -> int:
    """Number of observed flows sharing h's source field."""
    return nib.stats.by_src.get(src_of(h), 0)


def count_by_dest(nib: NIB, server: int) -> int:
    """Number of observed flows whose effective destination is `server`."""
    return nib.stats.by_dest.get(server, 0)


def effective_dest_of_header(nib: NIB, h: Header) -> int:
    """Destination used to resolve per-destination ports for header h.

    If h is an observed flow with a balancer assignment, the assignment
    wins; otherwise the header's own destination field.
    """
    return nib.stats.assigned.get(h.values, dest_of(h))
