import random

import pytest

from flowspace import sampling
from flowspace.errors import DimensionMismatchError, InvalidRuleError
from flowspace.headers import Header
from flowspace.nib import (
    NIB,
    Flow,
    Topology,
    count_by_dest,
    count_by_src,
    effective_dest_of_header,
    empty_nib,
    nib_from_vector,
    nib_vector,
)
from flowspace.tables import FlowTable


def two_switch_nib(flows=()) -> NIB:
    return NIB(Topology(2), (FlowTable(), FlowTable()), tuple(flows))


def header(src=0, dst=0, tp=0) -> Header:
    return Header.from_fields(nw_src=src, nw_dst=dst, tp_src=tp)


class TestVector:
    def test_two_empty_tables(self):
        nib = two_switch_nib()
        assert nib_vector(nib) == (FlowTable(), FlowTable(), 1)

    def test_length_is_switch_count_plus_one(self):
        for n in (1, 2, 5):
            nib = empty_nib(Topology(n))
            assert len(nib_vector(nib)) == n + 1

    def test_round_trip(self):
        nib = two_switch_nib([Flow(header(src=3))])
        back = nib_from_vector(nib.topology, nib_vector(nib), nib.flows)
        assert back == nib

    def test_tables_pass_through_unchanged(self):
        nib = two_switch_nib()
        vec = nib_vector(nib)
        assert all(vec[i] is nib.tables[i] for i in range(2))

    def test_rejects_bad_unit_slot(self):
        with pytest.raises(ValueError):
            nib_from_vector(Topology(1), (FlowTable(), 0))


class TestCounts:
    def test_empty_flow_set(self):
        nib = two_switch_nib()
        assert count_by_src(nib, header(src=1)) == 0
        assert count_by_dest(nib, 1) == 0

    def test_count_by_src(self):
        flows = [Flow(header(src=5, tp=i)) for i in range(3)]
        flows += [Flow(header(src=6)), Flow(header(src=7))]
        nib = two_switch_nib(flows)
        assert count_by_src(nib, header(src=5)) == 3
        assert count_by_src(nib, header(src=6)) == 1

    def test_count_by_dest_uses_assignment(self):
        s1, s2 = 100, 200
        flows = [
            Flow(header(dst=999), assigned_dest=s1),
            Flow(header(dst=999), assigned_dest=s1),
            Flow(header(dst=s2)),
        ]
        nib = two_switch_nib(flows)
        assert count_by_dest(nib, s1) == 2
        assert count_by_dest(nib, s2) == 1
        assert count_by_dest(nib, 42) == 0

    def test_repeated_identical_headers_count_separately(self):
        flows = [Flow(header(src=5)), Flow(header(src=5))]
        nib = two_switch_nib(flows)
        assert count_by_src(nib, header(src=5)) == 2

    def test_against_linear_scan_oracle(self):
        rng = random.Random(31)
        for _ in range(50):
            topo = sampling.random_topology(rng, 2)
            nib = sampling.random_nib(rng, topo)
            probe = sampling.random_header(rng)
            by_src = {}
            by_dest = {}
            for f in nib.flows:
                by_src[f.header.field("nw_src")] = by_src.get(f.header.field("nw_src"), 0) + 1
                d = f.assigned_dest if f.assigned_dest is not None else f.header.field("nw_dst")
                by_dest[d] = by_dest.get(d, 0) + 1
            assert count_by_src(nib, probe) == by_src.get(probe.field("nw_src"), 0)
            for server in sampling.ADDRESS_POOL:
                assert count_by_dest(nib, server) == by_dest.get(server, 0)


class TestObservedFlows:
    def test_holds_its_flows(self):
        nib = two_switch_nib([Flow(header(src=1))])
        assert len(nib.flows) == 1

    def test_counts_accumulate(self):
        nib = two_switch_nib(Flow(header(src=9, tp=i)) for i in range(4))
        assert count_by_src(nib, header(src=9)) == 4

    def test_a_nib_with_more_flows_keeps_the_tables(self):
        nib = two_switch_nib()
        after = NIB(nib.topology, nib.tables, nib.flows + (Flow(header()),))
        assert after.tables == nib.tables


class CountingFlows(tuple):
    """A flow tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestStatsIndex:
    def test_built_once_per_nib(self):
        h = header(src=5, dst=999)
        flows = CountingFlows(
            [Flow(h, assigned_dest=100), Flow(header(src=5, tp=1)), Flow(header(src=6, dst=200))]
        )
        nib = NIB(Topology(2), (FlowTable(), FlowTable()), flows)
        assert flows.iterations == 0  # lazy: construction does not scan
        for _ in range(100):
            assert count_by_src(nib, h) == 2
            assert count_by_dest(nib, 100) == 1
            assert effective_dest_of_header(nib, h) == 100
        assert flows.iterations == 1

    def test_index_is_outside_equality_and_repr(self):
        flows = [Flow(header(src=5))]
        nib, twin = two_switch_nib(flows), two_switch_nib(flows)
        count_by_src(nib, header(src=5))
        assert nib == twin
        assert repr(nib) == repr(twin)

    def test_a_nib_with_one_more_flow_counts_it(self):
        first = Flow(header(src=5), assigned_dest=100)
        nib = two_switch_nib([first])
        assert count_by_src(nib, header(src=5)) == 1
        h = header(src=5, dst=999, tp=1)
        after = two_switch_nib([first, Flow(h, assigned_dest=200)])
        assert count_by_src(after, header(src=5)) == 2
        assert count_by_dest(after, 200) == 1
        assert effective_dest_of_header(after, h) == 200
        # The original NIB keeps its own counts.
        assert count_by_src(nib, header(src=5)) == 1
        assert count_by_dest(nib, 200) == 0


class TestEffectiveDest:
    def test_assignment_wins_for_known_flow(self):
        h = header(src=1, dst=999)
        nib = two_switch_nib([Flow(h, assigned_dest=123)])
        assert effective_dest_of_header(nib, h) == 123

    def test_falls_back_to_header_dest(self):
        nib = two_switch_nib()
        assert effective_dest_of_header(nib, header(dst=77)) == 77


def test_nib_validates_table_count():
    with pytest.raises(DimensionMismatchError):
        NIB(Topology(2), (FlowTable(),))


@pytest.mark.parametrize("args, message", [
    ((2, (FlowTable(), FlowTable())), "topology must be a Topology, got int"),
    ((Topology(2), [FlowTable(), FlowTable()]), "tables must be a tuple, got list"),
    ((Topology(2), ("ab", "cd")), "tables[0] must be a FlowTable, got str"),
    ((Topology(2), (FlowTable(),) * 2, [Flow(header())]), "flows must be a tuple, got list"),
])
def test_nib_checks_its_parts(args, message):
    with pytest.raises(InvalidRuleError) as info:
        NIB(*args)
    assert str(info.value) == message
