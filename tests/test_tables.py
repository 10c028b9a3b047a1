import ast
import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import mutually_inverse
import flowspace
from flowspace import sampling
from flowspace.actions import drop, forward, identity, invert, modify_field
from flowspace.errors import FlowspaceError, InvalidRuleError, SingularActionError
from flowspace.headers import MatchPattern
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    add,
    empty,
    entry_key,
    inverse_index,
    negate_rule,
    negate_table,
    reduce,
    scalar_mul,
    union,
)


def rule(action=None, port=1, ttl=60, **match_fields) -> FlowRule:
    return FlowRule(
        MatchPattern.from_fields(**match_fields),
        port,
        ttl,
        action if action is not None else forward(3),
    )


def table(*entries) -> FlowTable:
    return FlowTable(entries)


class TestEmptyAndAdd:
    def test_empty_has_no_entries(self):
        assert len(empty()) == 0

    def test_add_identity(self):
        t = table(FlowEntry(rule(nw_src=1), 4))
        assert add(t, empty()) == t

    def test_add_commutative_and_idempotent(self):
        t1 = table(FlowEntry(rule(nw_src=1), 0))
        t2 = table(FlowEntry(rule(nw_src=2), 0))
        assert add(t1, t2) == add(t2, t1)
        assert add(t1, t1) == t1

    def test_seeded_union_laws(self):
        rng = random.Random(5)
        for _ in range(200):
            t1 = sampling.random_table(rng)
            t2 = sampling.random_table(rng)
            t3 = sampling.random_table(rng)
            assert add(add(t1, t2), t3) == add(t1, add(t2, t3))
            assert add(t1, t2) == add(t2, t1)
            assert add(t1, empty()) == t1

    def test_union_is_the_sum_of_tables_and_entries(self):
        rng = random.Random(6)
        for _ in range(100):
            ts = [sampling.random_table(rng) for _ in range(rng.randrange(4))]
            extra = list(sampling.random_table(rng))
            want = FlowTable(extra)
            for t in ts:
                want = add(want, t)
            assert union(ts, extra) == want


class TestScalarMul:
    def test_zero_and_one(self):
        t = table(FlowEntry(rule(), 0))
        assert scalar_mul(0, t) == empty()
        assert scalar_mul(1, t) == t

    def test_scalar_associativity(self):
        t = table(FlowEntry(rule(), 0))
        for a in (0, 1):
            for b in (0, 1):
                assert scalar_mul(a, scalar_mul(b, t)) == scalar_mul(a * b, t)

    def test_rejects_other_scalars(self):
        with pytest.raises(ValueError):
            scalar_mul(2, empty())


class TestNegate:
    def test_identity_rule_is_self_inverse(self):
        r = rule(action=identity())
        assert negate_rule(r) == r

    def test_forward_rule(self):
        r = rule(action=forward(6))
        assert negate_rule(r).action == forward(2**16 - 6)

    def test_drop_rule_has_no_inverse(self):
        with pytest.raises(SingularActionError):
            negate_rule(rule(action=drop()))

    def test_negate_table(self):
        assert negate_table(empty()) == empty()
        t = table(FlowEntry(rule(action=forward(6), nw_src=1), 7))
        assert negate_table(negate_table(t)) == t
        # counters survive negation
        assert negate_table(t).entries[0].counter == 7

    def test_negate_table_reports_singular_entry(self):
        t = table(FlowEntry(rule(action=drop()), 0))
        with pytest.raises(SingularActionError):
            negate_table(t)


class TestReduce:
    def test_planted_pair_cancels(self):
        r = rule(action=forward(3), nw_src=9)
        t = table(FlowEntry(r, 0), FlowEntry(negate_rule(r), 0))
        assert reduce(t) == empty()

    def test_fixed_point_without_pairs(self):
        t = table(
            FlowEntry(rule(action=forward(3), nw_src=1), 0),
            FlowEntry(rule(action=forward(9), nw_src=2), 0),
        )
        assert reduce(t) == t

    def test_counters_do_not_block_cancellation(self):
        r = rule(action=forward(3))
        t = table(FlowEntry(r, 5), FlowEntry(negate_rule(r), 11))
        assert reduce(t) == empty()

    def test_self_inverse_entry_cancels_alone(self):
        # r == -r collapses under union, so a single copy must vanish
        # for t + (-t) to reach the empty table.
        t = table(FlowEntry(rule(action=identity()), 0))
        assert negate_table(t) == t
        assert reduce(add(t, negate_table(t))) == empty()
        assert reduce(t) == empty()

    def test_drop_entries_never_cancel(self):
        t = table(FlowEntry(rule(action=drop()), 0), FlowEntry(rule(action=drop()), 1))
        assert reduce(t) == t

    def test_mismatched_tuple_fields_do_not_cancel(self):
        r = rule(action=forward(3), nw_src=9)
        other = FlowRule(r.match, r.out_port, r.ttl + 1, invert(r.action))
        t = table(FlowEntry(r, 0), FlowEntry(other, 0))
        assert reduce(t) == t

    def test_inverse_law_on_random_tables(self):
        rng = random.Random(17)
        for _ in range(300):
            t = sampling.random_table(rng, invertible_only=True)
            assert reduce(add(t, negate_table(t))) == empty()

    def test_deterministic_on_triples(self):
        # Three copies of a self-inverse rule (distinct counters): the
        # lowest-ordered pair goes first, then the leftover self-cancels.
        r = rule(action=modify_field("nw_tos", 32))  # 32 = half of 2**6
        t = table(FlowEntry(r, 0), FlowEntry(r, 1), FlowEntry(r, 2))
        assert reduce(t) == empty()

    def test_idempotent(self):
        rng = random.Random(77)
        for _ in range(200):
            t = sampling.random_collision_table(rng, max_entries=12)
            once = reduce(t)
            assert reduce(once) == once

    def test_result_has_no_cancellable_group_left(self):
        rng = random.Random(78)
        for _ in range(100):
            left = reduce(sampling.random_collision_table(rng, max_entries=12))
            entries = left.entries
            for i, ei in enumerate(entries):
                assert not mutually_inverse(ei.rule, ei.rule)
                for ej in entries[i + 1:]:
                    assert not mutually_inverse(ei.rule, ej.rule)


class TestStrictConstructors:
    @pytest.mark.parametrize("port, ttl", [(True, 60), (1.5, 60), (1, 60.0), ("1", 60),
                                           (70_000, 60), (1, -1)])
    def test_rule_takes_ints_in_range(self, port, ttl):
        with pytest.raises(InvalidRuleError):
            FlowRule(MatchPattern.wildcard(), port, ttl, identity())

    def test_rule_takes_pattern_and_action(self):
        with pytest.raises(InvalidRuleError, match="match must be a MatchPattern"):
            FlowRule({}, 1, 60, identity())
        with pytest.raises(InvalidRuleError, match="action must be an AffineAction"):
            FlowRule(MatchPattern.wildcard(), 1, 60, "forward")

    @pytest.mark.parametrize("counter", [True, 1.0, -1, None])
    def test_entry_takes_a_non_negative_int_counter(self, counter):
        with pytest.raises(InvalidRuleError):
            FlowEntry(rule(), counter)

    def test_entry_takes_a_rule(self):
        with pytest.raises(InvalidRuleError, match="rule must be a FlowRule"):
            FlowEntry(None, 0)

    def test_error_is_a_flowspace_value_error(self):
        with pytest.raises(InvalidRuleError) as info:
            FlowRule(MatchPattern.wildcard(), True, 1.5, identity())
        assert isinstance(info.value, FlowspaceError) and isinstance(info.value, ValueError)
        assert str(info.value) == "out_port must be an int, got bool"


class TestTableEqualAndOrder:
    def test_trivials(self):
        t = table(FlowEntry(rule(nw_src=1), 0))
        assert t == t
        assert empty() != t

    def test_construction_order_is_irrelevant(self):
        e1 = FlowEntry(rule(nw_src=1), 0)
        e2 = FlowEntry(rule(nw_src=2), 0)
        assert FlowTable([e1, e2]) == FlowTable([e2, e1])
        assert FlowTable([e1, e2, e1]).entries == FlowTable([e2, e1]).entries

    def test_canonical_order_is_cached_outside_equality(self):
        e1 = FlowEntry(rule(nw_src=1), 0)
        e2 = FlowEntry(rule(nw_src=2), 0)
        t = FlowTable([e2, e1])
        assert t.entries is t.entries == (e1, e2)
        fresh = FlowTable([e1, e2])
        assert t == fresh and hash(t) == hash(fresh)

    def test_inverse_index_is_kept_outside_equality(self):
        r = rule(forward(5), nw_src=1)
        t = table(FlowEntry(r, 0), FlowEntry(negate_rule(r), 2), FlowEntry(rule(drop()), 0))
        fresh = FlowTable(t)
        assert t._index is None  # built on first use
        index = inverse_index(t)
        assert t._index is index and inverse_index(t) is index and fresh._index is None
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
        assert index == inverse_index(fresh)
        assert all(type(group) is tuple for group in index.values())

    def test_entries_are_canonically_sorted(self):
        rng = random.Random(23)
        for _ in range(50):
            t = sampling.random_table(rng)
            keys = [entry_key(e) for e in t.entries]
            assert keys == sorted(keys)


#: Run in this process and in a child: one value of each kept-hash type
#: and of the types that hold them, a pattern with wildcards among them.
HASHED_VALUES = (
    "from flowspace.actions import drop, forward\n"
    "from flowspace.headers import MatchPattern\n"
    "from flowspace.tables import FlowEntry, FlowRule, FlowTable\n"
    "match = MatchPattern.from_fields(nw_src=7, tp_dst=80)\n"
    "entry = FlowEntry(FlowRule(match, 2, 60, forward(3)), 4)\n"
    "values = [match, forward(3), entry.rule, entry,\n"
    "          FlowTable([entry, FlowEntry(FlowRule(match, 1, 0, drop()), 0)])]\n"
)


class TestKeptHashes:
    def test_kept_hash_is_out_of_equality_and_repr(self):
        # An entry and its pattern hold their hash from the moment they
        # are built, in a slot that is no field.
        e = FlowEntry(rule(nw_src=1), 3)
        for value in (e, e.rule.match):
            assert value._hash == hash(value)
            assert "_hash" not in {f.name for f in dataclasses.fields(value)}
            odd = copy.copy(value)
            object.__setattr__(odd, "_hash", value._hash + 1)
            assert odd == value and value == odd and repr(odd) == repr(value)
            assert "_hash" not in repr(value)

    def test_pickles_carry_no_kept_hash(self):
        ns: dict = {}
        exec(HASHED_VALUES, ns)
        values = ns["values"]
        data = pickle.dumps(values)
        assert b"_hash" not in data
        loaded = pickle.loads(data)
        assert loaded == values
        # Loading rebuilds an entry and a pattern through the constructor,
        # which works the hash out anew.
        for got, built in zip(loaded, values):
            assert hash(got) == hash(built)

    def test_unpickled_in_another_hash_seed_hashes_as_built_there(self):
        ns: dict = {}
        exec(HASHED_VALUES, ns)
        for v in ns["values"]:
            hash(v)
        child = (
            "import pickle, sys\n"
            + HASHED_VALUES +
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "for got, built in zip(loaded, values, strict=True):\n"
            "    assert got == built and hash(got) == hash(built) and got in {built}\n"
            "table = values[-1]\n"
            "assert all(e in table and e in set(table) for e in loaded[-1])\n"
            "print('ok')\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(ns["values"]),
                             capture_output=True, env=env)
        assert out.returncode == 0 and out.stdout == b"ok\n", out.stderr.decode()


#: The package's modules, the slots only `tables.py` may read and the
#: names of the inverse index's key layout only it may use.
MODULES = sorted(Path(flowspace.__file__).parent.glob("*.py"))
TABLE_SLOTS = {"_entries", "_order", "_index"}
KEY_LAYOUT = {"inverse_key", "partner_key", "inverse_index"}


def private_uses(path: Path) -> list[str]:
    """Underscore names `path` takes from another flowspace module, and,
    unless it is `tables.py`, its reads of a table's slots and the
    key-layout names it uses."""
    tree = ast.parse(path.read_text())
    modules = set()  # names bound to flowspace modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "flowspace"):
            modules.update(a.asname or a.name for a in node.names)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "flowspace"):
            out += [f"imports {node.module}.{a.name}" for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")]
        elif isinstance(node, ast.Attribute):
            if node.attr in TABLE_SLOTS and path.name != "tables.py":
                out.append(f"reads .{node.attr} (line {node.lineno})")
            elif (isinstance(node.value, ast.Name) and node.value.id in modules
                    and node.attr.startswith("_") and not node.attr.startswith("__")):
                out.append(f"reads {node.value.id}.{node.attr} (line {node.lineno})")
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name in KEY_LAYOUT and path.name != "tables.py":
            out.append(f"names {name} (line {node.lineno})")
    return out


class TestModuleBoundary:
    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_module_reaches_into_another(self, path):
        assert private_uses(path) == []

    def test_the_check_sees_a_private_import_and_a_slot_read(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("from flowspace import tables\n"
                         "from flowspace.tables import _group\n"
                         "tables._counter(t._index)\n"
                         "tables.inverse_index(t)\n")
        assert private_uses(probe) == ["imports flowspace.tables._group",
                                       "reads tables._counter (line 3)",
                                       "reads ._index (line 3)",
                                       "names inverse_index (line 4)"]

    def test_oracles_take_no_private_name_from_transforms(self, tmp_path):
        # An oracle that called into the path it checks would check
        # nothing, so `tests/oracles.py` may import or read no private
        # name of `flowspace.transforms`.
        assert transforms_private_uses(Path(__file__).with_name("oracles.py")) == []
        probe = tmp_path / "probe.py"
        probe.write_text("from flowspace import transforms\n"
                         "from flowspace.transforms import _plan, resolve_port\n"
                         "from flowspace.analysis import _as_transform\n"
                         "transforms._facts(t)\n")
        assert transforms_private_uses(probe) == ["imports flowspace.transforms._plan",
                                                  "reads transforms._facts (line 4)"]


def transforms_private_uses(path: Path) -> list[str]:
    """The private names of `flowspace.transforms` that `path` imports or reads."""
    return [use for use in private_uses(path)
            if use.startswith(("imports flowspace.transforms.", "reads transforms."))]
