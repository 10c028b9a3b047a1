"""Randomized property suite for the table-space algebra.

Checks the vector-space laws of table addition (union) and scalar
multiplication over {0, 1} on randomized tables, with the additive
inverse realized through the cancellation normal form.  One law is
asserted to deviate by design: with idempotent union, scaling by the
characteristic-2 sum 1+1=0 yields the empty table while the sum of the
two scaled copies is the table itself, so field-sum distributivity
fails for every nonempty table.  The suite reports that case as an
expected deviation rather than hiding or "fixing" it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from flowspace import sampling
from flowspace.tables import (
    FlowTable,
    add,
    empty,
    negate_table,
    reduce,
    scalar_mul,
)


@dataclass(frozen=True, slots=True)
class PropertyResult:
    name: str
    description: str
    cases: int
    failures: int
    expected_deviation: bool = False
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _run(name: str, description: str, seed: int, cases: int,
         check: Callable, *, invertible_only: bool = False,
         tables: int = 1, expected_deviation: bool = False) -> PropertyResult:
    rng = sampling.rng_for(seed, name)
    failures = 0
    counterexample = None
    for case in range(cases):
        ts = tuple(
            sampling.random_table(rng, invertible_only=invertible_only)
            for _ in range(tables)
        )
        if not check(rng, *ts):
            failures += 1
            if counterexample is None:
                counterexample = f"case {case}: tables={[t.entries for t in ts]!r}"
    return PropertyResult(name, description, cases, failures,
                          expected_deviation, counterexample)


def run_suite(seed: int = 0, cases: int = 1000) -> list[PropertyResult]:
    def associative(rng, t1, t2, t3):
        return add(add(t1, t2), t3) == add(t1, add(t2, t3))

    def commutative(rng, t1, t2):
        return add(t1, t2) == add(t2, t1)

    def identity_(rng, t):
        return add(t, empty()) == t

    def inverse_cancels(rng, t):
        return reduce(add(t, negate_table(t))) == empty()

    def scalar_associative(rng, t):
        a, b = rng.randint(0, 1), rng.randint(0, 1)
        return scalar_mul(a, scalar_mul(b, t)) == scalar_mul(a * b, t)

    def scalar_unit(rng, t):
        return scalar_mul(1, t) == t

    def scalar_zero(rng, t):
        return scalar_mul(0, t) == empty()

    def scalar_distributes(rng, t1, t2):
        a = rng.randint(0, 1)
        return scalar_mul(a, add(t1, t2)) == add(scalar_mul(a, t1), scalar_mul(a, t2))

    def sum_distributes_small(rng, t):
        for a, b in ((0, 0), (0, 1), (1, 0)):
            lhs = scalar_mul(a ^ b, t)
            rhs = add(scalar_mul(a, t), scalar_mul(b, t))
            if lhs != rhs:
                return False
        return True

    def sum_deviates(rng, t):
        if len(t) == 0:
            t = FlowTable([sampling.random_entry(rng)])
        lhs = scalar_mul(1 ^ 1, t)  # the scalar sum is 0
        rhs = add(scalar_mul(1, t), scalar_mul(1, t))  # union keeps t
        return lhs != rhs

    return [
        _run("add-associative", "(t1+t2)+t3 = t1+(t2+t3)", seed, cases,
             associative, tables=3),
        _run("add-commutative", "t1+t2 = t2+t1", seed, cases,
             commutative, tables=2),
        _run("add-identity", "t+empty = t", seed, cases, identity_),
        _run("add-inverse-cancels", "reduce(t + (-t)) = empty", seed, cases,
             inverse_cancels, invertible_only=True),
        _run("scalar-associative", "a(bt) = (ab)t", seed, cases,
             scalar_associative),
        _run("scalar-unit", "1t = t", seed, cases, scalar_unit),
        _run("scalar-zero", "0t = empty", seed, cases, scalar_zero),
        _run("scalar-distributes-over-add", "a(t1+t2) = at1+at2", seed, cases,
             scalar_distributes, tables=2),
        _run("scalar-sum-distributes", "(a+b)t = at+bt for a+b<2", seed, cases,
             sum_distributes_small),
        _run("scalar-sum-deviation",
             "(1+1)t = empty but 1t+1t = t: union breaks this law for t != empty",
             seed, cases, sum_deviates, expected_deviation=True),
    ]


def suite_passed(results: list[PropertyResult]) -> bool:
    """All properties hold, the documented deviation included."""
    return all(r.failures == 0 for r in results)
