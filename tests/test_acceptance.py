"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance here is exact equality; all case counts are fixed and
seeded, so the suite is deterministic.
"""

import json
import os
import random
import subprocess
import sys

from oracles import congruent, dense, dense_product, is_translation_only, loop_pairs_oracle
from flowspace import sampling
from flowspace.actions import compose, drop, forward, identity, invert, is_identity
from flowspace.analysis import behavioral_diff, check_congruence, detect_loops
from flowspace.axioms import run_suite
from flowspace.casestudy import (
    CaseStudyConfig,
    balancer_presteer_delta,
    balancer_steer_delta,
    build_x_chain,
    build_y_chain,
    detector_delta,
    ingress_delta,
    server_dispatch_delta,
)
from flowspace.errors import SingularActionError
from flowspace.headers import FIELDS, Header, HeaderDelta, field_delta, translate_header
from flowspace.nib import NIB, Topology
from flowspace.tables import (
    FlowEntry,
    FlowRule,
    FlowTable,
    add,
    empty,
    negate_rule,
    scalar_mul,
)
from flowspace.transforms import (
    AppTransform,
    ServiceChain,
    apply_transform,
    chain,
    compose_apps,
    is_identity_linear,
)
from flowspace.headers import MatchPattern


def report(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_table_space_axioms():
    """Vector-space laws hold on 1000 random tables; the union/GF(2)
    distributivity clash is observed as the expected deviation."""
    results = run_suite(seed=2024, cases=1000)
    by_name = {r.name: r for r in results}
    ok = all(r.failures == 0 for r in results)
    ok = ok and all(r.cases == 1000 for r in results)
    deviation = by_name["scalar-sum-deviation"]
    ok = ok and deviation.expected_deviation
    # direction of the deviation: left side empties, right side keeps t
    rng = sampling.rng_for(2024, "deviation-direction")
    for _ in range(100):
        t = sampling.random_table(rng)
        if len(t) == 0:
            continue
        ok = ok and scalar_mul(1 ^ 1, t) == empty()
        ok = ok and add(scalar_mul(1, t), scalar_mul(1, t)) == t
    report("1 table-space axiom suite (1000 tables, deviation observed)", ok)


def test_criterion_2_action_algebra():
    """Inverses compose to the identity; drop is singular; structured
    composition equals the dense matrix product on 500 random pairs."""
    rng = random.Random(2025)
    ok = True
    for _ in range(256):
        a = sampling.random_invertible_action(rng)
        ok = ok and is_identity(compose(a, invert(a)))
    try:
        invert(drop())
        ok = False
    except SingularActionError:
        pass
    for _ in range(500):
        a = sampling.random_action(rng)
        b = sampling.random_action(rng)
        ok = ok and bool((dense_product(a, b) == dense(compose(a, b))).all())
    report("2 action algebra (256 inverses, drop singular, 500 dense products)", ok)


def test_criterion_3_case_study_reproduction():
    """Both composites match their hand-encoded structures and the two
    steering orders are not congruent."""
    cfg = CaseStudyConfig()
    x = chain(build_x_chain(cfg))
    y = chain(build_y_chain(cfg))

    ok = not check_congruence(build_x_chain(cfg), build_y_chain(cfg)).congruent

    # detector-first composite: balancer delta in slot 0, detector in slot 1
    x_expected = AppTransform(
        "x", ((0,), (1,)),
        ((balancer_steer_delta(cfg),), (detector_delta(cfg),)),
    )
    ok = ok and is_identity_linear(x)
    ok = ok and x.translation == x_expected.translation
    ok = ok and congruent(x, x_expected)

    # balancer-first composite: stagewise delta sums per slot
    y_expected = AppTransform(
        "y", ((0,), (1,)),
        (
            (ingress_delta(cfg), detector_delta(cfg)),
            (balancer_presteer_delta(cfg), server_dispatch_delta(cfg)),
        ),
    )
    ok = ok and is_identity_linear(y)
    ok = ok and y.translation == y_expected.translation
    ok = ok and congruent(y, y_expected)
    report("3 case study (both composites reproduced, chains not congruent)", ok)


def test_criterion_4_translation_only_commutativity():
    """500 random pairs of translation-only transforms commute."""
    rng = random.Random(2026)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        a = sampling.random_translation_app(rng, n, "a")
        b = sampling.random_translation_app(rng, n, "b")
        if not (is_translation_only(a) and is_translation_only(b)):
            failures += 1
            continue
        if not congruent(compose_apps(a, b), compose_apps(b, a)):
            failures += 1
    report("4 translation-only commutativity (500 pairs)", failures == 0)


def test_criterion_5_congruence_soundness():
    """Chains declared congruent agree on 1000 randomized scenarios."""
    rng = random.Random(2027)
    counterexamples = 0
    declared = 0
    scenario_count = 0
    for _ in range(25):
        n = 2
        topology = sampling.random_topology(rng, n)
        stages = tuple(
            sampling.random_app(rng, n, f"s{k}") for k in range(rng.randint(1, 3))
        )
        va = ServiceChain(stages)
        vb = ServiceChain(tuple(sampling.shuffled_variant(rng, s) for s in stages))
        if not congruent(chain(va), chain(vb)):
            continue
        declared += 1
        ca, cb = chain(va), chain(vb)
        scenarios = [sampling.random_scenario(rng, topology) for _ in range(40)]
        scenario_count += len(scenarios)
        for nib, h in scenarios:
            ra = apply_transform(ca, nib, h)
            rb = apply_transform(cb, nib, h)
            if not all(x == y for x, y in zip(ra.tables, rb.tables)):
                counterexamples += 1
        if behavioral_diff(va, vb, scenarios):
            counterexamples += 1
    ok = counterexamples == 0 and declared == 25 and scenario_count == 1000
    report("5 congruence soundness (1000 scenarios, 0 counterexamples)", ok)


def test_criterion_6_loop_detection():
    """Loop scan equals the brute-force dense oracle on 500 tables."""
    rng = random.Random(2028)
    ok = True
    for _ in range(500):
        t = sampling.random_collision_table(rng, max_entries=32)
        found = {
            frozenset((f.entry_a, f.entry_b))
            for f in detect_loops(NIB(Topology(1), (t,)))
        }
        if found != loop_pairs_oracle(t):
            ok = False
            break

    r = FlowRule(MatchPattern.from_fields(nw_src=7), 4, 60, forward(3))
    planted = FlowTable([FlowEntry(r, 0), FlowEntry(negate_rule(r), 0)])
    ok = ok and len(detect_loops(NIB(Topology(1), (planted,)))) == 1

    drops = FlowTable([
        FlowEntry(FlowRule(MatchPattern.from_fields(nw_src=7), 4, 60, drop()), c)
        for c in range(4)
    ])
    ok = ok and detect_loops(NIB(Topology(1), (drops,))) == []
    report("6 loop detection (500 tables vs dense oracle, planted pair, drops)", ok)


def test_criterion_7_header_arithmetic():
    """Exhaustive round-trips for widths <= 8; 10000 random wide cases."""
    ok = True
    narrow = [f for f in FIELDS if f.width <= 8]
    assert {f.name for f in narrow} == {"dl_vlan_pcp", "nw_tos", "nw_proto"}
    for spec in narrow:
        size = 1 << spec.width
        for old in range(size):
            h = Header.from_fields(**{spec.name: old})
            for new in range(size):
                d = HeaderDelta.single(spec.name, field_delta(old, new, spec.width))
                moved = translate_header(h, d)
                if moved.field(spec.name) != new:
                    ok = False
                if translate_header(moved, d.negated()).field(spec.name) != old:
                    ok = False

    rng = random.Random(2029)
    wide = [f for f in FIELDS if f.width > 8]
    for _ in range(10000):
        spec = rng.choice(wide)
        bound = 1 << spec.width
        old, new = rng.randrange(bound), rng.randrange(bound)
        d = HeaderDelta.single(spec.name, field_delta(old, new, spec.width))
        h = Header.from_fields(**{spec.name: old})
        moved = translate_header(h, d)
        if moved.field(spec.name) != new:
            ok = False
        if translate_header(moved, d.negated()) != h:
            ok = False
    report("7 header arithmetic (exhaustive narrow widths + 10000 wide)", ok)


def test_criterion_8_cli_contract(tmp_path):
    """Exit codes and byte-determinism of the congruence command."""
    def run(*args):
        return subprocess.run([sys.executable, "-m", "flowspace", *args],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ,
                                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p)))

    emitted = run("casestudy", "--emit-scenario")
    ok = emitted.returncode == 0
    path = tmp_path / "casestudy.json"
    path.write_text(emitted.stdout)

    first = run("congruence", str(path), "ids-lb", "lb-ids")
    second = run("congruence", str(path), "ids-lb", "lb-ids")
    ok = ok and first.returncode == 1 and "not_congruent" in first.stdout
    ok = ok and first.stdout == second.stdout and first.stderr == second.stderr

    same = run("congruence", str(path), "ids-lb", "ids-lb")
    ok = ok and same.returncode == 0

    json_a = run("--format", "json", "--seed", "7", "congruence",
                 str(path), "ids-lb", "lb-ids")
    json_b = run("--format", "json", "--seed", "7", "congruence",
                 str(path), "ids-lb", "lb-ids")
    ok = ok and json_a.stdout == json_b.stdout
    ok = ok and json.loads(json_a.stdout)["verdict"] == "not_congruent"
    report("8 CLI contract (exit codes 1/0, byte-identical reruns)", ok)
