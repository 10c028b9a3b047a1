"""Seeded input generation and the reference loop index.

Everything here is computed by the benchmark itself: the generators
build the tables, flows and chains that the workloads hand to
flowspace, and `LoopIndex` finds inverse rule pairs with a hash lookup
on (match, out_port, ttl, translation), apart from the program's own
pair scan, so the workloads can check the program's answers.
"""

from __future__ import annotations

import dataclasses
import random

from flowspace import actions, sampling
from flowspace.actions import STATE_MASKS
from flowspace.tables import FlowEntry, FlowRule, negate_rule
from flowspace.transforms import (
    AppTransform,
    GuardedDelta,
    LoadAtMost,
    SourceCountAtMost,
    make_app,
)

#: A ttl that no generated template uses; a stage carrying it differs
#: from every stage of its partner chain.
UNIQUE_TTL = 999


def rng_for(workload: str, seed: int, label: str = "") -> random.Random:
    return random.Random(f"flowbench:{workload}:{seed}:{label}")


# ---------------------------------------------------------------------------
# Reference loop index


def inverse_key(rule: FlowRule) -> tuple | None:
    """Hash key of an invertible rule; None when the rule has no inverse."""
    a = rule.action
    if not all(a.linear):
        return None
    return (rule.match, rule.out_port, rule.ttl, a.translation)


def partner_key(key: tuple) -> tuple:
    """The key an inverse partner has: the translation negated slotwise."""
    neg = tuple((-t) & m for t, m in zip(key[3], STATE_MASKS))
    return key[:3] + (neg,)


class LoopIndex:
    """Invertible entries of one table, keyed by `inverse_key`."""

    def __init__(self, entries=()):
        self.by_key: dict[tuple, list[FlowEntry]] = {}
        for e in entries:
            self.add(e)

    def add(self, e: FlowEntry) -> None:
        key = inverse_key(e.rule)
        if key is not None:
            self.by_key.setdefault(key, []).append(e)

    def remove(self, e: FlowEntry) -> None:
        key = inverse_key(e.rule)
        if key is not None:
            members = self.by_key[key]
            members.remove(e)
            if not members:
                del self.by_key[key]

    def partners(self, e: FlowEntry) -> list[FlowEntry]:
        key = inverse_key(e.rule)
        if key is None:
            return []
        return [f for f in self.by_key.get(partner_key(key), ()) if f != e]

    def pairs(self) -> set[frozenset]:
        """Every unordered pair of distinct mutually-inverse entries."""
        out = set()
        for members in self.by_key.values():
            for e in members:
                for f in self.partners(e):
                    out.add(frozenset((e, f)))
        return out

    def self_inverse(self) -> list[FlowEntry]:
        return [e for key, members in self.by_key.items()
                if partner_key(key) == key for e in members]


# ---------------------------------------------------------------------------
# Tables, flows, scenarios


def signatures(rng: random.Random, count: int) -> list[tuple]:
    """A small pool of (match, out_port, ttl) signatures for one table."""
    return [
        (sampling.random_pattern(rng), rng.randint(0, 0xFFFF), rng.choice(sampling.TTL_POOL))
        for _ in range(count)
    ]


def random_rule(rng: random.Random, sigs: list[tuple], drop_share: float = 0.1) -> FlowRule:
    match, port, ttl = rng.choice(sigs)
    if rng.random() < drop_share:
        return FlowRule(match, port, ttl, actions.drop())
    return FlowRule(match, port, ttl, sampling.random_invertible_action(rng))


def paired_entries(rng: random.Random, sigs: list[tuple], pairs: int, singles: int,
                   drops: int = 0) -> list[FlowEntry]:
    """Exactly `pairs` planted inverse pairs, `singles` invertible rules
    without a partner and `drops` drop rules (at most one per signature),
    so that scanning or cancelling the table costs about the same on
    every seed."""
    rules: list[FlowRule] = []
    while len(rules) < 2 * pairs:
        rule = random_rule(rng, sigs, drop_share=0.0)
        inverse = negate_rule(rule)
        if rule != inverse and rule not in rules and inverse not in rules:
            rules += [rule, inverse]
    while len(rules) < 2 * pairs + singles:
        rule = random_rule(rng, sigs, drop_share=0.0)
        if rule not in rules and negate_rule(rule) not in rules:
            rules.append(rule)
    rules += [FlowRule(*sig, actions.drop()) for sig in rng.sample(sigs, drops)]
    rng.shuffle(rules)
    return [FlowEntry(r, rng.randint(0, 5)) for r in rules]


# ---------------------------------------------------------------------------
# Chains


def stage_delta(rng: random.Random, templates: int) -> GuardedDelta:
    """One guarded arm plus the otherwise arm, `templates` rules each.

    The guard is never always-true, so the otherwise arm stays live and
    survives normalization.
    """
    if rng.random() < 0.5:
        guard = SourceCountAtMost(rng.randint(0, 5))
    else:
        guard = LoadAtMost(*rng.sample(sampling.ADDRESS_POOL, 2))
    arm = tuple(sampling.random_template(rng) for _ in range(templates))
    default = tuple(sampling.random_template(rng) for _ in range(templates))
    return GuardedDelta(((guard, arm),), default)


def random_stages(rng: random.Random, n: int, count: int, prefix: str,
                  templates: int = 2) -> list[AppTransform]:
    """Stages dealt to the switches in turn, so every table grows by the
    same number of rules on every seed."""
    return [make_app(f"{prefix}{i}", i % n, stage_delta(rng, templates), n)
            for i in range(count)]


def with_unique_ttl(app: AppTransform) -> AppTransform:
    """The app with the first otherwise-arm rule moved to UNIQUE_TTL."""
    slot = next(i for i, s in enumerate(app.translation) if s)
    (piece,) = app.translation[slot]
    default = (dataclasses.replace(piece.default[0], ttl=UNIQUE_TTL),) + piece.default[1:]
    translation = list(app.translation)
    translation[slot] = (GuardedDelta(piece.branches, default),)
    return AppTransform(app.name, app.linear, tuple(translation))


def partner_stages(rng: random.Random, stages: list[AppTransform], prefix: str,
                   differ: bool) -> list[AppTransform]:
    """A partner chain: every stage rewritten by `sampling.shuffled_variant`
    and the stage order shuffled, which keeps the composite congruent;
    with `differ`, one stage also gets a rule at UNIQUE_TTL, which makes
    the composites differ."""
    out = [sampling.shuffled_variant(rng, app) for app in stages]
    if differ:
        k = rng.randrange(len(out))
        out[k] = with_unique_ttl(out[k])
    rng.shuffle(out)
    return [dataclasses.replace(app, name=f"{prefix}{i}") for i, app in enumerate(out)]
