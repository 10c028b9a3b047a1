"""The bundled two-switch service-chain scenario.

Two network services steer client flows toward a pair of load-balanced
servers: an anomaly detector that forwards a flow to the balancer only
while the flow's source stays under a threshold (dropping it
otherwise), and a balancer that rewrites the destination to the less
loaded server and forwards toward it.  The two steering orders
(detector first vs. balancer first) are built as service chains whose
composites can be compared for congruence; they are not congruent, and
a behavioral witness exists whenever a source exceeds the threshold.

Slot layout follows the composite matrices verbatim: the
detector-first composite carries the balancer delta in slot 0 and the
detector delta in slot 1, while the balancer-first composite carries
the detector deltas in slot 0 and the balancer deltas in slot 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from flowspace.headers import Header
from flowspace.nib import NIB, Flow, Topology
from flowspace.tables import FlowTable
from flowspace.transforms import (
    DestPort,
    Drop,
    Forward,
    GuardedDelta,
    InputHeader,
    LoadAtMost,
    PickLessLoaded,
    PortName,
    RuleTemplate,
    Seq,
    ServiceChain,
    SetField,
    SourceCountAtMost,
    guarded,
    make_app,
    unconditional,
)

SWITCH_COUNT = 2
REQUIRED_PORTS = ("p_ids", "p_lb", "p_s1", "p_s2")

# Demo addressing (IPv4-style values for the scenario file).
CLIENT = 0x0A000001  # 10.0.0.1
FRESH_CLIENT = 0x0A000002  # 10.0.0.2
ATTACKER = 0x0A000009  # 10.0.0.9
VIRTUAL = 0x0A000064  # 10.0.0.100, the balanced service address
SERVER_A = 0x0A000065  # 10.0.0.101
SERVER_B = 0x0A000066  # 10.0.0.102


@dataclass(frozen=True, slots=True)
class CaseStudyConfig:
    anomaly_threshold: int = 3
    server_a: int = SERVER_A
    server_b: int = SERVER_B
    ttl: int = 60
    ports: dict[str, int] = field(
        default_factory=lambda: {"p_ids": 1, "p_lb": 2, "p_s1": 3, "p_s2": 4}
    )

    def __post_init__(self):
        if self.anomaly_threshold < 0:
            raise ValueError("anomaly threshold must be non-negative")
        if self.server_a == self.server_b:
            raise ValueError("the two servers must have distinct addresses")
        missing = [p for p in REQUIRED_PORTS if p not in self.ports]
        if missing:
            raise ValueError(f"config is missing ports: {missing}")
        object.__setattr__(self, "ports", dict(self.ports))


def build_topology(cfg: CaseStudyConfig) -> Topology:
    return Topology(
        switch_count=SWITCH_COUNT,
        ports=cfg.ports,
        server_ports={
            cfg.server_a: cfg.ports["p_s1"],
            cfg.server_b: cfg.ports["p_s2"],
        },
    )


def detector_delta(cfg: CaseStudyConfig) -> GuardedDelta:
    """Forward to the balancer while under threshold, else drop."""
    return guarded(
        [
            (
                SourceCountAtMost(cfg.anomaly_threshold),
                [RuleTemplate(InputHeader(), PortName("p_lb"), cfg.ttl,
                              Forward(PortName("p_lb")))],
            )
        ],
        default=[RuleTemplate(InputHeader(), PortName("p_lb"), cfg.ttl, Drop())],
    )


def balancer_steer_delta(cfg: CaseStudyConfig) -> GuardedDelta:
    """Rewrite the destination to the less loaded server and forward to it."""
    return guarded(
        [
            (
                LoadAtMost(cfg.server_a, cfg.server_b),
                [RuleTemplate(
                    InputHeader(), PortName("p_s1"), cfg.ttl,
                    Seq((SetField("nw_dst", cfg.server_a), Forward(PortName("p_s1")))),
                )],
            )
        ],
        default=[RuleTemplate(
            InputHeader(), PortName("p_s2"), cfg.ttl,
            Seq((SetField("nw_dst", cfg.server_b), Forward(PortName("p_s2")))),
        )],
    )


def balancer_presteer_delta(cfg: CaseStudyConfig) -> GuardedDelta:
    """Balancer acting before the detector: rewrite, but hand to the detector.

    Both arms are written identically (the server choice is the
    deferred pick-less-loaded reference), so normalization collapses
    this piece to an unconditional delta.
    """
    template = RuleTemplate(
        InputHeader(), PortName("p_ids"), cfg.ttl,
        Seq((
            SetField("nw_dst", PickLessLoaded(cfg.server_a, cfg.server_b)),
            Forward(PortName("p_ids")),
        )),
    )
    return guarded(
        [(LoadAtMost(cfg.server_a, cfg.server_b), [template])],
        default=[template],
    )


def ingress_delta(cfg: CaseStudyConfig) -> GuardedDelta:
    """Unconditional hand-off toward the balancer."""
    return unconditional(
        [RuleTemplate(InputHeader(), PortName("p_lb"), cfg.ttl, Forward(PortName("p_lb")))]
    )


def server_dispatch_delta(cfg: CaseStudyConfig) -> GuardedDelta:
    """Forward to the port of the already-chosen destination server."""
    return unconditional(
        [RuleTemplate(InputHeader(), DestPort(), cfg.ttl, Forward(DestPort()))]
    )


def build_x_chain(cfg: CaseStudyConfig) -> ServiceChain:
    """Detector-then-balancer steering order."""
    return ServiceChain((
        make_app("x-ids", 1, detector_delta(cfg), SWITCH_COUNT),
        make_app("x-lb", 0, balancer_steer_delta(cfg), SWITCH_COUNT),
    ))


def build_y_chain(cfg: CaseStudyConfig) -> ServiceChain:
    """Balancer-then-detector steering order (four stages)."""
    return ServiceChain((
        make_app("y-ids-pre", 0, ingress_delta(cfg), SWITCH_COUNT),
        make_app("y-lb-pre", 1, balancer_presteer_delta(cfg), SWITCH_COUNT),
        make_app("y-ids-post", 0, detector_delta(cfg), SWITCH_COUNT),
        make_app("y-lb-post", 1, server_dispatch_delta(cfg), SWITCH_COUNT),
    ))


def build_flows(cfg: CaseStudyConfig) -> tuple[Flow, ...]:
    """Observed flows: one quiet client, one source past the threshold."""
    def toward(src: int, tp_src: int = 0) -> Header:
        return Header.from_fields(nw_src=src, nw_dst=VIRTUAL, tp_src=tp_src)

    return (
        Flow(toward(CLIENT), assigned_dest=cfg.server_a),
        Flow(toward(ATTACKER, 1000), assigned_dest=cfg.server_b),
        Flow(toward(ATTACKER, 1001), assigned_dest=cfg.server_b),
        Flow(toward(ATTACKER, 1002)),
        Flow(toward(ATTACKER, 1003)),
    )


def build_nib(cfg: CaseStudyConfig) -> NIB:
    return NIB(
        build_topology(cfg),
        tuple(FlowTable() for _ in range(SWITCH_COUNT)),
        build_flows(cfg),
    )


def build_queries(cfg: CaseStudyConfig) -> dict[str, Header]:
    """Headers worth steering in demos.

    The fresh client addresses a server directly (so the per-destination
    port always resolves); the noisy header is the attacker flow the
    balancer already assigned.
    """
    return {
        "fresh-client": Header.from_fields(nw_src=FRESH_CLIENT, nw_dst=cfg.server_a),
        "noisy-client": Header.from_fields(nw_src=ATTACKER, nw_dst=VIRTUAL, tp_src=1000),
    }


def build_scenario(cfg: CaseStudyConfig | None = None):
    """The bundled scenario: both chain orders over the demo NIB."""
    from flowspace.scenario import Scenario

    cfg = cfg or CaseStudyConfig()
    x = build_x_chain(cfg)
    y = build_y_chain(cfg)
    apps = {stage.name: stage for stage in x.stages + y.stages}
    return Scenario(
        topology=build_topology(cfg),
        nib=build_nib(cfg),
        apps=apps,
        chains={"ids-lb": x, "lb-ids": y},
        queries=build_queries(cfg),
    )
