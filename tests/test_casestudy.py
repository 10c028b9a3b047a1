import pytest

from oracles import congruent
from flowspace.analysis import behavioral_diff, check_congruence
from flowspace.casestudy import (
    ATTACKER,
    CaseStudyConfig,
    VIRTUAL,
    balancer_presteer_delta,
    balancer_steer_delta,
    build_nib,
    build_queries,
    build_scenario,
    build_topology,
    build_x_chain,
    build_y_chain,
    detector_delta,
    ingress_delta,
    server_dispatch_delta,
)
from flowspace.headers import Header
from flowspace.nib import count_by_src
from flowspace.transforms import (
    AppTransform,
    LoadAtMost,
    SourceCountAtMost,
    chain,
    is_identity_linear,
    make_app,
    normalize,
    unconditional,
)

CFG = CaseStudyConfig()


class TestDetectorFirstComposite:
    def test_identity_linear_part(self):
        assert is_identity_linear(chain(build_x_chain(CFG)))

    def test_translation_column_is_balancer_then_detector(self):
        # hand-encoded expected composite: balancer delta in slot 0,
        # detector delta in slot 1
        composite = chain(build_x_chain(CFG))
        expected = AppTransform(
            "expected",
            ((0,), (1,)),
            ((balancer_steer_delta(CFG),), (detector_delta(CFG),)),
        )
        assert congruent(composite, expected)
        assert composite.translation == expected.translation

    def test_detector_guard_structure(self):
        delta = detector_delta(CFG)
        assert len(delta.branches) == 1
        assert delta.branches[0][0] == SourceCountAtMost(CFG.anomaly_threshold)
        assert len(delta.default) == 1  # the otherwise arm drops

    def test_balancer_templates_modify_then_forward(self):
        delta = balancer_steer_delta(CFG)
        assert delta.branches[0][0] == LoadAtMost(CFG.server_a, CFG.server_b)
        arm = delta.branches[0][1][0]
        other = delta.default[0]
        assert arm.out_port.name == "p_s1"
        assert other.out_port.name == "p_s2"
        assert arm.action.steps[0].to == CFG.server_a
        assert other.action.steps[0].to == CFG.server_b


class TestBalancerFirstComposite:
    def test_identity_linear_part(self):
        assert is_identity_linear(chain(build_y_chain(CFG)))

    def test_translation_column_sums_stagewise(self):
        # hand-encoded expected composite: detector deltas sum in slot 0,
        # balancer deltas sum in slot 1, first-applied first
        composite = chain(build_y_chain(CFG))
        expected = AppTransform(
            "expected",
            ((0,), (1,)),
            (
                (ingress_delta(CFG), detector_delta(CFG)),
                (balancer_presteer_delta(CFG), server_dispatch_delta(CFG)),
            ),
        )
        assert composite.translation == expected.translation
        assert congruent(composite, expected)

    def test_ingress_stage_is_unconditional(self):
        delta = ingress_delta(CFG)
        assert delta.branches == ()
        assert len(delta.default) == 1

    def test_dispatch_forwards_to_destination_port(self):
        tpl = server_dispatch_delta(CFG).default[0]
        assert type(tpl.out_port).__name__ == "DestPort"

    def test_presteer_arms_are_verbatim_identical(self):
        delta = balancer_presteer_delta(CFG)
        assert len(delta.branches) == 1
        assert delta.branches[0][1] == delta.default

    def test_presteer_normalizes_to_unconditional(self):
        app = make_app("pre", 1, balancer_presteer_delta(CFG), 2)
        flat = make_app("flat", 1, unconditional(balancer_presteer_delta(CFG).default), 2)
        assert congruent(app, flat)
        norm = normalize(app)
        assert all(p.branches == () for p in norm.translation[1])


class TestChainComparison:
    def test_not_congruent_default_config(self):
        assert not congruent(chain(build_x_chain(CFG)), chain(build_y_chain(CFG)))

    @pytest.mark.parametrize("cfg", [
        CaseStudyConfig(anomaly_threshold=0),
        CaseStudyConfig(anomaly_threshold=10, ttl=5),
        CaseStudyConfig(server_a=1, server_b=2),
    ])
    def test_not_congruent_other_configs(self, cfg):
        report = check_congruence(build_x_chain(cfg), build_y_chain(cfg))
        assert not report.congruent
        assert report.first_difference is not None

    def test_behavioral_witness_exists(self):
        nib = build_nib(CFG)
        queries = build_queries(CFG)
        noisy = queries["noisy-client"]
        assert count_by_src(nib, noisy) > CFG.anomaly_threshold
        witnesses = behavioral_diff(
            build_x_chain(CFG), build_y_chain(CFG),
            [(nib, h) for h in queries.values()],
        )
        assert witnesses, "chains must differ behaviorally on the bundled queries"

    def test_noisy_flow_dropped_in_one_order_forwarded_first_in_other(self):
        from flowspace.transforms import apply_transform
        from flowspace.actions import drop, is_invertible

        nib = build_nib(CFG)
        noisy = build_queries(CFG)["noisy-client"]
        x_out = apply_transform(chain(build_x_chain(CFG)), nib, noisy)
        y_out = apply_transform(chain(build_y_chain(CFG)), nib, noisy)
        # detector-first: its slot gains only the drop rule
        detector_slot_entries = x_out.tables[1].entries
        assert len(detector_slot_entries) == 1
        assert detector_slot_entries[0].rule.action == drop()
        # balancer-first: the detector slot holds a forward AND a drop rule
        y_detector_entries = y_out.tables[0].entries
        assert len(y_detector_entries) == 2
        kinds = sorted(is_invertible(e.rule.action) for e in y_detector_entries)
        assert kinds == [False, True]


class TestConfigValidation:
    def test_servers_must_differ(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(server_a=5, server_b=5)

    def test_required_ports(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(ports={"p_lb": 1})

    def test_topology_binds_servers_to_ports(self):
        topo = build_topology(CFG)
        assert topo.server_ports[CFG.server_a] == CFG.ports["p_s1"]
        assert topo.server_ports[CFG.server_b] == CFG.ports["p_s2"]


class TestScenarioBundle:
    def test_scenario_contains_both_chains(self):
        scn = build_scenario()
        assert set(scn.chains) == {"ids-lb", "lb-ids"}
        assert len(scn.chains["ids-lb"].stages) == 2
        assert len(scn.chains["lb-ids"].stages) == 4

    def test_flows_put_attacker_past_threshold(self):
        scn = build_scenario()
        noisy = Header.from_fields(nw_src=ATTACKER, nw_dst=VIRTUAL)
        assert count_by_src(scn.nib, noisy) == 4 > CFG.anomaly_threshold
