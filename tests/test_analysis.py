import random

import pytest

from oracles import congruent, loop_pairs_oracle
from flowspace import sampling
from flowspace.actions import drop, forward, is_identity
from flowspace.analysis import (
    CongruenceReport,
    Difference,
    FlowModRequest,
    behavioral_diff,
    check_congruence,
    detect_loops,
    what_if,
)
from flowspace.casestudy import CaseStudyConfig, build_nib, build_queries, build_x_chain, build_y_chain
from flowspace.errors import (
    DimensionMismatchError,
    InvalidRuleError,
    RuleNotFoundError,
    SlotOutOfRangeError,
)
from flowspace.headers import MatchPattern
from flowspace.nib import NIB, Topology
from flowspace.tables import FlowEntry, FlowRule, FlowTable, negate_rule
from flowspace.transforms import (
    Drop,
    InputHeader,
    PortName,
    RuleTemplate,
    ServiceChain,
    SourceCountAtMost,
    chain,
    guarded,
    identity_transform,
    make_app,
    normalize,
    unconditional,
)

CFG = CaseStudyConfig()
P0, P1 = (RuleTemplate(InputHeader(), PortName(p), 60, Drop()) for p in ("p0", "p1"))


def rule(action=None, port=1, ttl=60, **match_fields) -> FlowRule:
    return FlowRule(MatchPattern.from_fields(**match_fields), port, ttl,
                    action if action is not None else forward(3))


def nib_with_tables(*tables) -> NIB:
    return NIB(Topology(len(tables)), tuple(tables))


class TestCheckCongruence:
    def test_chain_against_itself(self):
        x = build_x_chain(CFG)
        report = check_congruence(x, x)
        assert report.congruent
        assert report.first_difference is None

    def test_case_study_chains_differ(self):
        report = check_congruence(build_x_chain(CFG), build_y_chain(CFG))
        assert not report.congruent
        assert report.first_difference is not None

    def test_verdict_matches_decision_procedure(self):
        rng = random.Random(47)
        for _ in range(100):
            a = sampling.random_app(rng, 2, "a")
            b = sampling.random_app(rng, 2, "b")
            assert check_congruence(a, b).congruent == congruent(a, b)

    def test_translation_only_swapped_order(self):
        rng = random.Random(53)
        from flowspace.transforms import ServiceChain
        a = sampling.random_translation_app(rng, 2, "a")
        b = sampling.random_translation_app(rng, 2, "b")
        report = check_congruence(ServiceChain((a, b)), ServiceChain((b, a)))
        assert report.congruent

    def test_reports_are_pinned(self):
        x, y = build_x_chain(CFG), build_y_chain(CFG)
        guards = "slot 0: piece guards ['LoadAtMost'] vs ['unconditional']"
        assert check_congruence(x, y) == CongruenceReport(
            False, Difference(0, guards), normalize(chain(x)), normalize(chain(y)))
        rng = random.Random(53)
        a = sampling.random_translation_app(rng, 2, "a")
        b = sampling.random_translation_app(rng, 2, "b")
        ab, ba = ServiceChain((a, b)), ServiceChain((b, a))
        assert check_congruence(ab, ba) == CongruenceReport(
            True, None, normalize(chain(ab)), normalize(chain(ba)))

    @pytest.mark.parametrize("delta_a, delta_b, detail", [
        (unconditional([P0]), unconditional([P1]),
         "slot 0: piece templates differ in the otherwise arm"),
        (guarded([(SourceCountAtMost(3), [])], [P0]), guarded([(SourceCountAtMost(4), [])], [P0]),
         "slot 0: piece guard 0: SourceCountAtMost(threshold=3) vs "
         "SourceCountAtMost(threshold=4)"),
        (guarded([(SourceCountAtMost(3), [])], [P0]), guarded([(SourceCountAtMost(3), [])], [P1]),
         "slot 0: piece templates differ in the otherwise arm"),
        (guarded([(SourceCountAtMost(3), [P0])], []), guarded([(SourceCountAtMost(3), [P1])], []),
         "slot 0: piece templates differ in arm 0 (SourceCountAtMost(threshold=3))"),
    ])
    def test_pieces_of_one_guard_kind_name_what_differs(self, delta_a, delta_b, detail):
        report = check_congruence(make_app("a", 0, delta_a, 1), make_app("b", 0, delta_b, 1))
        assert report.first_difference == Difference(0, detail)

    def test_slot_count_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            check_congruence(identity_transform(2), identity_transform(3))

    def test_non_identity_linear_part_is_flagged(self):
        from flowspace.transforms import AppTransform, identity_transform
        mix = AppTransform("mix", ((0, 1), (1,)), ((), ()))
        report = check_congruence(mix, identity_transform(2))
        assert any("non-identity linear" in note for note in report.notes)
        assert not report.congruent


class TestBehavioralDiff:
    def test_identical_chains_never_differ(self):
        rng = random.Random(59)
        x = build_x_chain(CFG)
        scenarios = [(build_nib(CFG), h) for h in build_queries(CFG).values()]
        assert behavioral_diff(x, x, scenarios) == []

    def test_empty_scenario_list(self):
        assert behavioral_diff(build_x_chain(CFG), build_y_chain(CFG), []) == []

    def test_noisy_source_is_a_witness(self):
        nib = build_nib(CFG)
        noisy = build_queries(CFG)["noisy-client"]
        out = behavioral_diff(build_x_chain(CFG), build_y_chain(CFG), [(nib, noisy)])
        assert len(out) == 1
        assert out[0].differing_slots  # at least one table differs


class TestDetectLoops:
    def test_planted_inverse_pair(self):
        r = rule(action=forward(3), nw_src=1)
        t = FlowTable([FlowEntry(r, 0), FlowEntry(negate_rule(r), 0)])
        findings = detect_loops(nib_with_tables(t))
        assert len(findings) == 1
        assert findings[0].switch == 0
        assert is_identity(findings[0].certificate)

    def test_drop_rules_never_pair(self):
        t = FlowTable([
            FlowEntry(rule(action=drop(), nw_src=1), 0),
            FlowEntry(rule(action=drop(), nw_src=1), 1),
        ])
        assert detect_loops(nib_with_tables(t)) == []

    def test_pairs_need_matching_tuple_fields(self):
        r = rule(action=forward(3), nw_src=1)
        skewed = FlowRule(r.match, r.out_port + 1, r.ttl, forward(2**16 - 3))
        t = FlowTable([FlowEntry(r, 0), FlowEntry(skewed, 0)])
        assert detect_loops(nib_with_tables(t)) == []

    def test_scan_is_per_table(self):
        r = rule(action=forward(3), nw_src=1)
        nib = nib_with_tables(FlowTable([FlowEntry(r, 0)]),
                              FlowTable([FlowEntry(negate_rule(r), 0)]))
        assert detect_loops(nib) == []

    def test_agrees_with_dense_oracle(self):
        rng = random.Random(61)
        for _ in range(100):
            t = sampling.random_collision_table(rng, max_entries=16)
            found = {
                frozenset((f.entry_a, f.entry_b))
                for f in detect_loops(nib_with_tables(t))
            }
            assert found == loop_pairs_oracle(t)


class TestWhatIf:
    def test_add_to_empty(self):
        r = rule(nw_src=1)
        report = what_if(nib_with_tables(FlowTable(), FlowTable()),
                         FlowModRequest("add", 0, r))
        assert report.diffs[0].added == (FlowEntry(r, 0),)
        assert report.diffs[0].removed == ()
        assert report.diffs[1].added == ()
        assert report.new_loops == ()

    def test_adding_the_inverse_introduces_a_loop(self):
        r = rule(action=forward(5), nw_src=1)
        nib = nib_with_tables(FlowTable([FlowEntry(r, 0)]))
        report = what_if(nib, FlowModRequest("add", 0, negate_rule(r)))
        assert len(report.new_loops) == 1

    def test_existing_loops_are_not_re_reported(self):
        r = rule(action=forward(5), nw_src=1)
        nib = nib_with_tables(FlowTable([FlowEntry(r, 0), FlowEntry(negate_rule(r), 0)]))
        unrelated = rule(nw_src=2)
        report = what_if(nib, FlowModRequest("add", 0, unrelated))
        assert report.new_loops == ()

    def test_delete_absent_rule(self):
        with pytest.raises(RuleNotFoundError):
            what_if(nib_with_tables(FlowTable()), FlowModRequest("delete", 0, rule()))

    def test_add_then_delete_restores(self):
        rng = random.Random(67)
        for _ in range(50):
            t = sampling.random_table(rng)
            nib = nib_with_tables(t)
            r = sampling.random_rule(rng)
            added = what_if(nib, FlowModRequest("add", 0, r)).result
            restored = what_if(added, FlowModRequest("delete", 0, r)).result
            expect = FlowTable(e for e in t if e.rule != r)
            assert restored.tables[0] == expect

    def test_diff_reconstructs_after_from_before(self):
        rng = random.Random(71)
        for _ in range(50):
            t = sampling.random_table(rng)
            nib = nib_with_tables(t)
            r = sampling.random_rule(rng)
            report = what_if(nib, FlowModRequest("add", 0, r))
            rebuilt = FlowTable(
                (set(t) - set(report.diffs[0].removed)) | set(report.diffs[0].added)
            )
            assert rebuilt == report.result.tables[0]

    def test_modify_requires_old_rule(self):
        with pytest.raises(ValueError):
            FlowModRequest("modify", 0, rule())

    @pytest.mark.parametrize("args", [
        ("copy", 0, rule()), ("add", True, rule()), ("add", 0.0, rule()), ("add", "0", rule()),
        ("add", 0, "rule"), ("modify", 0, rule(), "old"),
        ("add", 0, rule(), rule()), ("delete", 0, rule(), rule()), ("add", 0, rule(), "old"),
    ])
    def test_request_fields_are_strict(self, args):
        with pytest.raises(InvalidRuleError):
            FlowModRequest(*args)

    def test_switch_out_of_range(self):
        with pytest.raises(SlotOutOfRangeError):
            what_if(nib_with_tables(FlowTable()), FlowModRequest("add", 5, rule()))
