import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense, dense_apply, dense_product, mod_reduce
from flowspace import sampling
from flowspace.actions import (
    PORT_SLOT,
    STATE_MASKS,
    STATE_SIZE,
    AffineAction,
    RuleState,
    apply_action,
    compose,
    drop,
    forward,
    identity,
    invert,
    is_identity,
    is_invertible,
    label,
    modify_field,
)
from flowspace.errors import (
    InvalidRuleError,
    SingularActionError,
    UnknownFieldError,
    WidthOverflowError,
)
from flowspace.headers import Header, field_delta

translations = st.tuples(*[st.integers(0, m) for m in STATE_MASKS])
invertible_actions = translations.map(lambda tr: AffineAction((1,) * STATE_SIZE, tr))


def some_state() -> RuleState:
    return RuleState(Header.from_fields(nw_src=7, dl_dst=2**33), out_port=5, ttl=60)


class TestForward:
    def test_zero_translation(self):
        s = some_state()
        assert apply_action(forward(0), s) == s

    def test_port_translation_wraps(self):
        s = some_state()
        out = apply_action(forward(2**16 - 1), s)
        assert out.out_port == (5 + 2**16 - 1) % 2**16
        assert out.header == s.header and out.ttl == s.ttl

    def test_inverse_translations_cancel(self):
        assert is_identity(compose(forward(3), forward(2**16 - 3)))

    def test_negative_delta_normalized(self):
        assert forward(-3) == forward(2**16 - 3)

    @pytest.mark.parametrize("delta", [True, 1.5, "x"])
    def test_delta_is_a_real_int(self, delta):
        # `True == 1`, yet it must not stand in for a translation of 1
        with pytest.raises(InvalidRuleError) as info:
            forward(delta)
        assert str(info.value) == f"delta must be an int, got {type(delta).__name__}"


class TestDrop:
    def test_maps_everything_to_zero_state(self):
        out = apply_action(drop(), some_state())
        assert out.header.values == (0,) * 12
        assert out.out_port == 0 and out.ttl == 0

    def test_absorbs_when_applied_last(self):
        assert compose(drop(), forward(9)) == drop()

    def test_has_no_inverse(self):
        with pytest.raises(SingularActionError):
            invert(drop())

    def test_composites_containing_drop_are_constant(self):
        # Drop followed by a translation is a constant map, not drop itself.
        a = compose(forward(5), drop())
        assert not any(a.linear)
        assert a.translation == forward(5).translation
        s1, s2 = some_state(), RuleState(Header.from_fields(tp_src=1), 9, 30)
        assert apply_action(a, s1) == apply_action(a, s2)


class TestModifyField:
    def test_zero_delta_is_identity(self):
        assert is_identity(modify_field("nw_src", 0))

    def test_reaches_target_value(self):
        a, b = 1234, 99
        act = modify_field("nw_src", field_delta(a, b, 32))
        out = apply_action(act, RuleState(Header.from_fields(nw_src=a), 0, 0))
        assert out.header.field("nw_src") == b

    def test_distinct_fields_commute(self):
        m1 = modify_field("nw_src", 17)
        m2 = modify_field("tp_dst", 40000)
        assert compose(m1, m2) == compose(m2, m1)

    def test_unknown_field(self):
        with pytest.raises(UnknownFieldError):
            modify_field("mpls_label", 1)
        with pytest.raises(UnknownFieldError):
            modify_field(12, 1)
        # a bool or a float is not an index, though `True == 1`
        for field, kind in ((True, "bool"), (1.5, "float"), (2.0, "float")):
            with pytest.raises(UnknownFieldError, match=f"got {kind}$"):
                modify_field(field, 3)

    @pytest.mark.parametrize("delta", [True, 1.5, "x"])
    def test_delta_is_a_real_int(self, delta):
        with pytest.raises(InvalidRuleError) as info:
            modify_field("nw_src", delta)
        assert str(info.value) == f"delta must be an int, got {type(delta).__name__}"


class TestCompose:
    def test_identity_unit(self):
        a = forward(7)
        assert compose(identity(), a) == a
        assert compose(a, identity()) == a

    def test_forward_translation_group(self):
        assert compose(forward(30000), forward(40000)) == forward((30000 + 40000) % 2**16)

    def test_modify_then_forward_composite(self):
        m = modify_field("nw_dst", 5)
        f = forward(3)
        mf = compose(f, m)  # modify, then forward
        s = some_state()
        assert apply_action(mf, s) == apply_action(f, apply_action(m, s))
        assert label(mf).kind == "composite"

    @given(invertible_actions, invertible_actions, invertible_actions)
    def test_associative(self, a, b, c):
        assert compose(a, compose(b, c)) == compose(compose(a, b), c)

    def test_compose_zero_diagonal_keeps_second_translation(self):
        a = compose(forward(5), drop())
        assert a.linear[PORT_SLOT] == 0 and a.translation[PORT_SLOT] == 5


class TestInvert:
    def test_identity_is_self_inverse(self):
        assert invert(identity()) == identity()

    def test_forward_inverse(self):
        assert invert(forward(7)) == forward(2**16 - 7)
        assert is_identity(compose(forward(7), invert(forward(7))))

    @given(invertible_actions)
    def test_compose_with_inverse_is_identity(self, a):
        assert is_identity(compose(a, invert(a)))
        assert is_identity(compose(invert(a), a))

    @given(invertible_actions)
    def test_apply_round_trip(self, a):
        s = some_state()
        assert apply_action(invert(a), apply_action(a, s)) == s

    def test_is_invertible(self):
        assert is_invertible(forward(1))
        assert not is_invertible(drop())


class TestIsIdentity:
    def test_trivials(self):
        assert is_identity(identity())
        assert not is_identity(forward(1))
        assert not is_identity(drop())


class TestDenseOracle:
    def test_structured_compose_matches_dense_product(self):
        rng = random.Random(101)
        for _ in range(300):
            a = sampling.random_action(rng)
            b = sampling.random_action(rng)
            assert (dense_product(a, b) == dense(compose(a, b))).all()

    def test_apply_matches_dense_apply(self):
        rng = random.Random(102)
        for _ in range(200):
            a = sampling.random_action(rng)
            s = RuleState(sampling.random_header(rng), rng.randint(0, 0xFFFF),
                          rng.choice((0, 30, 60)))
            assert dense_apply(a, s.vector()) == apply_action(a, s).vector()

    def test_mod_reduce_keeps_homogeneous_row(self):
        m = dense_product(forward(1), drop())
        assert m[STATE_SIZE, STATE_SIZE] == 1
        assert m[PORT_SLOT, STATE_SIZE] == 1
        assert (mod_reduce(m) == m).all()


class TestValidation:
    def test_rule_state_bounds(self):
        with pytest.raises(WidthOverflowError):
            RuleState(Header.from_fields(), out_port=2**16, ttl=0)
        with pytest.raises(WidthOverflowError):
            RuleState(Header.from_fields(), out_port=0, ttl=2**16)

    @pytest.mark.parametrize("args, message", [
        ((Header.from_fields(), True, 1), "out_port must be an int, got bool"),
        ((Header.from_fields(), 1, 1.0), "ttl must be an int, got float"),
        ((Header.from_fields(), "1", 1), "out_port must be an int, got str"),
        (((0,) * 12, 1, 1), "header must be a Header, got tuple"),
    ])
    def test_rule_state_types(self, args, message):
        with pytest.raises(InvalidRuleError) as info:
            RuleState(*args)
        assert str(info.value) == message

    def test_action_vector_bounds(self):
        with pytest.raises(ValueError):
            AffineAction((2,) * STATE_SIZE, (0,) * STATE_SIZE)
        with pytest.raises(ValueError):
            AffineAction((1,) * STATE_SIZE, (2**16,) + (0,) * (STATE_SIZE - 1))

    @pytest.mark.parametrize("linear, translation, message", [
        ((1.0,) * STATE_SIZE, (0,) * STATE_SIZE, "linear[0] must be an int, got float"),
        ((1,) * 5 + (True,) + (1,) * 8, (0,) * STATE_SIZE, "linear[5] must be an int, got bool"),
        ((1,) * STATE_SIZE, (0,) * 3 + (0.5,) + (0,) * 10,
         "translation[3] must be an int, got float"),
        ((1,) * STATE_SIZE, (0,) * 12 + (2**16, 0), "translation[12] 65536 exceeds 16-bit range"),
        ((0,) * 13 + (2,), (0,) * STATE_SIZE, "linear[13] 2 exceeds 1-bit range"),
        ((1,) * STATE_SIZE, (0,) * 3, f"translation must have {STATE_SIZE} slots, got 3"),
        ([1] * STATE_SIZE, (0,) * STATE_SIZE, "linear must be a tuple, got list"),
    ])
    def test_action_vector_types(self, linear, translation, message):
        with pytest.raises(InvalidRuleError) as info:
            AffineAction(linear, translation)
        assert str(info.value) == message


class TestLabel:
    def test_kinds(self):
        assert label(drop()).kind == "drop"
        assert label(forward(4)) == label(forward(4))
        assert label(forward(4)).kind == "forward"
        assert label(modify_field("nw_dst", 9)).kind == "modify"
        assert label(identity()).kind == "forward"  # the zero port translation
        assert label(compose(forward(5), drop())).kind == "composite"
