import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowspace.errors import (
    ArityMismatchError,
    InvalidRuleError,
    UnknownFieldError,
    WidthOverflowError,
)
from flowspace.headers import (
    FIELD_COUNT,
    FIELD_MASKS,
    FIELDS,
    Header,
    HeaderDelta,
    MatchPattern,
    dest_of,
    field_delta,
    field_index,
    make_header,
    matches,
    src_of,
    translate_header,
)

field_values = st.tuples(*[st.integers(0, m) for m in FIELD_MASKS])
headers = field_values.map(Header)
deltas = field_values.map(HeaderDelta)


def test_field_list_is_the_of10_match_set():
    assert FIELD_COUNT == 12
    assert [f.name for f in FIELDS] == [
        "in_port", "dl_src", "dl_dst", "dl_type", "dl_vlan", "dl_vlan_pcp",
        "nw_src", "nw_dst", "nw_proto", "nw_tos", "tp_src", "tp_dst",
    ]
    assert [f.width for f in FIELDS] == [16, 48, 48, 16, 12, 3, 32, 32, 8, 6, 16, 16]


class TestMakeHeader:
    def test_all_zero(self):
        h = make_header((0,) * 12)
        assert h.values == (0,) * 12

    def test_width_overflow_names_the_field(self):
        values = [0] * 12
        values[field_index("dl_vlan_pcp")] = 8  # first value outside 3 bits
        with pytest.raises(WidthOverflowError) as err:
            make_header(tuple(values))
        assert err.value.field == "dl_vlan_pcp"
        assert (err.value.value, err.value.width) == (8, 3)
        assert str(err.value) == "dl_vlan_pcp=8 exceeds 3-bit range"
        assert isinstance(err.value, InvalidRuleError)  # one type for every value error

    def test_arity(self):
        with pytest.raises(ArityMismatchError):
            make_header((0,) * 11)

    def test_from_fields_defaults_to_zero(self):
        h = Header.from_fields(nw_src=7)
        assert src_of(h) == 7
        assert sum(h.values) == 7

    def test_unknown_field(self):
        with pytest.raises(UnknownFieldError):
            Header.from_fields(nw_srcc=1)
        # A field is a name or a real int: a bool or a float is neither,
        # though `True == 1` and `2.0 == 2`.
        h = Header.from_fields(dl_src=5, dl_dst=6)
        assert h.field(2) == h.field("dl_dst") == 6 and field_index(1) == 1
        for field, kind in ((True, "bool"), (False, "bool"), (1.5, "float"), (2.0, "float"),
                            (None, "NoneType")):
            message = f"^a field is a name or an index, got {kind}$"
            for resolve in (lambda: h.field(field), lambda: HeaderDelta.single(field, 1),
                            lambda: field_index(field)):
                with pytest.raises(UnknownFieldError, match=message):
                    resolve()
        with pytest.raises(UnknownFieldError, match="^field index 12 out of range$"):
            h.field(12)

    @given(st.dictionaries(st.sampled_from([f.name for f in FIELDS]),
                           st.one_of(st.integers(-2, 2**49), st.booleans(), st.floats())))
    def test_from_mapping_agrees_with_the_full_check(self, fields):
        # The mapping constructor tests only the named values; it builds
        # and fails exactly as the full check on all twelve does.
        values = tuple(fields.get(f.name, 0) for f in FIELDS)
        try:
            expected = Header(values)
        except InvalidRuleError as exc:
            with pytest.raises(InvalidRuleError) as got:
                Header.from_mapping(fields)
            assert (type(got.value), got.value.args) == (type(exc), exc.args)
        else:
            assert Header.from_mapping(fields) == expected

    def test_from_mapping_reports_an_unknown_name_before_a_bad_value(self):
        with pytest.raises(UnknownFieldError, match="^unknown field 'nw_srcc'$"):
            Header.from_mapping({"nw_src": -1, "nw_srcc": 1})
        with pytest.raises(WidthOverflowError, match="^nw_src=-1 exceeds 32-bit range$"):
            Header.from_mapping({"tp_dst": 1 << 16, "nw_src": -1})


class TestFieldDelta:
    def test_identity(self):
        assert field_delta(5, 5, 8) == 0

    def test_wraparound(self):
        # frozen from the modular oracle: (3 - 5) mod 256
        assert field_delta(5, 3, 8) == 254

    def test_wide_field(self):
        top = 2**48 - 1
        assert field_delta(0, top, 48) == top

    def test_overflow(self):
        with pytest.raises(WidthOverflowError):
            field_delta(256, 0, 8)
        with pytest.raises(WidthOverflowError):
            field_delta(0, 256, 8)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            field_delta(0, 0, 0)


class TestTranslate:
    def test_translate(self):
        h = Header.from_fields(nw_proto=250)
        d = HeaderDelta.single("nw_proto", 10)
        assert translate_header(h, d).field("nw_proto") == 4

    def test_zero_delta_is_identity(self):
        h = Header.from_fields(dl_src=2**40, tp_dst=9)
        assert translate_header(h, HeaderDelta.zero()) == h

    def test_single_field_wrap(self):
        for name, value, delta, wrapped in (
            ("nw_tos", 63, 1, 0),
            ("nw_proto", 250, 10, 4),
            ("dl_src", 2**48 - 1, 1, 0),
        ):
            h = Header.from_fields(**{name: value})
            d = HeaderDelta.single(name, delta)
            assert translate_header(h, d).field(name) == wrapped

    @pytest.mark.parametrize("delta", [True, 1.5, "1"])
    def test_single_delta_is_a_real_int(self, delta):
        # `True == 1`, yet it must not stand in for a translation of 1
        with pytest.raises(InvalidRuleError) as info:
            HeaderDelta.single("nw_src", delta)
        assert str(info.value) == f"delta must be an int, got {type(delta).__name__}"

    @given(headers, deltas)
    def test_negated_delta_round_trips(self, h, d):
        assert translate_header(translate_header(h, d), d.negated()) == h

    def test_negated_delta_values(self):
        for name, delta, negated in (
            ("nw_proto", 0, 0),
            ("nw_proto", 5, 251),
            ("dl_src", 2**48 - 1, 1),
            ("dl_src", 1, 2**48 - 1),
        ):
            assert HeaderDelta.single(name, delta).negated() == HeaderDelta.single(name, negated)
        back = translate_header(Header.from_fields(), HeaderDelta.single("dl_src", 1).negated())
        assert back.field("dl_src") == 2**48 - 1

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_delta_then_translate_reaches_target(self, old, new):
        d = HeaderDelta.single("nw_proto", field_delta(old, new, 8))
        h = Header.from_fields(nw_proto=old)
        assert translate_header(h, d).field("nw_proto") == new


class TestMatches:
    def test_wildcard_matches_anything(self):
        assert matches(MatchPattern.wildcard(), Header.from_fields(nw_src=1, tp_src=2))

    @given(headers)
    def test_exact_self_pattern(self, h):
        assert matches(MatchPattern.exact_for(h), h)

    def test_single_mismatch(self):
        p = MatchPattern.from_fields(nw_src=1)
        assert not matches(p, Header.from_fields(nw_src=2))

    def test_pattern_width_checked(self):
        with pytest.raises(WidthOverflowError):
            MatchPattern.from_fields(nw_tos=64)

    def test_from_fields_goes_through_from_mapping(self):
        p = MatchPattern.from_fields(nw_src=1, tp_dst=80)
        assert p == MatchPattern.from_mapping({"tp_dst": 80, "nw_src": 1})
        assert p.entries == (None,) * 6 + (1,) + (None,) * 4 + (80,)
        assert MatchPattern.from_fields() == MatchPattern.wildcard()
        with pytest.raises(UnknownFieldError, match="^unknown field 'nw_srcc'$"):
            MatchPattern.from_fields(nw_srcc=1)

    def test_from_mapping_agrees_with_the_constructor(self):
        # The mapping constructor tests only the named values; it builds
        # and fails exactly as the constructor's check on all twelve does,
        # a None standing for a wildcard in both.
        rng = random.Random(131)
        names = [f.name for f in FIELDS]
        seen = set()
        for _ in range(3000):
            fields = {}
            for name in rng.sample(names, rng.randint(0, 4)):
                bound = 1 << FIELDS[names.index(name)].width
                fields[name] = rng.choice(
                    (True, False, 1.0, 2.5, None, -1, bound, bound - 1, 0, 2**64,
                     rng.randrange(bound)))
            entries = tuple(fields.get(name) for name in names)
            try:
                expected = MatchPattern(entries)
            except InvalidRuleError as exc:
                with pytest.raises(InvalidRuleError) as got:
                    MatchPattern.from_mapping(fields)
                assert (type(got.value), got.value.args) == (type(exc), exc.args)
                seen.add(exc.reason.split()[-1] if exc.width is None else "range")
            else:
                got = MatchPattern.from_mapping(fields)
                assert got == expected and got.entries == expected.entries
                assert hash(got) == hash(expected)
                seen.add("wildcard" if None in fields.values() else "valid")
        assert seen == {"bool", "float", "range", "wildcard", "valid"}

    def test_from_mapping_reports_an_unknown_name_then_the_first_bad_field(self):
        with pytest.raises(UnknownFieldError, match="^unknown field 'nw_srcc'$"):
            MatchPattern.from_mapping({"nw_src": -1, "nw_srcc": 1})
        # Two bad fields: the first in field order, not in mapping order.
        with pytest.raises(WidthOverflowError, match="^nw_src=-1 exceeds 32-bit range$"):
            MatchPattern.from_mapping({"tp_dst": 1 << 16, "nw_src": -1})
        with pytest.raises(InvalidRuleError, match="^in_port must be an int, got float$"):
            MatchPattern.from_mapping({"dl_vlan": True, "in_port": 0.5})

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_pattern_entries_are_real_ints(self, value):
        # True equals and hashes as 1, yet must not stand in for it
        with pytest.raises(InvalidRuleError,
                           match=f"in_port must be an int, got {type(value).__name__}"):
            MatchPattern((value,) + (None,) * (FIELD_COUNT - 1))


def test_src_and_dest_projections():
    h = Header.from_fields(nw_src=11, nw_dst=22)
    assert src_of(h) == 11
    assert dest_of(h) == 22
    zero = make_header((0,) * 12)
    assert src_of(zero) == 0
