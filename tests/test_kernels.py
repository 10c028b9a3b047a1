"""Slot arithmetic: modular translation and zero-diagonal composition.

The headers and actions modules share one arithmetic path, each over its
own masks; these cases pin its wrap-around and its handling of a zero
diagonal on single slots.
"""

from flowspace.actions import PORT_SLOT, compose, drop, forward
from flowspace.headers import Header, HeaderDelta, translate_header


class TestPureSemantics:
    def test_translate(self):
        h = Header.from_fields(nw_proto=250)
        d = HeaderDelta.single("nw_proto", 10)
        assert translate_header(h, d).field("nw_proto") == 4

    def test_compose_zero_diagonal_keeps_second_translation(self):
        a = compose(forward(5), drop())
        assert a.linear[PORT_SLOT] == 0 and a.translation[PORT_SLOT] == 5
