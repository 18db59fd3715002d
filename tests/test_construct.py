"""Tangle builder wiring, checked against a transfer-matrix oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    CATALOG_QUOTIENTS, TangleOracle, emit_labelled, rational_bracket,
    tangle_links,
)
from skeinkit.construct import (
    TangleBuilder, rational_knot, rational_tangle, twist_closure, with_kink,
)
from skeinkit.diagram import analyze, catalog_lookup, writhe
from skeinkit.errors import PDError
from skeinkit.jones import bracket
from skeinkit.poly import LaurentPoly, monomial
from skeinkit.quantum import delta

A3 = monomial(-1, 3)      # weight of an added positive kink
A3INV = monomial(-1, -3)


def test_closed_elementary_tangles():
    assert bracket(TangleBuilder.zero().numerator_close()) == delta(1) ** 2
    assert bracket(TangleBuilder.zero().denominator_close()) == delta(1)
    assert bracket(TangleBuilder.infinity().numerator_close()) == delta(1)
    assert bracket(TangleBuilder.infinity().denominator_close()) \
        == delta(1) ** 2


def test_single_kink_values():
    assert bracket(twist_closure(1, hand=0)) \
        == LaurentPoly.from_dict({1: 1, 5: 1})
    assert bracket(twist_closure(1, hand=1)) \
        == LaurentPoly.from_dict({-5: 1, -1: 1})


def test_twist_closure_matches_oracle():
    for hand in (0, 1):
        t = TangleOracle.zero()
        for m in range(1, 6):
            t = t.twist_right(hand)
            assert bracket(twist_closure(m, hand)) == t.numerator_bracket()


def test_rotate_swaps_closures():
    t = rational_tangle([3, 2], 0)
    assert bracket(t.rotate().numerator_close()) \
        == bracket(rational_tangle([3, 2], 0).denominator_close())


def test_catalog_presentations_reproduce_entries():
    for name, (quotients, hand) in CATALOG_QUOTIENTS.items():
        assert rational_knot(quotients, hand) == catalog_lookup(name), name


def test_rational_knot_rejects_bad_quotients():
    for bad in ([], [3, 0, 2], [3, -1]):
        with pytest.raises(PDError):
            rational_tangle(bad, 0)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.integers(0, 1))
def test_rational_bracket_matches_oracle(quotients, hand):
    got = bracket(rational_knot(quotients, hand))
    assert got == rational_bracket(quotients, hand)


@settings(max_examples=300)
@given(st.sampled_from(["zero", "infinity"]),
       st.lists(st.tuples(st.sampled_from(
           ["twist_right", "twist_bottom", "rotate"]), st.integers(0, 1)),
           max_size=12),
       st.integers(0, 2))
def test_tangle_labels_match_junction_graph(start, moves, extra):
    t = getattr(TangleBuilder, start)()
    for move, hand in moves:
        if move == "rotate":
            t.rotate()
        else:
            getattr(t, move)(hand)
    for close in ("numerator", "denominator"):
        links = tangle_links(start, moves, close, extra)
        assert getattr(t, close + "_close")(extra) \
            == emit_labelled(*links)[0], (start, moves, close)


def test_twists_reject_a_bad_hand():
    for twist in (TangleBuilder.twist_right, TangleBuilder.twist_bottom):
        with pytest.raises(PDError, match="hand must be 0 or 1"):
            twist(TangleBuilder.zero(), 2)


def test_with_kink_scales_bracket():
    for name in ("3_1", "6_2"):
        pd = catalog_lookup(name)
        base = bracket(pd)
        w = writhe(pd)
        arcs = sorted({a for x in pd.crossings for a in x})
        for arc in arcs[:4]:
            plus = with_kink(pd, arc, positive=True)
            minus = with_kink(pd, arc, positive=False)
            assert bracket(plus) == A3 * base
            assert bracket(minus) == A3INV * base
            assert writhe(plus) == w + 1
            assert writhe(minus) == w - 1
            analyze(plus)


def test_with_kink_rejects_unknown_arc():
    with pytest.raises(PDError, match="no arc 99"):
        with_kink(catalog_lookup("3_1"), 99)
