"""PD parsing, orientation/writhe analysis, smoothing states, cables."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import PLANAR, braid_closure, greedy_plan, linked_cable
from skeinkit.diagram import (
    PDCode, _label, adequacy, all_a, all_b, analyze, apply_state, cable,
    cable_multi, catalog_lookup, catalog_names, format_pd, genus,
    mirror, parse_pd, plan_sweep, writhe,
)
from skeinkit.errors import InternalError, PDError

TREFOIL = "X[6,4,1,3] X[4,2,5,1] X[2,6,3,5]"


def test_parse_format_round_trip():
    pd = parse_pd(TREFOIL)
    assert len(pd) == 3
    assert parse_pd(format_pd(pd)) == pd


def test_parse_accepts_commas_between_tokens():
    a = parse_pd("X[6,4,1,3], X[4, 2, 5, 1] ,\nX[2,6,3,5]  # trefoil")
    assert a == parse_pd(TREFOIL)


def test_parse_unknot_token():
    pd = parse_pd("O")
    assert len(pd.crossings) == 0 and pd.extra_circles == 1


def test_parse_rejects_garbage():
    for bad in ("X[1,2,3]", "X[1,2,3,4,5]", "Y[1,2,3,4]",
                "X[1,2,3,x]", "x[6,4,1,3]"):
        with pytest.raises(PDError):
            parse_pd(bad)


def test_extra_circles_must_be_nonnegative():
    with pytest.raises(PDError):
        PDCode((), extra_circles=-1)


def test_analyze_rejects_unbalanced_arcs():
    # arc 1 appears four times, arc 9 never closes
    with pytest.raises(PDError):
        analyze(parse_pd("X[1,1,1,1]"))
    with pytest.raises(PDError):
        analyze(parse_pd("X[9,4,1,3] X[4,2,5,1] X[2,6,3,5]"))


@pytest.mark.parametrize("crossings, message", [
    ((), "empty diagram: no crossings and no circles"),
    (((1, 1, 1, 1),), "arc 1 appears 4 times; every arc label must occur "
                      "exactly twice"),
    (((3, 1, 1, 2), (3, 2, 4, 4)), "component containing arc 1 has "
     "non-consecutive labels [1, 2, 3, 4] along the strand"),
    (((2, 1, 1, 4), (2, 4, 3, 3)), "component containing arc 1: labels "
     "orient the strand against an under-crossing entry"),
    (((1, 4, 2, 4), (1, 3, 2, 3)), "component containing arc 1: no "
     "orientation enters all its under-crossings at the first position"),
])
def test_analyze_names_each_fault(crossings, message):
    with pytest.raises(PDError, match=f"^{re.escape(message)}$"):
        analyze(PDCode(crossings))


def test_only_the_walk_orients_a_two_arc_over_strand():
    # the planar two-crossing unlink: the over component (arcs 3, 4)
    # passes under nothing, so its labels fit either direction and no
    # under-entry anchors it; flipping it would flip both signs, which
    # writhe cannot see
    info = analyze(parse_pd("X[1,3,2,4] X[2,3,1,4]"))
    assert info.components == ((1, 2), (3, 4))
    assert info.signs == (-1, 1)


def test_trefoil_structure():
    info = analyze(parse_pd(TREFOIL))
    assert info.writhe == 3
    assert info.signs == (1, 1, 1)
    assert len(info.components) == 1
    assert info.total_components == 1


def test_hopf_link_components():
    info = analyze(parse_pd("X[4,1,3,2] X[2,3,1,4]"))
    assert len(info.components) == 2


def test_writhe_catalog_values():
    expected = {"unknot": 0, "3_1": 3, "4_1": 0, "5_2": -5,
                "6_1": -2, "6_2": -2, "6_3": 0, "3_1_badequate": -4}
    for name, w in expected.items():
        assert writhe(catalog_lookup(name)) == w, name


def test_mirror_negates_writhe():
    for name in catalog_names():
        pd = catalog_lookup(name)
        assert writhe(mirror(pd)) == -writhe(pd)
        assert mirror(mirror(pd)) == pd


def test_apply_state_circle_counts():
    # positive trefoil: the all-A state traces 2 circles, all-B traces 3
    pd = parse_pd(TREFOIL)
    assert apply_state(pd, all_a(pd)).count == 2
    assert apply_state(pd, all_b(pd)).count == 3
    # one flip away from all-A merges or splits by exactly one circle
    for i in range(3):
        s = list(all_a(pd))
        s[i] = "B"
        assert abs(apply_state(pd, s).count - 2) == 1


def test_apply_state_validates_state_string():
    pd = parse_pd(TREFOIL)
    with pytest.raises(PDError):
        apply_state(pd, "AA")
    with pytest.raises(PDError):
        apply_state(pd, "AXB")


def test_alternating_circle_count_identity():
    # reduced alternating diagrams: all-A plus all-B circles = n + 2
    for name in ("3_1", "4_1", "5_2", "6_1", "6_2", "6_3"):
        pd = catalog_lookup(name)
        rep = adequacy(pd)
        assert rep.a_circles + rep.b_circles == len(pd) + 2, name


def test_adequacy_flags():
    for name in ("3_1", "4_1", "5_2", "6_1", "6_2", "6_3"):
        rep = adequacy(catalog_lookup(name))
        assert rep.a_adequate and rep.b_adequate, name
    rep = adequacy(catalog_lookup("3_1_badequate"))
    assert (rep.a_adequate, rep.b_adequate) == (False, True)


def test_state_graph_loops_pin_inadequacy():
    pd = catalog_lookup("3_1_badequate")
    # a loop: a crossing whose two smoothing strands lie on one circle
    assert any(u == v for u, v in apply_state(pd, all_a(pd)).crossing_strands)
    assert all(u != v for u, v in apply_state(pd, all_b(pd)).crossing_strands)


def test_cable_sizes():
    pd = parse_pd(TREFOIL)
    for r in (1, 2, 3):
        c = cable(pd, r)
        assert len(c.crossings) == r * r * len(pd.crossings)
        analyze(c)  # stays a valid oriented diagram
    assert cable(pd, 1) == pd


def test_cable_of_unknot():
    pd = catalog_lookup("unknot")
    assert cable(pd, 3).extra_circles == 3


def test_plan_sweep_width_and_budget():
    pd = catalog_lookup("6_2")
    plan = plan_sweep(pd)
    assert plan.max_width <= 6
    assert sorted(plan.order) == list(range(6))


def test_plan_sweep_rejects_a_cut_label_that_is_not_an_arc():
    pd = catalog_lookup("3_1")
    with pytest.raises(PDError, match="cannot cut 99"):
        plan_sweep(pd, cut=[99])
    with pytest.raises(PDError, match="cannot cut 0"):
        plan_sweep(pd, cut=[1, 0])
    assert plan_sweep(pd, cut=[6]).identity


def test_label_rejects_wiring_that_does_not_pair_the_ports():
    # ports 4..7 lead to -1, where the walk from port 4 would spin
    # forever; a port past the end, or wired to a port that is wired
    # elsewhere, is as bad
    for glue in ([1, 0, 3, 2, -1, -1, -1, -1], [1, 0, 3, 2, 5, 4, 7, 8],
                 [1, 2, 3, 0]):
        with pytest.raises(InternalError, match="does not pair the ports"):
            _label(glue, 0)


def test_plan_sweep_respects_explicit_order():
    pd = parse_pd(TREFOIL)
    plan = plan_sweep(pd, order=[2, 0, 1])
    assert plan.order == (2, 0, 1)


@given(st.integers(0, 2 ** 6 - 1))
def test_state_circle_bound(mask):
    # every smoothing of a 6-crossing diagram has between 1 and n+1 circles
    pd = catalog_lookup("6_2")
    state = ["AB"[(mask >> i) & 1] for i in range(6)]
    count = apply_state(pd, state).count
    assert 1 <= count <= len(pd) + 1


def test_genus_of_planar_and_virtual_codes():
    for name in catalog_names():
        pd = catalog_lookup(name)
        assert genus(pd) == 0, name
        if pd.crossings:
            assert genus(cable(pd, 2)) == 0 == genus(mirror(pd)), name
    # two split trefoils, and a kink next to a circle
    assert genus(parse_pd(TREFOIL + " X[16,14,11,13] X[14,12,15,11] "
                                    "X[12,16,13,15]")) == 0
    assert genus(parse_pd("X[1,1,2,2] O")) == 0
    # the virtual trefoil: two crossings with no planar drawing
    assert genus(PDCode(((1, 3, 2, 4), (2, 4, 3, 1)))) == 1


# --- the planner and the cable builder against their earlier forms -------

VIRTUAL_TREFOIL = PDCode(((1, 3, 2, 4), (2, 4, 3, 1)))


def _same_plans(pd, cut=()):
    """The greedy plan and the plan of the reversed order of pd, cut at
    ``cut``, equal those of the rescoring oracle."""
    plan = plan_sweep(pd, cut=cut)
    assert plan == greedy_plan(pd, cut=cut), (format_pd(pd), cut)
    back = plan.order[::-1]
    assert plan_sweep(pd, order=back, cut=cut) \
        == greedy_plan(pd, order=back, cut=cut), (format_pd(pd), cut)


@settings(max_examples=40)
@given(PLANAR)
def test_plans_match_rescoring_greedy_on_generated(pd):
    _same_plans(pd)
    for arc in analyze(pd).arc_ports:
        _same_plans(pd, [arc])
    k = analyze(pd).total_components
    for n in (2, 3):
        copies = {}
        cabled = cable_multi(pd, [n] * k, copies)
        _same_plans(cabled)
        for arc, cut in copies.items():
            if cut is not None:
                _same_plans(cabled, cut)


def _same_cables(pd, mults):
    """cable_multi and its copies equal the junction-graph cable; the
    all-ones cable is pd itself."""
    copies = {}
    cabled = cable_multi(pd, mults, copies)
    if all(m == 1 for m in mults):
        assert cabled is pd
        assert copies == {a: (a,) for a in analyze(pd).arc_ports}
        return
    assert (cabled, copies) == linked_cable(pd, mults), (format_pd(pd), mults)


@settings(max_examples=100)
@given(PLANAR, st.data())
def test_cables_match_junction_graph_on_generated(pd, data):
    k = analyze(pd).total_components
    _same_cables(pd, data.draw(st.lists(st.integers(0, 3), min_size=k,
                                        max_size=k)))


@pytest.mark.parametrize("pd", [
    VIRTUAL_TREFOIL,
    parse_pd("X[4,1,3,2] X[2,3,1,4]"),
    parse_pd("X[1,1,2,2] O"),
    parse_pd(TREFOIL + " X[16,14,11,13] X[14,12,15,11] X[12,16,13,15]"),
    braid_closure(4, [1, 1, -2, -2]),
    catalog_lookup("3_1_badequate"),
    mirror(catalog_lookup("6_2")),
], ids=["virtual_trefoil", "hopf_link", "kink_and_circle", "split_trefoils",
        "braid_link_and_circle", "3_1_badequate", "6_2_mirror"])
def test_cables_match_junction_graph_at_every_multiplicity(pd):
    k = analyze(pd).total_components
    for mults in itertools.product(range(4), repeat=k):
        _same_cables(pd, list(mults))
    _same_plans(pd)
