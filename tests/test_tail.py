"""Series normalization, order-n agreement, and stable coefficients."""

import functools
import signal

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    SIX_TWO_HEAD_3, SIX_TWO_ROWS, SIX_TWO_TAIL_5, TORUS_3_4_WORD,
    braid_closure,
)
from skeinkit import jones, tail
from skeinkit.construct import rational_knot
from skeinkit.diagram import (
    adequacy, catalog_lookup, catalog_names, format_pd, genus, mirror,
    parse_pd, writhe,
)
from skeinkit.errors import Budget, InternalError, StabilizationError
from skeinkit.jones import colored_bracket, reduced_colored
from skeinkit.poly import ONE, ZERO, LaurentPoly, exact_divide, monomial
from skeinkit.quantum import delta, gamma
from skeinkit.tail import (
    QSeries, dot_eq, normalize, stabilization_check, tail_extract,
)

# q^k is A^(-4k); build test polynomials straight from q-tables


def qpoly(table):
    return LaurentPoly.from_dict({-4 * e: c for e, c in table.items()})


def test_normalize_strips_sign_and_shift():
    s = normalize(qpoly({-3: -1, -2: 2, 0: -1}))
    assert s.sign == -1
    assert s.shift_halves == -6
    assert s.step_halves == 2
    assert s.coeffs == (1, -2, 0, 1)


def test_normalize_keeps_half_steps():
    # A^2 + 1 = q^(-1/2) + 1 steps in halves
    s = normalize(LaurentPoly.from_dict({2: 1, 0: 1}))
    assert (s.sign, s.shift_halves, s.step_halves) == (1, -1, 1)
    assert s.coeffs == (1, 1)


def test_normalize_leading_coefficient_positive():
    for table in ({0: 1, 1: 5}, {2: -3, 4: 1}, {-1: -1}):
        s = normalize(qpoly(table))
        assert s.coeffs[0] > 0


def test_normalize_rejects_zero():
    with pytest.raises(ValueError, match="zero polynomial"):
        normalize(ZERO)
    with pytest.raises(ValueError, match="zero polynomial"):
        dot_eq(ZERO, ONE, 2)


def test_series_coefficient_lookup():
    s = normalize(qpoly({0: 1, 2: -2}))
    assert [s.coefficient(i) for i in range(4)] == [1, 0, -2, 0]
    h = s.in_halves()
    assert h.step_halves == 1
    assert h.coeffs == (1, 0, 0, 0, -2)


def test_dot_eq_basic_window():
    p1 = qpoly({0: 1, 1: -1, 2: 1})
    p2 = qpoly({0: 1, 1: -1, 2: 5})
    assert dot_eq(p1, p2, 2) == (True, 2)
    assert dot_eq(p1, p2, 3) == (False, 2)
    assert dot_eq(p1, p1, 99) == (True, None)


def test_dot_eq_ignores_sign_and_power():
    p = qpoly({0: 1, 1: -2, 3: 7})
    scaled = monomial(-1, -12) * p       # times -q^3
    assert dot_eq(p, scaled, 99) == (True, None)


def test_dot_eq_mixed_steps_counts_halves():
    p1 = qpoly({0: 1, 1: 1})
    p2 = LaurentPoly.from_dict({0: 1, -2: 1})   # 1 + q^(1/2)
    ok, at = dot_eq(p1, p2, 1)
    assert (ok, at) == (False, 1)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=8),
       st.integers(0, 6))
def test_dot_eq_reflexive_under_normalization(coeffs, shift):
    if not any(coeffs):
        return
    p = qpoly({e + shift: c for e, c in enumerate(coeffs)})
    assert dot_eq(p, p, 50) == (True, None)


def test_tail_of_unknot_truncates():
    pd = catalog_lookup("unknot")
    assert tail_extract(pd, 1) == [1]
    assert tail_extract(pd, 4) == [1]


def test_tail_arguments_validated():
    pd = catalog_lookup("unknot")
    with pytest.raises(ValueError):
        tail_extract(pd, 0)
    with pytest.raises(ValueError):
        tail_extract(pd, 2, side="front")


def test_tail_prefix_consistency():
    # a knot, and two- and three-component links, on both sides: the
    # first K terms at K + 1 are the K terms at K, so a link's tail
    # lists whole powers of q whatever the parity of K
    for pd in (catalog_lookup("3_1"), rational_knot([4], 0),
               rational_knot([6], 0), rational_knot([1, 3], 0),
               rational_knot([2, 2], 0), braid_closure(3, [1, -2] * 3)):
        for side in ("tail", "head"):
            prev = tail_extract(pd, 1, side)
            for k in (2, 3, 4, 5):
                cur = tail_extract(pd, k, side)
                assert cur[:k - 1] == prev, (format_pd(pd), side, k)
                prev = cur


def test_head_is_tail_of_mirror():
    pd = catalog_lookup("3_1")
    assert tail_extract(pd, 3, side="head") == tail_extract(mirror(pd), 3)


def test_six_two_stable_coefficients():
    pd = catalog_lookup("6_2")
    assert tail_extract(pd, 5) == SIX_TWO_TAIL_5
    assert tail_extract(pd, 3, side="head") == SIX_TWO_HEAD_3


def test_one_sided_diagram_fails_on_far_side():
    width, word = TORUS_3_4_WORD
    pd = braid_closure(width, word)
    assert tail_extract(pd, 2) == [1, 0]        # near side settles
    with pytest.raises(StabilizationError) as exc:
        tail_extract(pd, 2, side="head")
    assert exc.value.color == 2
    assert exc.value.mismatch_index == 1


def test_stabilization_check_report():
    rep = stabilization_check(catalog_lookup("3_1"), 4)
    assert rep.complete and rep.all_true
    assert [r.color for r in rep.records] == [2, 3]
    assert all(r.seconds >= 0 for r in rep.records)
    d = rep.as_dict()
    assert d["complete"] is True and len(d["records"]) == 2


def test_stabilization_check_requires_three_colors():
    with pytest.raises(ValueError):
        stabilization_check(catalog_lookup("3_1"), 2)


def test_stabilization_check_reports_budget_exhaustion():
    # an adequate diagram, and one whose window descends
    for pd in (rational_knot([5], 0), catalog_lookup("3_1_badequate")):
        rep = stabilization_check(pd, 5, budget=Budget(max_width=4))
        assert not rep.complete
        assert not rep.all_true


# The formulas of tail_extract and stabilization_check on the full
# polynomials, kept as the oracle of the windowed computation.  Both ask
# for the same (diagram, color) several times, so they share one memo.

full_reduced = functools.cache(reduced_colored)


def full_tail(pd, k, side="tail"):
    def at(n):
        p = full_reduced(pd, n)
        return p.mirror() if side == "head" else p

    ok, mismatch = dot_eq(at(k), at(k + 1), k)
    if not ok:
        raise StabilizationError(k, mismatch)
    return list(normalize(at(k)).coeffs[:k])


def full_stabilization(pd, n_max):
    records = []
    for n in range(2, n_max):
        ok, mismatch = dot_eq(full_reduced(pd, n),
                              full_reduced(pd, n + 1), n)
        records.append({"color": n, "verdict": ok, "mismatch": mismatch})
    return {"complete": True, "all_stable": all(r["verdict"]
                                                for r in records),
            "records": records}


def outcome(fn, *args):
    try:
        return fn(*args)
    except StabilizationError as exc:
        return ("unstable", exc.color, exc.mismatch_index)


def assert_same_as_full(pd, k_max=4, n_max=5):
    for side in ("tail", "head"):
        for k in range(1, k_max + 1):
            assert outcome(tail_extract, pd, k, side) == \
                outcome(full_tail, pd, k, side), (side, k)
    got = stabilization_check(pd, n_max).as_dict()
    for r in got["records"]:
        del r["seconds"]
    assert got == full_stabilization(pd, n_max)


def test_windowed_results_equal_full_on_catalog():
    # 3_1_badequate's A side (its tail) is not adequate, its B side is;
    # its mirror swaps them
    badequate = catalog_lookup("3_1_badequate")
    assert not adequacy(badequate).a_adequate
    assert adequacy(badequate).b_adequate
    for name in catalog_names():
        assert_same_as_full(catalog_lookup(name))
    assert_same_as_full(mirror(badequate))


@settings(max_examples=10)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3)
       .filter(lambda q: sum(q) <= 4), st.integers(0, 1))
def test_windowed_results_equal_full_on_two_bridge(quotients, hand):
    # knots and two-component links; a link may start at a half power of q
    assert_same_as_full(rational_knot(quotients, hand))


def test_windowed_results_equal_full_on_unknot_diagrams():
    # one-crossing diagrams: the whole series fits in every window
    for hand in (0, 1):
        assert_same_as_full(rational_knot([1], hand))


def test_two_component_links_step_in_whole_powers():
    # even color dimensions give a half-integer lowest power of q, and
    # whole steps of q once it is factored out
    for quotients in ([2], [4], [1, 3]):
        pd = rational_knot(quotients, 0)
        s = normalize(reduced_colored(pd, 4))
        assert s.shift_halves % 2 == 1 and s.step_halves == 2
        assert_same_as_full(pd)


@settings(max_examples=6)
@given(st.integers(3, 4),
       st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=4))
def test_windowed_results_equal_full_on_braid_closures(width, word):
    # mixed signs: a side that is not adequate descends from the
    # certified top, which it does not reach
    word = [g if abs(g) < width else (width - 1) * (1 if g > 0 else -1)
            for g in word]
    assume(min(word) < 0 < max(word))
    assume({abs(g) for g in word} == set(range(1, width)))
    assert_same_as_full(braid_closure(width, word))


def test_windowed_results_equal_full_on_split_diagrams():
    # a split circle pushes the first difference of J_N and J_N+1 far
    # past the N+1-term windows (to N^2 on the Hopf link): the
    # comparison widens until both windows hold it
    for base in (rational_knot([2], 0), catalog_lookup("3_1")):
        assert_same_as_full(parse_pd(format_pd(base) + " O"))


def test_windowed_unstable_side_keeps_color_and_mismatch():
    # the exit-4 witness: the head of this torus diagram is not adequate
    # and never settles; colors up to 4 keep the full oracle's
    # 72-crossing cables cheap
    width, word = TORUS_3_4_WORD
    pd = braid_closure(width, word)
    assert outcome(tail_extract, pd, 2, "head") == \
        outcome(full_tail, pd, 2, "head") == ("unstable", 2, 1)
    assert_same_as_full(pd, k_max=3, n_max=4)


def test_virtual_trefoil_keeps_the_full_path(monkeypatch):
    # genus 1: its exponents mix classes mod 4, so no window is taken;
    # from color 4 on its cabled invariant is not divisible at all
    pd = parse_pd("X[1,3,2,4] X[2,4,3,1]")
    assert genus(pd) == 1

    def no_window(*args, **kwargs):
        raise AssertionError("a non-planar code was windowed")

    monkeypatch.setattr(jones, "_long_knot", no_window)
    assert_same_as_full(pd, k_max=2, n_max=3)


def test_window_never_enters_the_colored_cache():
    pd = catalog_lookup("6_2")
    tail_extract(pd, 4)
    got = reduced_colored(pd, 5)
    row = SIX_TWO_ROWS[5]
    s = normalize(got)
    assert len(s.coeffs) - 1 == row["span"]
    assert list(s.coeffs[:len(row["prefix"])]) == row["prefix"]
    assert list(s.coeffs[row["suffix_at"]:]) == row["suffix"]
    # the same value, computed afresh
    frame = gamma(4, 4, 0) ** (-writhe(pd))
    assert got == exact_divide(frame * colored_bracket(pd, 4), delta(4))


def test_widening_that_does_not_grow_raises(monkeypatch):
    # every color answers with the same 2-term window, so the pair never
    # settles and each widening would hold no more than the last
    p = qpoly({0: 1, 1: -1})
    monkeypatch.setattr(tail, "reduced_colored_top",
                        lambda *args, **kwargs: (p, p.max_degree() - 4))

    def hang(signum, frame):
        raise TimeoutError("the widening did not stop")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(InternalError, match="colors 2 and 3 holds 2"):
            stabilization_check(catalog_lookup("3_1"), 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
