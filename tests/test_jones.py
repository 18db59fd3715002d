"""Bracket evaluators, pattern expansion, and the colored invariants."""

import itertools
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    CORPUS_JONES, PLANAR, braid_closure, divide_from_top, kinked,
    with_circles,
)
from skeinkit import _sweep_py
from skeinkit.construct import rational_knot, twist_closure, with_kink
from skeinkit._sweep_py import replay_circles
from skeinkit.diagram import (
    PDCode, adequacy, analyze, apply_state, cable_multi,
    catalog_lookup, catalog_names, format_pd, genus, mirror, parse_pd,
    plan_sweep, writhe,
)
from skeinkit.errors import Budget, BudgetError
from skeinkit.jones import (
    _cables, _long_knot, _swept, bracket, brute_force_bracket,
    chebyshev_coefficients, colored_bracket, jones_polynomial,
    reduced_colored, reduced_colored_top, unreduced_colored,
)
from skeinkit.poly import LaurentPoly, ONE, ZERO, to_q
from skeinkit.quantum import delta, gamma


def test_bracket_trivial_diagrams():
    assert bracket(PDCode()) == ONE
    assert bracket(parse_pd("O")) == delta(1)
    assert bracket(parse_pd("O O O")) == delta(1) ** 3


def test_sweep_matches_brute_force_on_catalog():
    for name in catalog_names():
        pd = catalog_lookup(name)
        assert bracket(pd) == brute_force_bracket(pd), name


def test_bracket_support_parity():
    for name in ("3_1", "4_1", "6_2"):
        pd = catalog_lookup(name)
        parity = len(pd.crossings) % 2
        assert all((e - parity) % 2 == 0
                   for e, _ in bracket(pd).terms), name


def test_bracket_of_mirror_is_mirrored_bracket():
    for name in catalog_names():
        pd = catalog_lookup(name)
        assert bracket(mirror(pd)) == bracket(pd).mirror(), name


@settings(max_examples=40)
@given(st.integers(2, 3),
       st.lists(st.integers(-2, 2).filter(lambda g: g != 0),
                min_size=1, max_size=6))
def test_sweep_matches_brute_force_on_braids(width, word):
    word = [g if abs(g) < width else (width - 1) * (1 if g > 0 else -1)
            for g in word]
    pd = braid_closure(width, word)
    assert bracket(pd) == brute_force_bracket(pd)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4)
       .filter(lambda q: sum(q) <= 10),
       st.integers(0, 1), st.booleans(),
       st.none() | st.tuples(st.integers(0, 19), st.booleans()))
def test_sweep_matches_brute_force_on_generated_two_bridge(
        quotients, hand, mirrored, kink):
    # 1-10 crossings; a kink closes a loop in the step that inserts it
    pd = rational_knot(quotients, hand)
    if kink is not None:
        arcs = sorted(analyze(pd).arc_ports)
        pd = with_kink(pd, arcs[kink[0] % len(arcs)], kink[1])
    if mirrored:
        pd = mirror(pd)
    assert bracket(pd) == brute_force_bracket(pd)


# knots of at most 3 crossings, and two-component links
SMALL_KNOTS = ([1], [3], [2, 1], [1, 2], [1, 1, 1])
SMALL_LINKS = ([2], [1, 1], [4], [1, 3])


@settings(max_examples=40)
@given(st.one_of(
    st.tuples(st.sampled_from(SMALL_KNOTS), st.integers(0, 1),
              st.integers(2, 3).map(lambda r: (r,))),
    st.tuples(st.sampled_from(SMALL_LINKS), st.integers(0, 1),
              st.tuples(st.integers(1, 3), st.integers(1, 3))
              .filter(lambda m: m[0] != m[1]))))
def test_sweep_matches_brute_force_on_cables(case):
    # states of one step arrive with different bases and lengths
    quotients, hand, mults = case
    pd = cable_multi(rational_knot(quotients, hand), mults)
    assume(len(pd.crossings) <= 12)
    assert bracket(pd) == brute_force_bracket(pd)


def test_replay_certifies_plan_wiring():
    pd = catalog_lookup("6_2")
    plan = plan_sweep(pd)
    for bits in range(64):
        state = ["AB"[(bits >> i) & 1] for i in range(6)]
        branches = [state[c] for c in plan.order]
        assert replay_circles(plan.program, branches) \
            == apply_state(pd, state).count


def test_bracket_width_budget():
    pd = catalog_lookup("6_2")
    with pytest.raises(BudgetError):
        bracket(pd, budget=Budget(max_width=2))
    width = plan_sweep(pd).max_width
    assert bracket(pd, budget=Budget(max_width=width)) \
        == brute_force_bracket(pd)
    with pytest.raises(BudgetError) as exc:
        bracket(pd, budget=Budget(max_width=width - 1))
    assert str(exc.value) == (
        f"budget 'max_width' exceeded (limit {width - 1}, needed {width}): "
        "try another crossing order")


@pytest.mark.parametrize("name, value", [
    ("SKEINKIT_MAX_WIDTH", "2"), ("SKEINKIT_KERNEL", "c"),
    ("SKEINKIT_KERNEL", "fortran"), ("SKEINKIT_TIME_LIMIT", "0.001"),
])
def test_library_ignores_environment(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert bracket(catalog_lookup("6_2")) == brute_force_bracket(
        catalog_lookup("6_2"))


def test_width_budget_enforced_after_cache_is_warm():
    pd = catalog_lookup("6_2")
    reduced_colored(pd, 3)
    with pytest.raises(BudgetError):
        reduced_colored(pd, 3, budget=Budget(max_width=2))


def test_deadline_trips_inside_the_long_knot_sweep(sweep_trips):
    # the library gets the CLI's time limit: the sweep of the cut 7-cable
    # of 6_2 runs for seconds, and stops at its next step once the
    # deadline has passed
    with pytest.raises(BudgetError) as exc:
        colored_bracket(catalog_lookup("6_2"), 7,
                        budget=Budget(deadline=time.monotonic() + 0.3))
    assert exc.value.budget == "time_limit"
    assert sweep_trips == [("time_limit", False, True)]


def test_chebyshev_small_patterns():
    assert chebyshev_coefficients(0) == ((0, 1),)
    assert chebyshev_coefficients(1) == ((1, 1),)
    assert chebyshev_coefficients(2) == ((0, -1), (2, 1))
    assert chebyshev_coefficients(3) == ((1, -2), (3, 1))
    assert chebyshev_coefficients(4) == ((0, 1), (2, -3), (4, 1))


@given(st.integers(2, 12))
def test_chebyshev_recursion_and_parity(n):
    cur = dict(chebyshev_coefficients(n))
    prev = dict(chebyshev_coefficients(n - 1))
    prev2 = dict(chebyshev_coefficients(n - 2))
    for m in range(n + 1):
        assert cur.get(m, 0) == prev.get(m - 1, 0) - prev2.get(m, 0)
    assert all(m % 2 == n % 2 for m in cur)
    assert cur[n] == 1


def test_colored_bracket_of_unknot_is_loop_value():
    pd = catalog_lookup("unknot")
    for n in range(5):
        assert colored_bracket(pd, n) == delta(n)


def test_colored_bracket_color_one_is_bracket():
    # 4_1 and the virtual trefoil
    for pd in (catalog_lookup("4_1"), PDCode(((1, 3, 2, 4), (2, 4, 3, 1)))):
        assert colored_bracket(pd, 1) == bracket(pd)


@settings(max_examples=40)
@given(PLANAR)
def test_colored_bracket_color_one_is_bracket_on_generated(pd):
    # the cable with every multiplicity 1 is the diagram itself
    assert colored_bracket(pd, 1) == bracket(pd)


def test_unreduced_and_reduced_normalization():
    pd = catalog_lookup("unknot")
    for dim in (1, 2, 3, 4):
        assert unreduced_colored(pd, dim) == delta(dim - 1)
        assert reduced_colored(pd, dim) == ONE
    # color dimension 1 is the trivial invariant for every knot
    assert reduced_colored(catalog_lookup("6_2"), 1) == ONE


def test_corpus_jones_values():
    for name, table in CORPUS_JONES.items():
        want = LaurentPoly.from_dict(table)
        got = jones_polynomial(catalog_lookup(name))
        assert got == want or got.mirror() == want, name


def test_six_two_jones_row():
    v = to_q(jones_polynomial(catalog_lookup("6_2")))
    assert v.shift_halves == -10 and v.step_halves == 2
    assert v.coeffs == (1, -2, 2, -2, 2, -1, 1)


def test_jones_is_reduced_two_color():
    pd = catalog_lookup("5_2")
    assert jones_polynomial(pd) == reduced_colored(pd, 2)


def test_kink_invariance_of_jones():
    # Reidemeister I: the framing correction cancels added kinks
    pd = catalog_lookup("3_1")
    v = jones_polynomial(pd)
    for positive in (True, False):
        assert jones_polynomial(with_kink(pd, 1, positive)) == v


def test_kink_invariance_at_higher_color():
    pd = catalog_lookup("3_1")
    v = reduced_colored(pd, 3)
    assert reduced_colored(with_kink(pd, 2, True), 3) == v


def test_invariance_across_presentations():
    # 3/2 is the mirror partner of 3/1; 5/2 is amphichiral
    left = jones_polynomial(rational_knot([1, 1, 1], 0))
    assert left == jones_polynomial(rational_knot([3], 1))
    fig8 = jones_polynomial(rational_knot([2, 2], 0))
    assert fig8 == jones_polynomial(rational_knot([2, 2], 1))


def test_two_component_link_colored():
    # (2,4) torus link: half-integer powers appear in the 2-color value
    pd = rational_knot([4], 0)
    q = to_q(reduced_colored(pd, 2))
    assert q.shift_halves % 2 == 1


def test_reduced_colored_top_is_the_full_top():
    # exact above the floor on every diagram, and holding `terms`
    # coefficients from the true top unless it is the whole invariant;
    # the certified top is that top wherever the diagram is A-adequate
    catalog = [catalog_lookup(n) for n in catalog_names()
               if catalog_lookup(n).crossings]
    others = [rational_knot([4], 0), rational_knot([1, 3], 1),
              parse_pd(format_pd(catalog_lookup("3_1")) + " O")]
    # 3_1_badequate is in the catalog; these braids are not adequate on
    # one side or, the last, on either
    others += [braid_closure(3, [1, 1, 1, -2]),
               braid_closure(3, [1, -2, -2, -2]),
               braid_closure(4, [1, 2, -3, 2])]
    assert not all(adequacy(pd).a_adequate for pd in catalog + others)
    # dimension 5, the cut 4-cable, on the catalog
    cases = [(pd, 5) for pd in catalog] + [(pd, 4) for pd in others]
    for pd, dims in cases + [(mirror(pd), dims) for pd, dims in cases]:
        for dim in range(1, dims + 1):
            full = reduced_colored(pd, dim)
            for terms in (1, 3, 5):
                top, floor = reduced_colored_top(pd, dim, terms)
                if floor is None:
                    # the whole invariant, and said so
                    assert top == full, (dim, terms)
                    continue
                assert dim > 2, (dim, terms)
                assert top == LaurentPoly(tuple(
                    t for t in full.terms if t[0] >= floor)), (dim, terms)
                assert top.max_degree() == full.max_degree()
                assert floor <= full.max_degree() - 4 * (terms - 1) \
                    or top == full, (dim, terms)
                if adequacy(pd).a_adequate:
                    # the certified top is the true top: no descent
                    assert floor == full.max_degree() - 4 * (terms - 1) \
                        or top == full, (dim, terms)
    # no cut, no window: below color 3, with no crossings, not planar
    virtual = parse_pd("X[1,3,2,4] X[2,4,3,1]")
    assert genus(virtual) == 1
    for pd, dims in [(catalog_lookup("unknot"), 4), (virtual, 3)]:
        for dim in range(1, dims + 1):
            for terms in (1, 3):
                top, floor = reduced_colored_top(pd, dim, terms)
                assert floor is None and top == reduced_colored(pd, dim)


# --- the long-knot sweep against the Chebyshev cable sum -----------------

def _cable_sum(pd, n):
    """The colored bracket as the Chebyshev sum over whole cables."""
    return sum((w * bracket(c) for w, c in _cables(pd, n)), ZERO)


@settings(max_examples=200)
@given(PLANAR, st.booleans(), st.integers(1, 4))
def test_long_knot_matches_cables_on_generated(pd, mirrored, color):
    if mirrored:
        pd = mirror(pd)
    n = color - 1
    assume(len(pd.crossings) * n * n <= 60)
    assert genus(pd) == 0
    assert colored_bracket(pd, n) == _cable_sum(pd, n)


def test_long_knot_covers_every_diagram_kind():
    # each kind the generated test draws, pinned once at color 3
    cases = [rational_knot([2, 1], 1), rational_knot([4], 0),
             rational_knot([1, 2, 1], 0), twist_closure(1),
             twist_closure(2, 1), kinked([3], 0, 2, False),
             braid_closure(3, [1, -2, 1, -2]), braid_closure(4, [1, -3, 2]),
             braid_closure(4, [-3, -1, 3]),
             with_circles(rational_knot([3], 0), 2)]
    assert {analyze(pd).total_components for pd in cases} >= {1, 2, 3}
    for pd in cases + [mirror(pd) for pd in cases]:
        assert colored_bracket(pd, 2) == _cable_sum(pd, 2), format_pd(pd)


def test_long_knot_matches_cables_on_catalog():
    for name in catalog_names():
        pd = catalog_lookup(name)
        for d in (pd, mirror(pd)) if pd.crossings else (pd,):
            for color in range(1, 5):
                n = color - 1
                assert colored_bracket(d, n) == _cable_sum(d, n), (name, n)


def _cable_window(pd, color_dim, floor):
    """The terms >= floor of the reduced invariant from the closed
    cables: the Chebyshev sum of their windowed sweeps, times the frame,
    divided by the colored unknot from the top."""
    n = color_dim - 1
    frame = gamma(n, n, 0) ** (-writhe(pd))
    # the dividend's terms >= floor + 2n decide the quotient's >= floor
    low = floor + 2 * n - frame.max_degree()
    total = sum((w * _swept(c, low, Budget()) for w, c in _cables(pd, n)),
                ZERO)
    return divide_from_top(frame * total, delta(n), floor)


def test_long_knot_ends_match_cable_windows_at_colors_five_and_six():
    # the full cable sums are out of tier-1's reach here, so compare
    # both ends with windowed sweeps of the closed cables, and the mirror
    # rule
    for name in catalog_names():
        pd = catalog_lookup(name)
        if not pd.crossings:
            continue
        for color in (5, 6):
            full = reduced_colored(pd, color)
            assert reduced_colored(mirror(pd), color) == full.mirror()
            for d, p in ((pd, full), (mirror(pd), full.mirror())):
                top, floor = reduced_colored_top(d, color, 3)
                assert top == LaurentPoly(tuple(
                    t for t in p.terms if t[0] >= floor)), (name, color)
                assert top == _cable_window(d, color, floor), (name, color)


def test_long_knot_prunes_the_six_two_sweep(monkeypatch):
    # the full sweep of the 4-cable peaks at 1,430 states
    pd = catalog_lookup("6_2")
    peak = [0]
    step = _sweep_py._step

    def counted(states, w0, closures):
        out = step(states, w0, closures)
        peak[0] = max(peak[0], len(out))
        return out

    monkeypatch.setattr(_sweep_py, "_step", counted)
    value = _long_knot(pd, 4, Budget())
    monkeypatch.undo()
    assert 0 < peak[0] <= 200
    assert value * delta(4) == colored_bracket(pd, 4)
