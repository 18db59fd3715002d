"""Bracket evaluators, pattern expansion, and the colored invariants."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import CORPUS_JONES, braid_closure
from skeinkit.construct import rational_knot, with_kink
from skeinkit.diagram import (
    PDCode, adequacy, analyze, apply_state, cable, cable_multi, catalog_lookup,
    catalog_names, format_pd, mirror, parse_pd, plan_sweep,
)
from skeinkit.errors import BudgetError
from skeinkit.jones import (
    bracket, brute_force_bracket, chebyshev_coefficients, colored_bracket,
    jones_polynomial, reduced_colored, reduced_colored_top, replay,
    unreduced_colored,
)
from skeinkit.poly import LaurentPoly, ONE, to_q
from skeinkit.quantum import delta


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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3),
       st.lists(st.integers(-2, 2).filter(lambda g: g != 0),
                min_size=1, max_size=6))
def test_sweep_matches_brute_force_on_braids(width, word):
    word = [g if abs(g) < width else (width - 1) * (1 if g > 0 else -1)
            for g in word]
    pd = braid_closure(width, word)
    assert bracket(pd) == brute_force_bracket(pd)


@settings(max_examples=60, deadline=None, derandomize=True)
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


@settings(max_examples=40, deadline=None, derandomize=True)
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
        assert replay(plan, state) == apply_state(pd, state).count


def test_bracket_width_budget():
    with pytest.raises(BudgetError):
        bracket(catalog_lookup("6_2"), max_width=2)


@pytest.mark.parametrize("name, value", [
    ("SKEINKIT_MAX_WIDTH", "2"), ("SKEINKIT_KERNEL", "c"),
    ("SKEINKIT_KERNEL", "fortran"),
])
def test_library_ignores_environment(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert bracket(catalog_lookup("6_2")) == brute_force_bracket(
        catalog_lookup("6_2"))


def test_width_budget_enforced_after_cache_is_warm():
    pd = catalog_lookup("6_2")
    reduced_colored(pd, 3)
    with pytest.raises(BudgetError):
        reduced_colored(pd, 3, max_width=2)


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
    pd = catalog_lookup("4_1")
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
    lo, coeffs = v.q_coeffs()
    assert (lo, coeffs) == (-5, [1, -2, 2, -2, 2, -1, 1])


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
    assert q.min_halfq % 2 == 1


def test_reduced_colored_top_is_the_full_top():
    # exact above the floor on every diagram; the certified top is
    # reached wherever the diagram is A-adequate
    cases = [catalog_lookup(n) for n in catalog_names()
             if catalog_lookup(n).crossings]
    cases += [rational_knot([4], 0), rational_knot([1, 3], 1),
              parse_pd(format_pd(catalog_lookup("3_1")) + " O")]
    for pd in cases + [mirror(pd) for pd in cases]:
        for dim in (1, 2, 3, 4):
            full = reduced_colored(pd, dim)
            for terms in (1, 3, 5):
                top, floor = reduced_colored_top(pd, dim, terms)
                assert top == LaurentPoly(tuple(
                    t for t in full.terms if t[0] >= floor)), (dim, terms)
                if adequacy(pd).a_adequate:
                    assert top.max_degree() == floor + 4 * (terms - 1)
