"""Planar matchings, their algebra, projectors, and closed networks."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bfs_word_lengths
from skeinkit.errors import AdmissibilityError, BudgetError, PDError
from skeinkit.poly import A, ONE, RationalFn
from skeinkit.quantum import delta, delta_factorial, theta
from skeinkit.tl import (
    Matching, PlanarNetwork, Port, TLElement, circle_network, compose,
    enumerate_matchings, hook, identity_replacement_degree, jones_wenzl,
    min_word_length, network_evaluate, partial_trace, theta_network,
    trace_network,
)

DELTA = RationalFn.of(delta(1))


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_matching_counts_are_catalan():
    for n in range(1, 7):
        ms = enumerate_matchings(n)
        assert len(ms) == catalan(n)
        assert len({m.paren_string() for m in ms}) == len(ms)


def test_identity_matching():
    m = Matching.identity(3)
    assert m.is_identity()
    assert sum(1 for x in enumerate_matchings(4) if x.is_identity()) == 1


def test_matching_validation():
    assert Matching(2, (2, 3, 0, 1)) == Matching.identity(2)
    with pytest.raises(Exception):
        Matching(2, (1, 0, 3, 3))       # not an involution
    with pytest.raises(Exception):
        Matching(2, (3, 2, 1, 0))       # chords cross inside the disc


def test_hook_relations():
    n = 4
    for i in range(1, n):
        sq, loops = compose(hook(n, i), hook(n, i))
        assert sq == hook(n, i) and loops == 1
    for i in range(1, n - 1):
        prod, l1 = compose(hook(n, i), hook(n, i + 1))
        back, l2 = compose(prod, hook(n, i))
        assert back == hook(n, i) and l1 == l2 == 0
    far, loops = compose(hook(4, 1), hook(4, 3))
    far2, loops2 = compose(hook(4, 3), hook(4, 1))
    assert far == far2 and loops == loops2 == 0


def test_element_algebra():
    n = 3
    one = TLElement.identity_element(n)
    h1 = TLElement.of_matching(hook(n, 1))
    h2 = TLElement.of_matching(hook(n, 2))
    assert one * h1 == h1 and h1 * one == h1
    assert h1 * h1 == h1.scale(DELTA)
    assert (h1 + h2) * one == h1 + h2
    assert (h1 - h1).is_zero
    assert h1 * h2 * h1 == h1
    assert TLElement.zero(n) * h1 == TLElement.zero(n)


def test_element_distributes():
    n = 3
    c = TLElement.identity_element(n)
    integral = (TLElement.of_matching(hook(n, 1), 2),
                TLElement.of_matching(hook(n, 2), -1))
    # unequal denominators, which the projector recursion never produces
    mixed = (TLElement.of_matching(hook(n, 1), RationalFn(ONE, delta(1))),
             TLElement.of_matching(hook(n, 2), RationalFn(A * A, delta(2))))
    for a, b in (integral, mixed):
        assert (a + b) * c == a * c + b * c
        assert c * (a + b) == c * a + c * b
        assert (a + b) * b == a * b + b * b
        assert b * (a + b) == b * a + b * b
        assert a + b - b == a
        assert a.scale(RationalFn(delta(2), delta(2))) == a


def test_projector_small():
    f2 = jones_wenzl(2)
    assert f2.coefficient(Matching.identity(2)) == RationalFn.of(1)
    assert f2.coefficient(hook(2, 1)) == RationalFn(-ONE, delta(1))
    assert f2 * f2 == f2
    assert jones_wenzl(0) == TLElement.identity_element(0)
    with pytest.raises(PDError):
        jones_wenzl(-1)


def test_projector_annihilates_hooks():
    for n in (2, 3, 4):
        f = jones_wenzl(n)
        assert f * f == f
        for i in range(1, n):
            h = TLElement.of_matching(hook(n, i))
            assert (h * f).is_zero
            assert (f * h).is_zero
        assert f.coefficient(Matching.identity(n)) == RationalFn.of(1)


def test_projector_canonical_denominator():
    # den is delta_factorial(n-1) only if every exact division in the
    # recursion succeeds; n = 7 is one size past any other use
    for n in range(1, 8):
        f = jones_wenzl(n)
        assert f.den == delta_factorial(n - 1), n
        assert f.coefficient(Matching.identity(n)) == RationalFn.of(1)
    f = jones_wenzl(7)
    for i in range(1, 7):
        h = TLElement.of_matching(hook(7, i))
        assert (h * f).is_zero and (f * h).is_zero, i


def test_partial_trace_ratio():
    for n in (1, 2, 3, 4):
        closed = partial_trace(jones_wenzl(n + 1))
        want = jones_wenzl(n).scale(RationalFn(delta(n + 1), delta(n)))
        assert closed == want


def test_full_trace_is_loop_value():
    for n in (1, 2, 3, 4):
        el = jones_wenzl(n)
        for _ in range(n - 1):
            el = partial_trace(el)
        # one strand left: the closed value is coefficient * delta(1)
        tr = el.coefficient(Matching.identity(1)) * DELTA
        assert tr == RationalFn.of(delta(n))


def test_word_lengths_match_bfs():
    for n in range(2, 6):
        dist = bfs_word_lengths(n)
        for m in enumerate_matchings(n):
            assert min_word_length(m) == dist[m], (n, str(m))


def test_projector_degree_bound():
    # every coefficient's low degree clears twice the word length
    for n in (2, 3, 4):
        f = jones_wenzl(n)
        for m in enumerate_matchings(n):
            c = f.coefficient(m)
            if c.is_zero:
                continue
            assert c.min_degree() >= 2 * min_word_length(m), (n, str(m))


def test_circle_networks():
    for k in (1, 2, 3):
        assert network_evaluate(circle_network(k)) \
            == RationalFn.of(delta(1) ** k)


def test_trace_network_values():
    for n in (0, 1, 2, 3, 4):
        assert network_evaluate(trace_network(n)) == RationalFn.of(delta(n))
    assert network_evaluate(trace_network(0)) == RationalFn.of(1)


def test_theta_network_matches_closed_form():
    zero_colored = tuple((a, a, 0) for a in range(4))
    widest = ((3, 4, 5), (5, 5, 2))  # perfbench's projector workload
    for triple in ((1, 1, 2), (2, 2, 2), (2, 2, 4), (3, 3, 2), (1, 2, 3),
                   *zero_colored, *widest):
        a, b, c = triple
        assert network_evaluate(theta_network(a, b, c)) == theta(a, b, c)


def test_theta_network_rejects_inadmissible():
    for bad in ((1, 1, 1), (1, 2, 4), (2, 2, 7)):
        with pytest.raises(AdmissibilityError):
            theta_network(*bad)


def test_network_budget():
    with pytest.raises(BudgetError):
        network_evaluate(theta_network(3, 3, 4), max_network=2)


def test_adequate_networks_attain_identity_degree():
    nets = [trace_network(3), theta_network(2, 2, 2), theta_network(3, 3, 2)]
    for net in nets:
        val = network_evaluate(net)
        assert val.min_degree() == identity_replacement_degree(net)
