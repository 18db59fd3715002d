"""Planar matchings, their algebra, projectors, and closed networks."""

import itertools
import math
import random
import time

import pytest

from oracles import (
    bfs_word_lengths, expand_network, graph_compose, kl_tet,
    necklace_network, port_cycles, reindex_trace, schoolbook_product,
    tet_network, trivalent_network, two_term_jones_wenzl,
)
from skeinkit import tl
from skeinkit.errors import AdmissibilityError, Budget, BudgetError, PDError
from skeinkit.poly import A, ONE, ZERO, LaurentPoly, RationalFn
from skeinkit.quantum import admissible, delta, delta_factorial, theta
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


def test_unchecked_results_pass_the_checks():
    # products, partial traces and projector extensions skip validation
    for n in range(1, 6):
        f = jones_wenzl(n)
        for el in (f, partial_trace(f), f * f):
            for m, _ in el.nums:
                assert Matching(m.n, m.partner) == m


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


def _hook_pairs(n=3):
    """Two pairs of hook elements: integral, and over unequal
    denominators, which the projector recursion never produces."""
    integral = (TLElement.of_matching(hook(n, 1), 2),
                TLElement.of_matching(hook(n, 2), -1))
    mixed = (TLElement.of_matching(hook(n, 1), RationalFn(ONE, delta(1))),
             TLElement.of_matching(hook(n, 2), RationalFn(A * A, delta(2))))
    return integral, mixed


def test_element_distributes():
    c = TLElement.identity_element(3)
    for a, b in _hook_pairs():
        assert (a + b) * c == a * c + b * c
        assert c * (a + b) == c * a + c * b
        assert (a + b) * b == a * b + b * b
        assert b * (a + b) == b * a + b * b
        assert a + b - b == a
        assert a.scale(RationalFn(delta(2), delta(2))) == a


def _random_element(rng, n, positive):
    """Numerators of 1-4 terms on exponents -9..9 and coefficients up to
    2^64 in size (all positive, or of both signs), over a denominator."""
    ms = enumerate_matchings(n)
    lo = 1 if positive else -2 ** 64
    nums = []
    for m in rng.sample(ms, rng.randint(1, len(ms))):
        c = LaurentPoly((rng.randint(-9, 9), rng.randint(lo, 2 ** 64))
                        for _ in range(rng.randint(1, 4)))
        nums.append((m, c))
    nums.sort(key=lambda mc: mc[0].paren_string())
    return TLElement(n, tuple(nums), rng.choice((ONE, delta(1), -A * A)))


def test_product_equals_the_schoolbook_product():
    # one positive term on one strand: the product's coefficient is the
    # bound on the packed coefficients itself.  Two caps on four strands
    # close two loops, and delta^2 = A^-4 + 2 + A^4 takes half the bound
    c = LaurentPoly(((-5, 2 ** 64 - 1),))
    caps = compose(hook(4, 1), hook(4, 3))[0]
    for m, loops in ((Matching.identity(1), 0), (caps, 2)):
        big = TLElement(m.n, ((m, c),))
        assert (big * big).nums == ((m, c * c * delta(1) ** loops),)
    pairs = []
    for n in range(6):
        f = jones_wenzl(n)
        pairs.append((f, f))
        for i in range(1, n):
            h = TLElement.of_matching(hook(n, i))
            pairs += [(h, f), (f, h)]           # these cancel to zero
    for a, b in _hook_pairs():
        pairs += itertools.product((a, b, a + b), repeat=2)
    n = 3
    f = jones_wenzl(n)
    # built directly, with a zero numerator that the product must skip
    holed = TLElement(n, ((Matching.identity(n), ZERO), (hook(n, 1), A)),
                      delta(1))
    for x in (TLElement.zero(n), holed):
        pairs += [(x, f), (f, x), (x, x)]
    rng = random.Random(40)                 # derandomized
    for _ in range(80):
        n, positive = rng.randint(0, 5), rng.random() < 0.4
        pairs.append((_random_element(rng, n, positive),
                      _random_element(rng, n, positive)))
    zeros = 0
    for a, b in pairs:
        got, want = a * b, schoolbook_product(a, b)
        assert got.nums == want.nums and got.den == want.den, (a, b)
        zeros += want.is_zero
    assert zeros > 20


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
    # the single-clasp recursion puts every numerator over
    # delta_factorial(n-1) by construction, with no division to check
    # it; test_projector_equals_the_two_term_recursion carries the exact
    # division of the f h f oracle.  n = 7 is one size past any other use
    for n in range(1, 8):
        f = jones_wenzl(n)
        assert f.den == delta_factorial(n - 1), n
        assert f.coefficient(Matching.identity(n)) == RationalFn.of(1)
    f = jones_wenzl(7)
    for i in range(1, 7):
        h = TLElement.of_matching(hook(7, i))
        assert (h * f).is_zero and (f * h).is_zero, i


def test_projector_equals_the_two_term_recursion():
    # same numerators, matchings and denominator, bit for bit; the
    # oracle divides exactly by the denominator of f^(n-1) at each step
    for n in range(7):
        f, want = jones_wenzl(n), two_term_jones_wenzl(n)
        assert f.n == want.n == n
        assert f.nums == want.nums, n
        assert f.den == want.den == delta_factorial(n - 1), n


def test_projector_builds_with_few_matching_products(monkeypatch):
    # not a timing test: with f^(n-1) cached, f^(n) takes n-1 products
    # to build the hook words and one per (word, term of f^(n-1)), at
    # most (n-1)(Catalan(n-1)+1) = 215 at n = 6; f h f took 1,806
    n = 6
    calls = 0

    def counted(m1, m2):
        nonlocal calls
        calls += 1
        return compose(m1, m2)

    jones_wenzl.cache_clear()
    try:
        jones_wenzl(n - 1)
        monkeypatch.setattr(tl, "compose", counted)
        jones_wenzl(n)
        assert 0 < calls <= (n - 1) * (catalan(n - 1) + 1) == 215
    finally:
        jones_wenzl.cache_clear()


def test_gluing_equals_the_graph_walks():
    # all 1,991 pairs of matchings with n = 0-5 strands, and the trace
    # of every matching with n = 1-5
    for n in range(6):
        ms = enumerate_matchings(n)
        for m1 in ms:
            for m2 in ms:
                assert compose(m1, m2) == graph_compose(m1, m2), \
                    (str(m1), str(m2))
    for n in range(1, 6):
        for m in enumerate_matchings(n):
            mm, loops = reindex_trace(m)
            assert partial_trace(TLElement.of_matching(m)) \
                == TLElement.of_matching(mm, delta(1) ** loops), str(m)


def test_compose_fits_byte_keys_up_to_64_strands():
    # compose and the element product, which glues its own byte keys
    wide = Matching.identity(64)
    assert compose(wide, wide) == (wide, 0)
    one = TLElement.identity_element(64)
    assert (one * one).nums == one.nums
    wider = Matching.identity(65)
    with pytest.raises(ValueError, match="frame of 260 ends"):
        compose(wider, wider)
    one = TLElement.identity_element(65)
    with pytest.raises(ValueError, match="frame of 260 ends"):
        one * one
    with pytest.raises(PDError):
        TLElement.identity_element(2) * TLElement.identity_element(3)


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


def test_network_evaluate_equals_the_expansion():
    # the box-by-box contraction against every combination of box terms
    nets = [theta_network(a, b, c) for a in range(6) for b in range(6)
            for c in range(6) if admissible(a, b, c)]
    nets += [trace_network(n) for n in range(7)]
    nets += [circle_network(k) for k in (1, 2, 3)]
    nets += [necklace_network(n, k) for n in range(4) for k in (2, 3, 4)]
    # box 1 drawn mirrored: box 0's identity term caps box 1's bottom
    # ports 1, 0, so only the projectors' contraction may drop it
    mirrored = PlanarNetwork(boxes=(2, 2), arcs=(
        ((0, "t", 0), (1, "b", 0)), ((0, "b", 0), (1, "b", 1)),
        ((0, "t", 1), (1, "t", 0)), ((0, "b", 1), (1, "t", 1))))
    # f^(2) capped on both sides: zero
    capped = PlanarNetwork(boxes=(2,), arcs=(
        ((0, "t", 0), (0, "t", 1)), ((0, "b", 0), (0, "b", 1))))
    assert network_evaluate(capped).is_zero
    nets += [mirrored, capped]
    for net in nets:
        assert network_evaluate(net) == expand_network(net), net
        identities = [Matching.identity(w) for w in net.boxes]
        assert identity_replacement_degree(net) \
            == -2 * (port_cycles(net, identities) + net.circles), net
    for n in range(4):
        for k in (2, 3, 4):
            assert network_evaluate(necklace_network(n, k)) \
                == RationalFn.of(delta(n)), (n, k)


def test_wide_necklace_fits_the_default_budget():
    # 42**6 combinations of terms, far past the default max_network, but
    # the contraction carries at most 42 matchings of 10 ports per box
    assert network_evaluate(necklace_network(5, 6)) \
        == RationalFn.of(delta(5))


def test_network_budget():
    with pytest.raises(BudgetError) as exc:
        network_evaluate(theta_network(3, 3, 4), budget=Budget(max_network=2))
    assert str(exc.value) == ("budget 'max_network' exceeded (limit 2, "
                              "needed 5): network contraction too large")
    # a count, not a timing: dropping the states that a later box kills
    # leaves these far below the 1,810 and 8,862 pairs of the contraction
    # that keeps them
    few = Budget(max_network=300)
    assert network_evaluate(theta_network(5, 5, 2), budget=few) \
        == theta(5, 5, 2)
    assert network_evaluate(necklace_network(5, 6), budget=few) \
        == RationalFn.of(delta(5))
    # the deadline is checked before each box, so one already passed trips
    past = Budget(deadline=time.monotonic() - 1)
    with pytest.raises(BudgetError) as exc:
        network_evaluate(theta_network(3, 3, 4), budget=past)
    assert exc.value.budget == "time_limit"


def test_adequate_networks_attain_identity_degree():
    nets = [trace_network(3), theta_network(2, 2, 2), theta_network(3, 3, 2)]
    for net in nets:
        val = network_evaluate(net)
        assert val.min_degree() == identity_replacement_degree(net)


def _tet_admissible(a, b, e, c, d, f):
    return all(admissible(*t)
               for t in ((a, d, e), (b, c, e), (a, b, f), (c, d, f)))


def test_tetrahedra_equal_the_kauffman_lins_formula():
    # six boxes, where states die across several boxes still to come
    colorings = [t for t in itertools.product(range(4), repeat=6)
                 if _tet_admissible(*t)]
    assert len(colorings) == 181
    for t in colorings:
        assert network_evaluate(tet_network(*t)) == kl_tet(*t), t


def test_trivalent_thetas_equal_the_closed_form():
    # the second vertex's rotation is the first one reversed
    for a, b, c in itertools.product(range(4), repeat=3):
        if admissible(a, b, c):
            net = trivalent_network([(0, 1, a), (0, 1, b), (0, 1, c)],
                                    {0: (0, 1, 2), 1: (2, 1, 0)})
            assert network_evaluate(net) == theta(a, b, c), (a, b, c)
