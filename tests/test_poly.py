"""Laurent polynomial / rational function unit tests."""

import pytest
from hypothesis import given, strategies as st

from skeinkit.errors import DegreeError, ExactnessError
from skeinkit.poly import (
    A, ONE, ZERO, LaurentPoly, QSeries, RationalFn,
    _pack, _unpack, exact_divide, to_q,
)

DELTA = LaurentPoly.from_dict({2: -1, -2: -1})

polys = st.builds(
    LaurentPoly.from_dict,
    st.dictionaries(st.integers(-8, 8), st.integers(-30, 30), max_size=6),
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestRing:
    @given(polys, polys, polys)
    def test_add_mul_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_units(self, p):
        assert p + ZERO == p
        assert p * ONE == p
        assert p - p == ZERO
        assert p * ZERO == ZERO

    @given(polys)
    def test_int_coercion(self, p):
        assert p + 0 == p
        assert 1 * p == p
        assert 2 * p == p + p
        assert p - 1 == p - ONE

    @given(nonzero_polys, nonzero_polys)
    def test_degrees_multiplicative(self, p, q):
        assert (p * q).min_degree() == p.min_degree() + q.min_degree()
        assert (p * q).max_degree() == p.max_degree() + q.max_degree()

    @given(polys)
    def test_mirror_involution(self, p):
        assert p.mirror().mirror() == p

    @given(nonzero_polys, nonzero_polys)
    def test_mirror_ring_hom(self, p, q):
        assert (p * q).mirror() == p.mirror() * q.mirror()
        assert (p + q).mirror() == p.mirror() + q.mirror()

    @given(polys, st.integers(0, 5))
    def test_pow_matches_repeated_mul(self, p, n):
        expected = ONE
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    def test_negative_pow_units_only(self):
        g = LaurentPoly.monomial(-1, 3)          # framing-style unit
        assert g ** -1 == LaurentPoly.monomial(-1, -3)
        assert g ** -2 == LaurentPoly.monomial(1, -6)
        with pytest.raises(ExactnessError):
            DELTA ** -1

    def test_zero_degree_undefined(self):
        with pytest.raises(DegreeError):
            ZERO.min_degree()
        with pytest.raises(DegreeError):
            ZERO.max_degree()


def _reference(p, q, op):
    """p op q from plain exponent -> coefficient dicts, zeros dropped."""
    out = {}
    if op == "+":
        for e, c in [*p.items(), *q.items()]:
            out[e] = out.get(e, 0) + c
    else:
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _canonical(p):
    """Terms strictly increasing in exponent, no zero coefficient."""
    es = [e for e, _ in p.terms]
    return (all(a < b for a, b in zip(es, es[1:]))
            and all(c for _, c in p.terms))


monomials = st.builds(LaurentPoly.monomial,
                      st.integers(-30, 30).filter(bool), st.integers(-8, 8))
factors = st.one_of(polys, monomials, st.just(ZERO))


class TestCanonicalForm:
    @given(factors, st.one_of(factors, st.integers(-5, 5)))
    def test_sum_and_product_match_dicts(self, p, q):
        # q on either side; an int operand stands for a constant
        dq = q.as_dict() if isinstance(q, LaurentPoly) else {0: q}
        for op, got in (("+", p + q), ("+", q + p),
                        ("*", p * q), ("*", q * p)):
            assert isinstance(got, LaurentPoly)
            assert _canonical(got)
            assert got.as_dict() == _reference(p.as_dict(), dq, op)

    @given(polys, monomials)
    def test_cancelling_sums_are_zero(self, p, m):
        neg = {e: -c for e, c in p.as_dict().items()}
        minus_p = LaurentPoly.from_dict(neg)
        for total in (p + minus_p, minus_p + p, p * m + minus_p * m,
                      p - p, -p + p, (m - m) * p):
            assert total == ZERO and total.terms == ()
        # negation, mirror and difference keep the canonical form too
        minus_m = {e: -c for e, c in m.as_dict().items()}
        for got, want in ((-p, neg),
                          (p.mirror(), {-e: c for e, c in p.as_dict().items()}),
                          (p - m, _reference(p.as_dict(), minus_m, "+"))):
            assert _canonical(got) and got.as_dict() == want


class TestPacking:
    @pytest.mark.parametrize("k", [2, 3, 8, 64])
    def test_unpack_inverts_pack(self, k):
        top = 2 ** (k - 1) - 1              # the largest digit either way
        polys = [
            ZERO, ONE, -ONE, A, LaurentPoly(((-3, -1),)),
            LaurentPoly(((-2, -top), (1, 1), (4, top))),
            LaurentPoly(((0, top), (2, -1), (3, -top))),
            LaurentPoly(((-1, -top), (5, -top))),
            LaurentPoly((e, top if e % 2 else -top) for e in range(-4, 5)),
        ]
        for p in polys:
            for lo in ((p.min_degree() if p.terms else 0) - s
                       for s in (0, 1, 3)):
                assert _unpack(_pack(p, lo, k), lo, k) == p, (p, lo)


class TestExactDivide:
    @given(nonzero_polys, nonzero_polys)
    def test_roundtrip(self, p, q):
        assert exact_divide(p * q, q) == p

    def test_not_divisible(self):
        with pytest.raises(ExactnessError):
            exact_divide(A + 1, DELTA)
        with pytest.raises(ExactnessError):
            exact_divide(2 * ONE, 3 * ONE)

    def test_by_zero(self):
        with pytest.raises(ExactnessError):
            exact_divide(ONE, ZERO)


class TestRationalFn:
    def test_equality_is_cross_multiplied(self):
        half = RationalFn(DELTA, 2 * DELTA)
        assert half == RationalFn(ONE, 2 * ONE)
        assert half != RationalFn(ONE, 3 * ONE)

    @given(nonzero_polys, nonzero_polys)
    def test_mul_keeps_unreduced_factors(self, p, q):
        r = RationalFn(p, q) * RationalFn(q, p)
        assert r == 1
        # unreduced on purpose: the representation keeps both factors
        assert r.num == p * q

    def test_degree(self):
        assert RationalFn(ONE, DELTA).min_degree() == 2
        assert RationalFn(DELTA, ONE).min_degree() == -2
        with pytest.raises(DegreeError):
            RationalFn(ZERO, ONE).min_degree()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ExactnessError):
            RationalFn(ONE, ZERO)

    def test_add(self):
        r = RationalFn(ONE, DELTA) + RationalFn(ONE, DELTA)
        assert r == RationalFn(2 * ONE, DELTA)


def _from_q(qp):
    """The Laurent polynomial that a q-series stands for (q = A^-4)."""
    return LaurentPoly(tuple(
        (-2 * (qp.shift_halves + qp.step_halves * i), qp.sign * c)
        for i, c in enumerate(qp.coeffs)))


class TestQPresentation:
    def test_frozen_example(self):
        # -A^4 - A^-4 = -(q^-1 + q)
        qp = to_q(LaurentPoly.from_dict({4: -1, -4: -1}))
        assert qp == QSeries(-1, -2, 2, (1, 0, 1))
        assert qp.in_halves().coeffs == (1, 0, 0, 0, 1)

    def test_loop_value(self):
        # -A^2 - A^-2 = -q^(-1/2) (1 + q): a half power, then whole steps
        assert to_q(DELTA) == QSeries(-1, -1, 2, (1, 1))
        # A^2 + 1 = q^(-1/2) (1 + q^(1/2)) keeps a half step
        assert to_q(A * A + 1) == QSeries(1, -1, 1, (1, 1))

    def test_zero(self):
        qp = to_q(ZERO)
        assert qp == QSeries(1, 0, 2, ())
        assert _from_q(qp) == ZERO

    def test_odd_support_rejected(self):
        with pytest.raises(ExactnessError):
            to_q(A)

    @given(polys)
    def test_roundtrip(self, p):
        even = LaurentPoly(tuple((2 * e, c) for e, c in p.terms))
        assert _from_q(to_q(even)) == even

    @given(nonzero_polys)
    def test_leading_coeff_positive(self, p):
        even = LaurentPoly(tuple((2 * e, c) for e, c in p.terms))
        qp = to_q(even)
        assert qp.coeffs[0] > 0
        assert qp.coeffs[-1] != 0
        assert qp.sign in (1, -1)

    def test_coeff_at_halfq(self):
        qp = to_q(DELTA).in_halves()  # lowest q term at q^(-1/2)
        assert qp.shift_halves == -1
        # coefficients at q^(-1/2), q^0, q^(1/2), and none up to q^(99/2)
        assert qp.coefficient(-1 - qp.shift_halves) == 1
        assert qp.coefficient(0 - qp.shift_halves) == 0
        assert qp.coefficient(1 - qp.shift_halves) == 1
        assert len(qp.coeffs) <= 99 - qp.shift_halves


class TestRendering:
    @pytest.mark.parametrize("d,text", [
        ({}, "0"),
        ({0: 1}, "1"),
        ({0: -3}, "-3"),
        ({1: 1}, "A"),
        ({1: -1}, "-A"),
        ({-1: 2}, "2*A^-1"),
        ({2: -1, -2: -1}, "-A^-2-A^2"),
        ({7: 1, 3: 1, -1: 1, -9: -1}, "-A^-9+A^-1+A^3+A^7"),
        ({0: 2, 4: -5}, "2-5*A^4"),
    ])
    def test_canonical(self, d, text):
        assert str(LaurentPoly.from_dict(d)) == text
