"""Loop values, vertex weights, twist coefficients, and their degree laws."""

import itertools

import pytest
from hypothesis import given, strategies as st

from skeinkit.errors import AdmissibilityError
from skeinkit.poly import LaurentPoly, ONE, RationalFn
from skeinkit.quantum import (
    admissible, admissible_colors, delta, delta_factorial, gamma, theta,
    twist_coefficients,
)


def test_delta_small_values():
    assert delta(-1) == LaurentPoly()
    assert delta(0) == ONE
    assert delta(1) == LaurentPoly.from_dict({2: -1, -2: -1})
    assert delta(2) == LaurentPoly.from_dict({4: 1, 0: 1, -4: 1})
    assert delta(3) == LaurentPoly.from_dict({6: -1, 2: -1, -2: -1, -6: -1})


def test_delta_factorial():
    assert delta_factorial(-1) == ONE
    assert delta_factorial(0) == ONE
    assert delta_factorial(1) == delta(1)
    assert delta_factorial(4) == delta(1) * delta(2) * delta(3) * delta(4)


@given(st.integers(0, 12))
def test_delta_recursion(n):
    # three-term recursion of the loop expansion (delta(1) is the loop value)
    assert delta(1) * delta(n) == delta(n + 1) + delta(n - 1)


def test_delta_degree_law():
    for n in range(11):
        assert delta(n).min_degree() == -2 * n
        assert delta(n).max_degree() == 2 * n


def test_admissible_colors():
    assert admissible_colors(1, 1) == [0, 2]
    assert admissible_colors(2, 3) == [1, 3, 5]
    assert admissible_colors(0, 4) == [4]
    with pytest.raises(AdmissibilityError):
        admissible_colors(-1, 2)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 14))
def test_admissible_matches_enumeration(a, b, c):
    assert admissible(a, b, c) == (c in admissible_colors(a, b))


def test_theta_base_cases():
    assert theta(1, 1, 0) == RationalFn(delta(1))
    assert theta(1, 1, 2) == RationalFn(delta(2))
    for n in range(8):
        assert theta(n, n, 0) == RationalFn(delta(n))


def test_theta_symmetric():
    for a, b, c in [(2, 2, 2), (1, 2, 3), (2, 3, 3), (4, 2, 2)]:
        first = theta(a, b, c)
        for p in itertools.permutations((a, b, c)):
            assert theta(*p) == first


def test_theta_inadmissible():
    with pytest.raises(AdmissibilityError):
        theta(1, 1, 1)
    with pytest.raises(AdmissibilityError):
        theta(1, 1, 4)


def test_gamma_values():
    assert gamma(1, 1, 0) == LaurentPoly.monomial(-1, 3)
    assert gamma(1, 1, 2) == LaurentPoly.monomial(1, -1)
    assert gamma(2, 2, 0) == LaurentPoly.monomial(1, 8)
    for n in range(1, 8):
        assert gamma(n, n, 2 * n) == LaurentPoly.monomial(1, -n * n)


def test_gamma_degree_steps():
    # the twist eigenvalue drops by exactly 4j from channel 2(j-1) to 2j
    for n in range(1, 11):
        exps = [gamma(n, n, 2 * j).min_degree() for j in range(n + 1)]
        for j in range(1, n + 1):
            assert exps[j] - exps[j - 1] == -4 * j
        assert exps[n] == -n * n


def test_channel_weight_degree_steps():
    # d(delta(2j)/theta(n,n,2j)) decreases by exactly 2 per channel
    for n in range(1, 11):
        degs = []
        for j in range(n + 1):
            th = theta(n, n, 2 * j)
            degs.append(RationalFn(delta(2 * j) * th.den, th.num).min_degree())
        for j in range(1, n + 1):
            assert degs[j] - degs[j - 1] == -2


class TestTwistCoefficients:
    def close(self, n, m):
        """Numerator-close the resolved twist region: sum c_j * theta."""
        s = RationalFn(LaurentPoly())
        for j, c in enumerate(twist_coefficients(n, m)):
            s = s + c * theta(n, n, 2 * j)
        return s

    def test_single_negative_kink(self):
        # closing one negative half-twist gives -A^-3 * (loop value)
        assert self.close(1, 1) == LaurentPoly.from_dict({-1: 1, -5: 1})

    def test_single_positive_kink(self):
        assert self.close(1, -1) == LaurentPoly.from_dict({1: 1, 5: 1})

    def test_closure_equals_eigenvalue_sum(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3, -1):
                total = LaurentPoly()
                for j in range(n + 1):
                    total = total + (gamma(n, n, 2 * j) ** m) * delta(2 * j)
                assert self.close(n, m) == RationalFn(total)

    def test_left_trefoil_closure(self):
        # three negative half-twists closed up: the 3-crossing diagram value
        assert self.close(1, 3) == LaurentPoly.from_dict(
            {-7: 1, -3: 1, 1: 1, 9: -1})
