"""Exact Laurent-polynomial arithmetic in the framing variable A.

Everything downstream (bracket sums, quantum coefficients, stable series)
is built on two types:

* :class:`LaurentPoly` — an immutable sparse polynomial in A and A^-1 with
  integer coefficients.
* :class:`RationalFn` — a formal quotient of two of them, kept unreduced
  (no gcd is ever computed; equality is by cross-multiplication).

plus :class:`QSeries`, the one type of every q-series.  Throughout,
q = A^-4, so a step of A^-2 is half a step of q.  :func:`to_q` factors a
polynomial on even powers of A into a sign, its lowest power of q and
coefficients c_0 > 0, c_1, ... in whole steps of q when they fit, else
in half steps.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Union

from .errors import DegreeError, ExactnessError

_Scalar = Union[int, "LaurentPoly"]


def _normalized(items: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for e, c in items:
        if c:
            acc[e] = acc.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def _frozen(self, name, value=None):
    """__setattr__ and __delattr__ of the immutable value classes."""
    raise AttributeError(f"cannot assign to field {name!r}")


class LaurentPoly:
    """Sparse Laurent polynomial over the integers.

    ``terms`` is a tuple of (exponent, coefficient) pairs, strictly
    increasing in exponent, with no zero coefficients.  Any iterable of
    pairs may be passed in; it is normalized on construction.  Values are
    immutable, equal only to LaurentPoly values with the same terms.
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: Iterable[tuple[int, int]] = ()):
        _set_terms(self, _normalized(terms))

    __setattr__ = __delattr__ = _frozen

    @classmethod
    def _trusted(cls, terms: tuple[tuple[int, int], ...]) -> "LaurentPoly":
        """A value whose terms are already strictly increasing in exponent
        and free of zeros, such as a product by one term: no checks."""
        p = _new(cls)
        _set_terms(p, terms)
        return p

    @classmethod
    def _of_acc(cls, acc: dict[int, int]) -> "LaurentPoly":
        """The value of a filled exponent -> coefficient dict: zeros are
        dropped and the terms sorted once."""
        p = _new(cls)
        _set_terms(p, tuple(sorted([t for t in acc.items() if t[1]])))
        return p

    def __reduce__(self):
        return LaurentPoly, (self.terms,)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms,))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "LaurentPoly":
        return cls(tuple(d.items()))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls(((exp, coeff),))

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls(((0, c),))

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def min_degree(self) -> int:
        """Lowest exponent with a nonzero coefficient."""
        if not self.terms:
            raise DegreeError("degree of the zero polynomial is undefined")
        return self.terms[0][0]

    def max_degree(self) -> int:
        if not self.terms:
            raise DegreeError("degree of the zero polynomial is undefined")
        return self.terms[-1][0]

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other: _Scalar) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly(((0, other),))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: _Scalar) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._of_acc(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: _Scalar) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: _Scalar) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: _Scalar) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mine, theirs = self.terms, other.terms
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        if len(mine) == 1:
            # a single term shifts and scales the other factor's terms,
            # which stay sorted and nonzero
            (e1, c1), = mine
            return LaurentPoly._trusted(
                tuple((e1 + e, c1 * c) for e, c in theirs))
        acc: dict[int, int] = {}
        get = acc.get
        for e1, c1 in mine:
            for e2, c2 in theirs:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
        return LaurentPoly._of_acc(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            # Only units (+-A^e) can be inverted; that covers framing factors.
            if len(self.terms) == 1 and abs(self.terms[0][1]) == 1:
                e, c = self.terms[0]
                return LaurentPoly(((e * n, c if n % 2 else 1),))
            raise ExactnessError("negative power of a non-unit polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1."""
        return LaurentPoly(tuple((-e, c) for e, c in self.terms))

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for i, (e, c) in enumerate(self.terms):
            mag = abs(c)
            if c < 0:
                out.append("-")
            elif i:
                out.append("+")
            if e == 0:
                out.append(str(mag))
            else:
                var = "A" if e == 1 else f"A^{e}"
                out.append(var if mag == 1 else f"{mag}*{var}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"


_new = object.__new__
_set_terms = LaurentPoly.terms.__set__   # the slot, past _frozen

ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
A = LaurentPoly.monomial(1, 1)


def monomial(coeff: int, exp: int) -> LaurentPoly:
    return LaurentPoly.monomial(coeff, exp)


def exact_divide(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Return r with p == q*r, or raise ExactnessError if no such r exists.

    Division proceeds from the low-degree end; the quotient exists iff
    every step divides exactly over the integers and the remainder
    reaches zero by the top quotient exponent.
    """
    if q.is_zero:
        raise ExactnessError("division by the zero polynomial")
    if p.is_zero:
        return ZERO
    d = dict(q.terms)
    d_min = q.min_degree()
    lead = d[d_min]
    stop = p.max_degree() - q.max_degree() + 1
    rem = dict(p.terms)
    out: dict[int, int] = {}
    while rem:
        r_min = min(rem)
        e = r_min - d_min
        if e >= stop:
            break
        c, m = divmod(rem[r_min], lead)
        if m:
            raise ExactnessError(
                f"{q} does not divide {p} over the integers")
        out[e] = c
        for de, dc in d.items():
            k = de + e
            v = rem.get(k, 0) - dc * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    if rem:
        raise ExactnessError(f"{q} does not divide {p} exactly")
    return LaurentPoly._of_acc(out)


class RationalFn:
    """Unreduced quotient num/den of Laurent polynomials (den != 0).

    No common factors are cancelled, ever; equality compares
    num1*den2 == num2*den1, so values are unhashable.
    """

    __slots__ = ("num", "den")
    num: LaurentPoly
    den: LaurentPoly

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero:
            raise ExactnessError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return RationalFn, (self.num, self.den)

    @classmethod
    def of(cls, x: Union[int, LaurentPoly, "RationalFn"]) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        if isinstance(x, int):
            return cls(LaurentPoly.constant(x))
        return cls(x)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFn.of(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        other = RationalFn.of(other)
        if self.den == other.den:
            # keep the shared denominator instead of squaring it; long
            # chains of additions stay flat when terms are aligned
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFn.of(other))

    def __rsub__(self, other):
        return RationalFn.of(other) + (-self)

    def __mul__(self, other):
        other = RationalFn.of(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFn":
        if self.num.is_zero:
            raise ExactnessError("reciprocal of zero")
        return RationalFn(self.den, self.num)

    def min_degree(self) -> int:
        """d(num) - d(den): the leading low-end exponent of the expansion."""
        if self.num.is_zero:
            raise DegreeError("degree of the zero rational function is undefined")
        return self.num.min_degree() - self.den.min_degree()

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"<RationalFn {self}>"


class QSeries(NamedTuple):
    """sign * q^(shift_halves/2) * sum_i coeffs[i] * q^(step_halves*i/2).

    ``coeffs[0]`` is positive and ``coeffs[-1]`` nonzero.  ``shift_halves``
    is the lowest q-exponent, in halves of q; ``step_halves`` is 2 when,
    that power factored out, every exponent is a whole power of q (as in
    the colored invariants of knots and links), and 1 when half-powers
    remain.
    """

    sign: int
    shift_halves: int
    step_halves: int
    coeffs: tuple[int, ...]

    def coefficient(self, i: int) -> int:
        """i-th coefficient (0 beyond the end of the series)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def in_halves(self) -> "QSeries":
        """The same series re-expressed with step 1 (interior zeros)."""
        if self.step_halves == 1:
            return self
        co = [0] * (2 * len(self.coeffs) - 1)
        co[::2] = self.coeffs
        return QSeries(self.sign, self.shift_halves, 1, tuple(co))


def to_q(p: LaurentPoly) -> QSeries:
    """The q-series of p, which must have even support.

    The zero polynomial maps to QSeries(1, 0, 2, ()).
    """
    terms = p.terms
    if not terms:
        return QSeries(1, 0, 2, ())
    if any(e % 2 for e, _ in terms):
        raise ExactnessError(
            "polynomial has odd A-exponents; no q-presentation exists")
    top, lead = terms[-1]
    sign = 1 if lead > 0 else -1
    # A^top is the lowest power of q; A^(top - 2i) lies i half-steps above
    step = 2 if all((top - e) % 4 == 0 for e, _ in terms) else 1
    coeffs = [0] * ((top - terms[0][0]) // (2 * step) + 1)
    for e, c in terms:
        coeffs[(top - e) // (2 * step)] = sign * c
    return QSeries(sign, -top // 2, step, tuple(coeffs))
