"""Bracket state sums and cabling-based colored invariants.

The workhorse is :func:`bracket`, a pairing-state sweep over a crossing
order chosen by :func:`skeinkit.diagram.plan_sweep`: instead of visiting
all 2^c smoothing states it carries a map {matching of open ends ->
accumulated weight}, which stays small for the diagrams and cables treated
here.  :func:`brute_force_bracket` is the literal 2^c sum, kept as an
independent cross-check for small inputs.

Colored invariants follow by cabling: the color-n bracket expands each
component into the n-fold parallel with the degree-n Chebyshev pattern
(S_0 = 1, S_1 = x, S_n = x S_{n-1} - S_{n-2}) applied multilinearly, a
deleted component being the 0-fold cable.  The framing correction divides
by (-1)^n A^(n^2+2n) per unit of writhe, and the reduced form divides by
the colored unknot value.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from . import diagram
from ._kernel import run_packed
from .errors import BudgetError, InternalError
from .poly import LaurentPoly, ONE, RationalFn, ZERO, exact_divide, truncate
from .quantum import delta, gamma


def _swept(pd: diagram.PDCode, floor: Optional[int],
           max_width: int) -> LaurentPoly:
    """The bracket of ``pd``; with ``floor``, only its terms of exponent
    >= floor.  Plans and sweeps the crossings, then multiplies in delta
    for each crossing-free circle."""
    program = diagram.plan_sweep(pd, max_width=max_width).program \
        if pd.crossings else ()
    extra = pd.extra_circles
    # the circles outside the sweep reach 2*extra above the swept terms
    base, coeffs = run_packed(
        program, floor=None if floor is None else floor - 2 * extra)
    out = LaurentPoly(tuple(
        (base + 2 * j, c) for j, c in enumerate(coeffs))) * delta(1) ** extra
    if floor is None:
        return out
    return LaurentPoly(tuple(t for t in out.terms if t[0] >= floor))


def bracket(pd: diagram.PDCode,
            max_width: int = diagram.MAX_WIDTH) -> LaurentPoly:
    """Kauffman-style bracket of a diagram: loop value -A^2-A^-2,
    empty diagram 1, A-smoothing weight A.

    Exponent support lies in a single parity class (the crossing count
    mod 2); this is checked on every call.
    """
    out = _swept(pd, None, max_width)
    parity = len(pd.crossings) % 2
    if any((e - parity) % 2 for e, _ in out.terms):
        raise InternalError(
            "bracket support violates the crossing-parity invariant")
    return out


def brute_force_bracket(pd: diagram.PDCode,
                        max_crossings: int = 20) -> LaurentPoly:
    """The literal state sum: 2^c terms of A^(a-b) * delta^circles.

    (Empty-diagram normalization: a lone circle contributes delta, so k
    disjoint circles give delta^k.)  Independent of the sweep machinery —
    circles are counted by union-find, not surgery — so the two evaluators
    validate each other.  Refuses more than ``max_crossings`` crossings.
    """
    n = len(pd.crossings)
    if n > max_crossings:
        raise BudgetError("max_crossings", max_crossings, needed=n)
    if n == 0:
        return delta(1) ** pd.extra_circles
    diagram.analyze(pd)
    acc: dict[int, int] = {}
    d1 = delta(1)
    # a smoothed state has at most one circle per smoothing strand
    powers = [d1 ** k for k in range(2 * n + pd.extra_circles + 1)]
    for bits in range(1 << n):
        state = "".join("A" if bits & (1 << i) == 0 else "B"
                        for i in range(n))
        a_count = state.count("A")
        exp = a_count - (n - a_count)
        circles = diagram.apply_state(pd, state).count
        for e, c in powers[circles].terms:
            acc[e + exp] = acc.get(e + exp, 0) + c
    return LaurentPoly(tuple(acc.items()))


@functools.lru_cache(maxsize=None)
def chebyshev_coefficients(n: int) -> tuple[tuple[int, int], ...]:
    """Coefficients of the n-th pattern polynomial as (power, coeff) pairs.

    S_0 = 1, S_1 = x, S_n = x*S_{n-1} - S_{n-2}; only powers with
    m = n mod 2 appear, and the leading coefficient is 1.
    """
    if n < 0:
        raise ValueError("pattern degree must be >= 0")
    if n == 0:
        return ((0, 1),)
    if n == 1:
        return ((1, 1),)
    prev = dict(chebyshev_coefficients(n - 2))
    cur = dict(chebyshev_coefficients(n - 1))
    out: dict[int, int] = {}
    for m, c in cur.items():
        out[m + 1] = out.get(m + 1, 0) + c
    for m, c in prev.items():
        out[m] = out.get(m, 0) - c
    return tuple(sorted((m, c) for m, c in out.items() if c))


@functools.lru_cache(maxsize=256)
def colored_bracket(pd: diagram.PDCode, n: int,
                    max_width: int = diagram.MAX_WIDTH) -> LaurentPoly:
    """Bracket of the diagram with every component carrying color n.

    Multilinear Chebyshev expansion over per-component cable sizes; the
    0-cable deletes a component.  colored_bracket(unknot, n) is the
    colored loop value delta(n).
    """
    if n < 0:
        raise ValueError("color must be >= 0")
    if not pd.crossings and not pd.extra_circles:
        return ONE
    total = LaurentPoly()
    for weight, cabled in _cables(pd, n):
        total = total + weight * bracket(cabled, max_width=max_width)
    return total


def _cables(pd: diagram.PDCode, n: int):
    """(weight, cable) pairs of the multilinear Chebyshev expansion at
    color n; the last cable carries every component n-fold."""
    k = diagram.analyze(pd).total_components if pd.crossings \
        else pd.extra_circles
    for combo in itertools.product(chebyshev_coefficients(n), repeat=k):
        weight = 1
        for _, c in combo:
            weight *= c
        yield weight, diagram.cable_multi(pd, [m for m, _ in combo])


def unreduced_colored(pd: diagram.PDCode, color_dim: int,
                      max_width: int = diagram.MAX_WIDTH) -> LaurentPoly:
    """Framing-corrected colored invariant, unknot -> delta(color_dim - 1).

    ``color_dim`` is the number of strand states N >= 1; the cable width
    is n = N - 1.
    """
    if color_dim < 1:
        raise ValueError("color dimension must be >= 1")
    n = color_dim - 1
    w = diagram.writhe(pd) if pd.crossings else 0
    frame = gamma(n, n, 0) ** (-w)
    return frame * colored_bracket(pd, n, max_width=max_width)


def reduced_colored(pd: diagram.PDCode, color_dim: int,
                    max_width: int = diagram.MAX_WIDTH) -> LaurentPoly:
    """Unreduced form divided (exactly) by the colored unknot value."""
    return exact_divide(unreduced_colored(pd, color_dim, max_width=max_width),
                        delta(color_dim - 1))


def jones_polynomial(pd: diagram.PDCode,
                     max_width: int = diagram.MAX_WIDTH) -> LaurentPoly:
    """The classical case: reduced 2-dimensional invariant, in A."""
    return reduced_colored(pd, 2, max_width=max_width)


def reduced_colored_top(pd: diagram.PDCode, color_dim: int, terms: int,
                        max_width: int = diagram.MAX_WIDTH
                        ) -> tuple[LaurentPoly, int]:
    """The top ``terms`` q-coefficients of :func:`reduced_colored`.

    Returns ``(p, floor)``: p equals ``reduced_colored(pd, color_dim)`` on
    the A-exponents >= floor and is zero below; its top is the true top,
    and it holds ``terms`` q-coefficients unless it is the whole invariant.
    The bracket of the all-n cable, with T crossings and c_A, c_B circles
    in its all-A, all-B states, bounds every cable's between -(T + 2*c_B)
    and T + 2*c_A.  The window descends from that top, which an A-adequate
    diagram attains: a window that shows a lower top is swept again with
    the floor under it, an empty one steps down further each time, and at
    the bottom bound the window is the full sweep.
    """
    if color_dim < 1 or terms < 1:
        raise ValueError("color dimension and terms must be >= 1")
    n = color_dim - 1
    cables = list(_cables(pd, n))
    # at color_dim 1 the all-n cable is empty and its bracket is 1
    full = cables[-1][1]
    ceiling = bottom = 0
    if full.crossings or full.extra_circles:
        t = len(full.crossings)
        ceiling = t + 2 * diagram.apply_state(full, diagram.all_a(full)).count
        bottom = -t - 2 * diagram.apply_state(full, diagram.all_b(full)).count
    span, step = 4 * (terms - 1), 4 * terms
    floor = max(ceiling - span, bottom)
    while True:
        # widest first, so that its plan trips the width budget before
        # any sweep
        total = sum((w * _swept(c, floor, max_width)
                     for w, c in reversed(cables)), ZERO)
        if floor == bottom or (not total.is_zero
                               and total.max_degree() >= floor + span):
            break
        # a nonzero window shows the true top; an empty one steps down
        floor = max(bottom, floor - step if total.is_zero
                    else total.max_degree() - span)
        step *= 2
    frame = gamma(n, n, 0) ** (-diagram.writhe(pd))
    top = frame * total
    floor += frame.max_degree() - 2 * n
    if top.is_zero:
        return ZERO, floor
    # divide from the top: quotient degrees >= floor need only the known
    # dividend degrees; mirrored, this is the low-end series expansion
    slots = top.max_degree() - 2 * n - floor + 1
    quotient = truncate(RationalFn(top.mirror(), delta(n).mirror()), slots)
    return quotient.mirror(), floor
