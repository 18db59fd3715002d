"""Bracket state sums and cabling-based colored invariants.

The workhorse is :func:`bracket`, a pairing-state sweep over a crossing
order chosen by :func:`skeinkit.diagram.plan_sweep`: instead of visiting
all 2^c smoothing states it carries a map {matching of open ends ->
accumulated weight}, which stays small for the diagrams and cables treated
here.  :func:`brute_force_bracket` is the literal 2^c sum, kept as an
independent cross-check for small inputs.

Colored invariants follow by cabling with the degree-n Chebyshev pattern
(S_0 = 1, S_1 = x, S_n = x S_{n-1} - S_{n-2}), applied multilinearly to
the components, a deleted component being the 0-fold cable
(:func:`_cables`).  From n = 2 on, on a planar diagram, one component
instead carries the Jones-Wenzl projector directly:
:func:`colored_bracket` cuts it open and sweeps the n-cable of the long
knot once, keeping only the states that can still close up to the
identity tangle (:func:`_long_knot`).  That is far fewer states than
the whole cables carry, and the coefficient lambda of the identity is
the colored bracket divided by the colored unknot value delta(n).  So
the top coefficients that :func:`reduced_colored_top` returns come from
one degree window of that sweep, with no division.  Codes with no
planar drawing sum over the cables.  The framing correction divides by
(-1)^n A^(n^2+2n) per unit of writhe, and the reduced form divides by
the colored unknot value.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from . import diagram
from ._kernel import run_packed
from .errors import (Budget, BudgetError, ExactnessError, InternalError,
                     SkeinError)
from .poly import LaurentPoly, ONE, ZERO, exact_divide
from .quantum import delta, gamma


def _swept(pd: diagram.PDCode, floor: Optional[int], budget: Budget,
           plan: Optional[diagram.SweepPlan] = None) -> LaurentPoly:
    """The bracket of ``pd``; with ``floor``, only its terms of exponent
    >= floor.  Sweeps ``plan``, by default the greedy plan of pd; a plan
    with cut arcs gives the coefficient of the identity tangle instead
    (each cut arc joined up again).  Then multiplies in delta for each
    crossing-free circle.  The sweep checks the deadline at each step."""
    if plan is None and pd.crossings:
        plan = diagram.plan_sweep(pd)
        budget.check_width(plan.max_width)
    extra = pd.extra_circles
    # the circles outside the sweep reach 2*extra above the swept terms
    base, coeffs = run_packed(
        plan.program if plan else (),
        floor=None if floor is None else floor - 2 * extra,
        identity=plan.identity if plan else b"", tick=budget.check_time)
    out = LaurentPoly(tuple(
        (base + 2 * j, c) for j, c in enumerate(coeffs))) * delta(1) ** extra
    if floor is None:
        return out
    return LaurentPoly(tuple(t for t in out.terms if t[0] >= floor))


def bracket(pd: diagram.PDCode, budget: Budget = Budget()) -> LaurentPoly:
    """Kauffman-style bracket of a diagram: loop value -A^2-A^-2,
    empty diagram 1, A-smoothing weight A.

    Exponent support lies in a single parity class (the crossing count
    mod 2); this is checked on every call.
    """
    out = _swept(pd, None, budget)
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


def _cuts(pd: diagram.PDCode, n: int) -> bool:
    """Does color n of pd come from the cut n-cable (:func:`_long_knot`)?
    Only for n >= 2 on a planar code with crossings: at n = 1 a lone cut
    arc prunes nothing, and the whole 1-cable is as cheap to sweep and
    plans once; the projector argument needs a planar drawing."""
    return n > 1 and bool(pd.crossings) and not diagram.genus(pd)


def colored_bracket(pd: diagram.PDCode, n: int,
                    budget: Budget = Budget()) -> LaurentPoly:
    """Bracket of the diagram with every component carrying color n.

    For n >= 2 on a planar diagram with crossings this is
    lambda * delta(n), where lambda (:func:`_long_knot`) comes from one
    sweep of the n-cable cut open at one arc.  Otherwise it is the
    multilinear Chebyshev expansion over per-component cable sizes
    (:func:`_cables`), which stays the reference the tests compare with.
    colored_bracket(unknot, n) is the colored loop value delta(n).
    """
    if n < 0:
        raise ValueError("color must be >= 0")
    if not pd.crossings and not pd.extra_circles:
        return ONE
    if _cuts(pd, n):
        return _long_knot(pd, n, budget) * delta(n)
    total = LaurentPoly()
    for weight, cabled in _cables(pd, n):
        total = total + weight * bracket(cabled, budget)
    return total


def _long_knot(pd: diagram.PDCode, n: int, budget: Budget,
               floor: Optional[int] = None) -> LaurentPoly:
    """The colored bracket of a planar diagram divided by delta(n); with
    ``floor``, only its terms of exponent >= floor.

    Cut the component K of one arc p open (:func:`_cut_arc`), and let T
    in TL_n be the n-cable of the cut diagram, the other components
    carrying their Chebyshev cables.  The Jones-Wenzl projector f kills
    every Temperley-Lieb diagram but the identity (Kauffman-Lins,
    *Temperley-Lieb Recoupling Theory*, 1994), so f T f = lambda f for
    the coefficient lambda of the identity in T, and closing up gives
    lambda * delta(n).  lambda is a Laurent polynomial: the sweep of the
    cut cable returns it (see ``_sweep_py.run``), in a degree window
    when there is a floor.
    """
    sweeps = _long_knot_sweeps(pd, n)
    # every plan is checked before any sweep
    budget.check_width(max((plan.max_width for _, _, plan in sweeps if plan),
                           default=0))
    return sum((weight * _swept(cabled, floor, budget, plan)
                for weight, cabled, plan in sweeps), ZERO)


@functools.lru_cache(maxsize=32)
def _long_knot_sweeps(pd: diagram.PDCode, n: int):
    """(weight, cable, plan) per Chebyshev pattern of the components
    other than K, for :func:`_long_knot`; the last is the all-n cable.

    The plan cuts the copies of the arc chosen by :func:`_cut_arc`.
    Where K crosses only deleted components, its cut copies are the
    identity tangle beside the rest of the cable, and the plan is the
    closed one of that rest (None when it has no crossings).
    """
    info = diagram.analyze(pd)
    arc, full, full_plan = _cut_arc(pd, n)
    k = info.comp_of_arc[arc]
    out = []
    for weight, mults in _patterns(n, info.total_components - 1):
        mults.insert(k, n)
        cabled, plan = full, full_plan
        if set(mults) != {n}:
            copies = {}
            cabled = diagram.cable_multi(pd, mults, copies)
            if copies[arc] is None:
                mults[k] = 0
                cabled = diagram.cable_multi(pd, mults)
                plan = diagram.plan_sweep(cabled) if cabled.crossings else None
            else:
                plan = diagram.plan_sweep(cabled, cut=copies[arc])
        out.append((weight, cabled, plan))
    return tuple(out)


def _cut_arc(pd: diagram.PDCode, n: int):
    """(arc, cable, plan): the arc whose n copies :func:`_long_knot`
    cuts, and the n-cable of pd with its plan, cut there.

    Candidates are the arcs of pd, those open for the most steps of its
    greedy plan first; a kink arc is open for none.  The first whose
    cut cable plans no wider than the closed cable wins, else the
    narrowest.
    """
    steps = {}
    for t, ci in enumerate(diagram.plan_sweep(pd).order):
        for a in set(pd.crossings[ci]):
            steps.setdefault(a, []).append(t)
    copies = {}
    cabled = diagram.cable_multi(
        pd, [n] * diagram.analyze(pd).total_components, copies)
    closed = diagram.plan_sweep(cabled).max_width
    best = None
    for arc in sorted(steps, key=lambda a: (steps[a][0] - steps[a][-1], a)):
        plan = diagram.plan_sweep(cabled, cut=copies[arc])
        if plan.max_width <= closed:
            return arc, cabled, plan
        if best is None or plan.max_width < best[1].max_width:
            best = arc, plan
    return best[0], cabled, best[1]


def _patterns(n: int, k: int):
    """(weight, multiplicities) of the multilinear Chebyshev expansion of
    k components at color n; the last has every multiplicity n."""
    for combo in itertools.product(chebyshev_coefficients(n), repeat=k):
        weight = 1
        for _, c in combo:
            weight *= c
        yield weight, [m for m, _ in combo]


def _cables(pd: diagram.PDCode, n: int):
    """(weight, cable) pairs of the multilinear Chebyshev expansion at
    color n; the last cable carries every component n-fold."""
    k = diagram.analyze(pd).total_components if pd.crossings \
        else pd.extra_circles
    for weight, mults in _patterns(n, k):
        yield weight, diagram.cable_multi(pd, mults)


def unreduced_colored(pd: diagram.PDCode, color_dim: int,
                      budget: Budget = Budget()) -> LaurentPoly:
    """Framing-corrected colored invariant, unknot -> delta(color_dim - 1).

    ``color_dim`` is the number of strand states N >= 1; the cable width
    is n = N - 1.
    """
    if color_dim < 1:
        raise ValueError("color dimension must be >= 1")
    n = color_dim - 1
    w = diagram.writhe(pd) if pd.crossings else 0
    frame = gamma(n, n, 0) ** (-w)
    return frame * colored_bracket(pd, n, budget)


def reduced_colored(pd: diagram.PDCode, color_dim: int,
                    budget: Budget = Budget()) -> LaurentPoly:
    """Unreduced form divided (exactly) by the colored unknot value.

    On a code with no planar drawing the cabled invariant need not be
    divisible; that raises SkeinError.
    """
    unreduced = unreduced_colored(pd, color_dim, budget)
    try:
        return exact_divide(unreduced, delta(color_dim - 1))
    except ExactnessError:
        g = diagram.genus(pd) if pd.crossings else 0
        if not g:
            raise
        raise SkeinError(
            f"the code has genus {g} (it has no planar drawing), and its "
            f"cabled invariant at color {color_dim} is not divisible by "
            f"the colored unknot") from None


def jones_polynomial(pd: diagram.PDCode,
                     budget: Budget = Budget()) -> LaurentPoly:
    """The classical case: reduced 2-dimensional invariant, in A."""
    return reduced_colored(pd, 2, budget)


def reduced_colored_top(pd: diagram.PDCode, color_dim: int, terms: int,
                        budget: Budget = Budget()
                        ) -> tuple[LaurentPoly, Optional[int]]:
    """The top ``terms`` q-coefficients of :func:`reduced_colored`.

    Returns ``(p, floor)``.  floor is None exactly when p is the whole
    invariant.  Otherwise p equals ``reduced_colored(pd, color_dim)`` on
    the A-exponents >= floor and is zero below; its top is the true top,
    and it holds at least ``terms`` q-coefficients.  This function alone
    decides between a window and the whole invariant.

    The reduced invariant is frame * lambda, for lambda of
    :func:`_long_knot` and the monomial frame of the writhe, so a degree
    window on the cut sweep is a window on the answer.  With T crossings
    and c_A, c_B circles in the all-A, all-B states of the all-n cable,
    lambda lies between -(T + 2*c_B) + 2n and T + 2*c_A - 2n.  The window
    descends from that top, which an A-adequate diagram attains: a window
    that shows a lower top is swept again with the floor under it, an
    empty one steps down further each time, and at the bottom bound the
    window is the full sweep, so p is whole.  Where :func:`colored_bracket`
    does not cut (below color 3, and on a code with no planar drawing or
    no crossings), p is the whole invariant as it computes it.
    """
    if color_dim < 1 or terms < 1:
        raise ValueError("color dimension and terms must be >= 1")
    n = color_dim - 1
    if not _cuts(pd, n):
        return reduced_colored(pd, color_dim, budget), None
    full = _long_knot_sweeps(pd, n)[-1][1]
    t = len(full.crossings)
    a = diagram.apply_state(full, diagram.all_a(full)).count
    b = diagram.apply_state(full, diagram.all_b(full)).count
    ceiling, bottom = t + 2 * a - 2 * n, -t - 2 * b + 2 * n
    span, step = 4 * (terms - 1), 4 * terms
    floor = max(ceiling - span, bottom)
    while True:
        total = _long_knot(pd, n, budget, floor)
        if floor == bottom or (not total.is_zero
                               and total.max_degree() >= floor + span):
            break
        # a nonzero window shows the true top; an empty one steps down
        floor = max(bottom, floor - step if total.is_zero
                    else total.max_degree() - span)
        step *= 2
    frame = gamma(n, n, 0) ** (-diagram.writhe(pd))
    return frame * total, (None if floor == bottom
                           else floor + frame.max_degree())
