"""Stable coefficient series of the colored invariants.

Two Laurent series in q "agree to order n" (written here as dot_eq)
when, after each is normalized by a sign and a power of q to start with
a positive constant term, all coefficients of q^e for e < n coincide.
As the color grows, the low-end coefficients of the reduced colored
invariant of an adequate link freeze one by one; the resulting limit
series is the *tail* (and, at the other end of the polynomial, the
*head* — computed here as the tail of the mirror).

This module provides the comparison, the extraction of verified stable
coefficients, and a per-color verification harness used by the CLI.
Each series is a :class:`skeinkit.poly.QSeries`: with its sign and
lowest power of q factored out, the series of a knot or of a link
steps in whole powers of q, and the tail of either is listed in them.

Both compare only the first few coefficients, so each color is asked
for only those: :func:`skeinkit.jones.reduced_colored_top` returns the
top of the reduced invariant, in a window it lowers until it holds
them, or the whole invariant where it takes no window (below color 3,
and on a code that is not planar).  The one path here widens a window
until it decides what the full polynomials would, so results never
depend on the window.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .diagram import PDCode, mirror
from .errors import Budget, BudgetError, InternalError, StabilizationError
from .jones import reduced_colored_top
from .poly import LaurentPoly, QSeries, to_q


def normalize(p: LaurentPoly) -> QSeries:
    """The q-series of p: sign and lowest power factored out, so that it
    starts with a positive constant term.  Rejects zero with ValueError.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no normalized series")
    return to_q(p)


def dot_eq(p1, p2, n: int) -> tuple[bool, int | None]:
    """Do the normalized series agree below exponent n (in q-units)?

    Returns (verdict, first_mismatch): the verdict covers coefficients
    of q^e for 0 <= e < n after normalization; first_mismatch is the
    offset of the earliest disagreement anywhere in the two series
    (None when they are identical), measured in steps of the finer of
    the two series — whole powers of q unless one has half steps.
    """
    s1, s2 = normalize(p1), normalize(p2)
    if s1.step_halves != s2.step_halves:
        s1, s2 = s1.in_halves(), s2.in_halves()
    length = max(len(s1.coeffs), len(s2.coeffs))
    mismatch = None
    for i in range(length):
        if s1.coefficient(i) != s2.coefficient(i):
            mismatch = i
            break
    # units per q: one step when integral (step 2 halves), two otherwise
    per_q = 2 // s1.step_halves
    ok = mismatch is None or mismatch >= n * per_q
    return ok, mismatch


def _series(window_pd: PDCode, color_dim: int, terms: int,
            budget: Budget) -> tuple[LaurentPoly, int | None]:
    """(series, held) of one color: the top held >= terms q-coefficients
    of the series are exact.  held is None when the series is whole."""
    p, floor = reduced_colored_top(window_pd, color_dim, terms, budget)
    return p, None if floor is None else (p.max_degree() - floor) // 4 + 1


def tail_extract(d: PDCode, k: int, side: str = "tail",
                 budget: Budget = Budget()) -> list[int]:
    """First k verified-stable coefficients of the tail (or head).

    Computes the reduced invariant at colors k and k+1 and confirms
    they agree below q^k before reporting anything; a disagreement
    raises StabilizationError with the witness.  The head is the tail
    of the mirror diagram, whose invariant is the mirrored polynomial
    (q -> 1/q).  ``budget`` bounds each sweep, as in
    :func:`skeinkit.jones.reduced_colored_top`.  Each color is asked for
    its top k q-coefficients only (and the lowest term, when a window
    ends in zeros); they decide the comparison below q^k, the witness
    included.
    """
    if k < 1:
        raise ValueError("need k >= 1 coefficients")
    if side not in ("tail", "head"):
        raise ValueError(f"side must be 'tail' or 'head', not {side!r}")
    # the top A-end of d carries its tail, the top of its mirror the head
    window_pd = d if side == "tail" else mirror(d)
    jk, held = _series(window_pd, k, k, budget)
    jk1, _ = _series(window_pd, k + 1, k, budget)
    ok, mismatch = dot_eq(jk, jk1, k)
    if not ok:
        raise StabilizationError(k, mismatch,
                                 detail=f"{side} coefficients beyond this "
                                        f"offset are not stable")
    coeffs = list(normalize(jk).coeffs[:k])
    if held is not None and len(coeffs) < k:
        # zeros that end the window are the series' own only if a term
        # follows them; the mirror's 1-term window holds the lowest term
        low, _ = reduced_colored_top(mirror(window_pd), k, 1, budget)
        if -low.max_degree() < jk.max_degree() - 4 * (held - 1):
            coeffs += [0] * (k - len(coeffs))
    return coeffs


class StabilizationRecord(NamedTuple):
    """One comparison J_N vs J_{N+1}."""

    color: int
    verdict: bool
    mismatch: int | None  # first differing offset anywhere, if any
    seconds: float

    def as_dict(self) -> dict:
        return {"color": self.color, "verdict": self.verdict,
                "mismatch": self.mismatch,
                "seconds": round(self.seconds, 3)}


class StabilizationReport(NamedTuple):
    """Verdicts of J_N ≐_N J_{N+1} for N = 2..Nmax-1."""

    records: tuple[StabilizationRecord, ...]
    complete: bool

    @property
    def all_true(self) -> bool:
        return self.complete and all(r.verdict for r in self.records)

    def as_dict(self) -> dict:
        return {"complete": self.complete,
                "all_stable": self.all_true,
                "records": [r.as_dict() for r in self.records]}


def _compare(window_pd: PDCode, prev, cur, n: int, budget: Budget):
    """dot_eq of colors n and n+1, each a (series, held) pair from
    :func:`_series`, both widened until they hold the first difference
    or are whole; and color n+1 as widened.  Each widening must hold
    more terms than the last, else InternalError."""
    last = 0
    while True:
        (p1, h1), (p2, h2) = prev, cur
        ok, mismatch = dot_eq(p1, p2, n)
        held = min((h for h in (h1, h2) if h is not None), default=None)
        if held is None:
            return ok, mismatch, cur
        if held <= last:
            raise InternalError(
                f"widening colors {n} and {n + 1} holds {held} terms, "
                f"not more than the {last} before")
        last = held
        # mismatch counts whole powers of q, or halves if a series has
        # half steps, so mismatch < held puts it inside both windows
        if mismatch is not None and mismatch < held:
            return ok, mismatch, cur
        prev = _series(window_pd, n, 2 * held, budget)
        cur = _series(window_pd, n + 1, 2 * held, budget)


def stabilization_check(d: PDCode, n_max: int,
                        budget: Budget = Budget()) -> StabilizationReport:
    """Compare consecutive colors up to n_max.

    Each record says whether the reduced invariants at colors N and N+1
    agree below q^N, and where they first differ.  Each color is first
    computed in a window of N+1 terms, which :func:`_compare` widens
    while a pair's first difference lies outside it.
    A BudgetError of ``budget`` (its width limit, or its deadline,
    checked during each sweep) stops the scan and flags the report
    incomplete rather than raising.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    records = []
    complete = True
    prev = None
    for color in range(2, n_max + 1):
        t0 = time.monotonic()
        try:
            # color N is compared with N-1 and N+1, which need N and N+1
            # terms
            cur = _series(d, color, min(color + 1, n_max), budget)
            if prev is not None:
                ok, mismatch, cur = _compare(d, prev, cur, color - 1, budget)
                records.append(StabilizationRecord(
                    color - 1, ok, mismatch, time.monotonic() - t0))
        except BudgetError:
            complete = False
            break
        prev = cur
    return StabilizationReport(tuple(records), complete)
