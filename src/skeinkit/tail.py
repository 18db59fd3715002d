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

Both compare only the first few coefficients, so on a side where the
diagram is adequate (and planar) they compute only those: the top of the
reduced invariant, by :func:`skeinkit.jones.reduced_colored_top`.  There
the top is certified, and the window equals the full polynomial's top;
a window that cannot show what is compared falls back to the full
polynomials, so results never depend on the window.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Union

from .diagram import MAX_WIDTH, PDCode, adequacy, genus, mirror
from .errors import BudgetError, StabilizationError
from .jones import reduced_colored, reduced_colored_top
from .poly import LaurentPoly, QPresentation, to_q


@dataclasses.dataclass(frozen=True, slots=True)
class QSeries:
    """A normalized q-series: sign * q^(shift/2) * sum coeffs[i] q^(step*i/2).

    ``coeffs[0]`` is positive and ``coeffs[-1]`` nonzero; ``step_halves``
    is 2 when all exponents are whole powers of q (every knot), 1 when
    half-powers occur (even component count).  ``shift_halves`` is the
    factored-out lowest exponent, in half-power units.
    """

    sign: int
    shift_halves: int
    step_halves: int
    coeffs: tuple[int, ...]

    def coefficient(self, i: int) -> int:
        """i-th normalized coefficient (0 beyond the end of the series)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def in_halves(self) -> "QSeries":
        """The same series re-expressed with step 1 (interior zeros)."""
        if self.step_halves == 1:
            return self
        co = [0] * (2 * len(self.coeffs) - 1)
        co[::2] = self.coeffs
        return QSeries(self.sign, self.shift_halves, 1, tuple(co))


def normalize(p: Union[LaurentPoly, QPresentation]) -> QSeries:
    """Factor out sign and leading power so the series starts with +c, c > 0.

    Accepts an A-polynomial (converted through its q-presentation) or a
    ready q-presentation.  Rejects zero.
    """
    q = to_q(p) if isinstance(p, LaurentPoly) else p
    lo = q.min_halfq
    halves = list(q.coeffs)  # dense in half-q steps starting at lo
    step = 2 if all(c == 0 for c in halves[1::2]) and lo % 2 == 0 else 1
    co = halves[::step]
    while co and co[-1] == 0:
        co.pop()
    sign = 1 if co[0] > 0 else -1
    return QSeries(sign * q.sign, lo, step, tuple(sign * c for c in co))


def dot_eq(p1, p2, n: int) -> tuple[bool, int | None]:
    """Do the normalized series agree below exponent n (in q-units)?

    Returns (verdict, first_mismatch): the verdict covers coefficients
    of q^e for 0 <= e < n after normalization; first_mismatch is the
    offset of the earliest disagreement anywhere in the two series
    (None when they are identical), measured in steps of the finer of
    the two series — whole powers of q when both are q-integral.
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


def _window_diagram(d: PDCode, side: str):
    """The diagram whose top A-end carries ``side`` of d's series, if
    that end can be windowed: d is planar, has crossings, and is
    A-adequate (tail) or B-adequate (head, the mirror's tail).

    Planarity keeps every exponent of the invariant in one class mod 4,
    so the window's normalization step is the full series' step.
    Returns None when the side needs the full polynomials.
    """
    if not d.crossings or genus(d):
        return None
    rep = adequacy(d)
    if side == "tail":
        return d if rep.a_adequate else None
    return mirror(d) if rep.b_adequate else None


def _full(d: PDCode, color_dim: int, side: str,
          max_width: int) -> LaurentPoly:
    p = reduced_colored(d, color_dim, max_width=max_width)
    return p.mirror() if side == "head" else p


def _series(d: PDCode, window_pd, color_dim: int, terms: int, side: str,
            max_width: int) -> tuple[LaurentPoly, int | None]:
    """(series, floor) of one color.  With a window diagram and a
    certified top, the series is exact on the A-exponents >= floor,
    which hold its top ``terms`` q-coefficients; otherwise it is the
    full series and floor is None."""
    if window_pd is not None:
        p, floor = reduced_colored_top(window_pd, color_dim, terms,
                                       max_width=max_width)
        if not p.is_zero and p.max_degree() >= floor + 4 * (terms - 1):
            return p, floor
    return _full(d, color_dim, side, max_width), None


def tail_extract(d: PDCode, k: int, side: str = "tail",
                 max_width: int = MAX_WIDTH) -> list[int]:
    """First k verified-stable coefficients of the tail (or head).

    Computes the reduced invariant at colors k and k+1 and confirms
    they agree below q^k before reporting anything; a disagreement
    raises StabilizationError with the witness.  The head is the tail
    of the mirrored polynomial (q -> 1/q).  ``max_width`` bounds each
    sweep, as in :func:`skeinkit.jones.reduced_colored`.  On an adequate
    side only the top k q-coefficients of each color are computed; they
    decide the comparison below q^k, the witness included.
    """
    if k < 1:
        raise ValueError("need k >= 1 coefficients")
    if side not in ("tail", "head"):
        raise ValueError(f"side must be 'tail' or 'head', not {side!r}")
    window_pd = _window_diagram(d, side)
    jk, floor = _series(d, window_pd, k, k, side, max_width)
    jk1, _ = _series(d, window_pd, k + 1, k, side, max_width)
    ok, mismatch = dot_eq(jk, jk1, k)
    if not ok:
        raise StabilizationError(k, mismatch,
                                 detail=f"{side} coefficients beyond this "
                                        f"offset are not stable")
    coeffs = list(normalize(jk).coeffs[:k])
    if len(coeffs) < k and floor is not None:
        # the window's k coefficients are exact, zeros included, and the
        # series goes on past them iff it has a term below the window;
        # a nonzero 1-term window of the mirror holds its lowest term
        low, _ = reduced_colored_top(mirror(window_pd), k, 1,
                                     max_width=max_width)
        if not low.is_zero and -low.max_degree() < floor:
            coeffs += [0] * (k - len(coeffs))
        else:
            coeffs = list(normalize(_full(d, k, side, max_width)).coeffs[:k])
    return coeffs


@dataclasses.dataclass(frozen=True, slots=True)
class StabilizationRecord:
    """One comparison J_N vs J_{N+1}."""

    color: int
    verdict: bool
    mismatch: int | None  # first differing offset anywhere, if any
    seconds: float

    def as_dict(self) -> dict:
        return {"color": self.color, "verdict": self.verdict,
                "mismatch": self.mismatch,
                "seconds": round(self.seconds, 3)}


@dataclasses.dataclass(frozen=True, slots=True)
class StabilizationReport:
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


def _compare(d: PDCode, prev, cur, n: int, max_width: int):
    """dot_eq of colors n and n+1, each a (series, floor) pair from
    :func:`_series` with windows of at least n+1 terms.

    Such windows hold the first difference when it lies at offset <= n
    (in q-units); otherwise the pair is compared on the full series.
    """
    (p1, f1), (p2, f2) = prev, cur
    ok, mismatch = dot_eq(p1, p2, n)
    if f1 is None and f2 is None:
        return ok, mismatch
    step = min(normalize(p1).step_halves, normalize(p2).step_halves)
    if mismatch is not None and step * mismatch <= 2 * n:
        return ok, mismatch
    return dot_eq(reduced_colored(d, n, max_width=max_width),
                  reduced_colored(d, n + 1, max_width=max_width), n)


def stabilization_check(d: PDCode, n_max: int,
                        max_width: int = MAX_WIDTH) -> StabilizationReport:
    """Compare consecutive colors up to n_max.

    Each record says whether the reduced invariants at colors N and N+1
    agree below q^N, and where they first differ.  On an A-adequate
    diagram each color is first computed in a window of N+1 terms; a
    pair whose first difference lies outside it is recomputed in full.
    A budget overrun (``max_width``, or a time limit raised as
    BudgetError) stops the scan and flags the report incomplete rather
    than raising.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    window_pd = _window_diagram(d, "tail")
    records = []
    complete = True
    prev = None
    for color in range(2, n_max + 1):
        t0 = time.monotonic()
        try:
            # color N is compared with N-1 and N+1, which need N and N+1
            # terms
            cur = _series(d, window_pd, color, min(color + 1, n_max),
                          "tail", max_width)
            if prev is not None:
                ok, mismatch = _compare(d, prev, cur, color - 1, max_width)
                records.append(StabilizationRecord(
                    color - 1, ok, mismatch, time.monotonic() - t0))
        except BudgetError:
            complete = False
            break
        prev = cur
    return StabilizationReport(tuple(records), complete)
