"""Temperley-Lieb combinatorics: matchings, idempotents, networks.

The monoid TLM_n consists of crossingless matchings of n bottom and n
top boundary points; stacking two matchings and deleting closed loops
gives the product, with each deleted loop worth a factor
delta = -A^2 - A^-2 in the algebra TL_n.  This module provides:

* :class:`Matching` and its product (:func:`compose`, with loop count),
* :class:`TLElement`, sparse linear combinations with exact
  rational-function coefficients,
* the Jones-Wenzl idempotents f^(n) by their two-term recursion,
* minimum hook-word length via breadth-first search (an exact oracle
  used by degree-bound tests),
* a brute-force evaluator for closed planar networks of idempotent
  boxes (:func:`network_evaluate`), exponential but exact, used to
  cross-check closed formulas.

Boundary points are numbered 0..n-1 along the bottom (left to right)
and n..2n-1 along the top (left to right); the boundary circle is
traversed bottom left-to-right, then top right-to-left.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import deque
from typing import Iterator, Sequence

from .errors import AdmissibilityError, BudgetError, PDError
from .poly import LaurentPoly, RationalFn
from .quantum import delta


# ---------------------------------------------------------------------------
# matchings

def _circle_order(n: int) -> list[int]:
    """Boundary points in circular order around the rectangle."""
    return list(range(n)) + list(range(2 * n - 1, n - 1, -1))


@dataclasses.dataclass(frozen=True, slots=True)
class Matching:
    """A crossingless pairing of n bottom with n top boundary points.

    ``partner[p]`` is the point paired with p.  Planarity (no two pairs
    interleaving in the boundary circle) is enforced at construction.
    """

    n: int
    partner: tuple[int, ...]

    def __post_init__(self):
        p = self.partner
        if len(p) != 2 * self.n:
            raise PDError("partner array has wrong length")
        for i, j in enumerate(p):
            if not 0 <= j < 2 * self.n or j == i or p[j] != i:
                raise PDError("not a fixed-point-free involution")
        # planarity: recover the pairing from the parenthesis walk and
        # compare; interleaved pairs close in the wrong order.
        stack: list[int] = []
        for pt in _circle_order(self.n):
            if stack and p[stack[-1]] == pt:
                stack.pop()
            else:
                stack.append(pt)
        if stack:
            raise PDError("matching is not planar")

    @classmethod
    def identity(cls, n: int) -> "Matching":
        part = [0] * (2 * n)
        for i in range(n):
            part[i], part[n + i] = n + i, i
        return cls(n, tuple(part))

    def paren_string(self) -> str:
        """Balanced parentheses along the boundary circle (canonical)."""
        out = []
        seen = set()
        for pt in _circle_order(self.n):
            if pt in seen:
                out.append(")")
            else:
                out.append("(")
                seen.add(self.partner[pt])
        return "".join(out)

    def is_identity(self) -> bool:
        return all(self.partner[i] == self.n + i for i in range(self.n))

    def __str__(self) -> str:
        return self.paren_string()


def hook(n: int, i: int) -> Matching:
    """The generator h_i in TLM_n: caps strands i, i+1 top and bottom.

    ``i`` is 1-based, 1 <= i <= n-1, matching the usual notation.
    """
    if not 1 <= i <= n - 1:
        raise PDError(f"hook index {i} out of range for {n} strands")
    part = list(Matching.identity(n).partner)
    b0, b1 = i - 1, i
    t0, t1 = n + i - 1, n + i
    part[b0], part[b1] = b1, b0
    part[t0], part[t1] = t1, t0
    return Matching(n, tuple(part))


def enumerate_matchings(n: int) -> list[Matching]:
    """All of TLM_n (Catalan(n) matchings), in a deterministic order."""
    order = _circle_order(n)

    def pairings(span: Sequence[int]) -> Iterator[list[tuple[int, int]]]:
        if not span:
            yield []
            return
        first = span[0]
        for k in range(1, len(span), 2):
            inner, outer = span[1:k], span[k + 1:]
            for pi in pairings(inner):
                for po in pairings(outer):
                    yield [(first, span[k])] + pi + po

    out = []
    for pairing in pairings(order):
        part = [0] * (2 * n)
        for a, b in pairing:
            part[a], part[b] = b, a
        out.append(Matching(n, tuple(part)))
    out.sort(key=lambda m: m.paren_string())
    return out


def compose(m1: Matching, m2: Matching) -> tuple[Matching, int]:
    """Stack m2 on top of m1; return the resulting matching and the
    number of closed loops deleted.

    The glued points are m1's top row and m2's bottom row.  Global point
    ids: m1 bottom 0..n-1, junction row n..2n-1, m2 top 2n..3n-1.
    """
    if m1.n != m2.n:
        raise PDError("strand counts differ")
    n = m1.n
    adj: dict[int, list[int]] = {p: [] for p in range(3 * n)}

    def edge(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    for i in range(2 * n):
        if i < m1.partner[i]:
            edge(i, m1.partner[i])
    for i in range(2 * n):
        j = m2.partner[i]
        if i < j:
            # m2's bottom row lands on the junction row, its top row on
            # the result's top row: both are a shift by n
            edge(i + n, j + n)

    def step(prev: int, cur: int) -> int:
        nbrs = list(adj[cur])
        nbrs.remove(prev)  # drop one occurrence; handles double edges
        return nbrs[0]

    part = [0] * (2 * n)
    done = set()
    visited_junction = set()
    for start in itertools.chain(range(n), range(2 * n, 3 * n)):
        a = start if start < n else start - n
        if a in done:
            continue
        prev, cur = start, adj[start][0]
        while n <= cur < 2 * n:
            visited_junction.add(cur)
            prev, cur = cur, step(prev, cur)
        b = cur if cur < n else cur - n
        part[a], part[b] = b, a
        done.update((a, b))
    loops = 0
    for start in range(n, 2 * n):
        if start in visited_junction:
            continue
        visited_junction.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            visited_junction.add(cur)
            prev, cur = cur, step(prev, cur)
        loops += 1
    return Matching(n, tuple(part)), loops


# ---------------------------------------------------------------------------
# the algebra

_DELTA = RationalFn.of(delta(1))


def _coeff(x) -> RationalFn:
    return x if isinstance(x, RationalFn) else RationalFn.of(x)


@dataclasses.dataclass(frozen=True)
class TLElement:
    """A linear combination of matchings with RationalFn coefficients.

    Coefficients are kept unreduced; zero terms are dropped.
    """

    n: int
    terms: tuple[tuple[Matching, RationalFn], ...]

    @classmethod
    def build(cls, n: int, items) -> "TLElement":
        acc: dict[Matching, RationalFn] = {}
        for m, c in items:
            if m.n != n:
                raise PDError("mixed strand counts in one element")
            c = _coeff(c)
            acc[m] = acc[m] + c if m in acc else c
        kept = [(m, c) for m, c in acc.items() if not c.is_zero]
        kept.sort(key=lambda mc: mc[0].paren_string())
        return cls(n, tuple(kept))

    @classmethod
    def of_matching(cls, m: Matching, coeff=1) -> "TLElement":
        return cls.build(m.n, [(m, coeff)])

    @classmethod
    def identity_element(cls, n: int) -> "TLElement":
        return cls.of_matching(Matching.identity(n))

    @classmethod
    def zero(cls, n: int) -> "TLElement":
        return cls(n, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Matching) -> RationalFn:
        for mm, c in self.terms:
            if mm == m:
                return c
        return RationalFn.of(0)

    def __add__(self, other: "TLElement") -> "TLElement":
        if self.n != other.n:
            raise PDError("strand counts differ")
        return TLElement.build(self.n,
                               list(self.terms) + list(other.terms))

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(-1)

    def scale(self, c) -> "TLElement":
        c = _coeff(c)
        return TLElement.build(self.n,
                               [(m, cm * c) for m, cm in self.terms])

    def __mul__(self, other: "TLElement") -> "TLElement":
        """Algebra product: other is stacked on top of self."""
        if self.n != other.n:
            raise PDError("strand counts differ")
        out = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m, loops = compose(m1, m2)
                c = c1 * c2
                for _ in range(loops):
                    c = c * _DELTA
                out.append((m, c))
        return TLElement.build(self.n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.n == other.n and dict(self.terms) == dict(other.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{m}" for m, c in self.terms)




def _scaled_product(t1: dict[Matching, LaurentPoly],
                    t2: dict[Matching, LaurentPoly],
                    ) -> dict[Matching, LaurentPoly]:
    """TL product of two poly-coefficient term maps (loops -> delta)."""
    d = delta(1)
    out: dict[Matching, LaurentPoly] = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m, loops = compose(m1, m2)
            c = c1 * c2 * d ** loops
            out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if not c.is_zero}


@functools.lru_cache(maxsize=None)
def _jones_wenzl_scaled(n: int) -> tuple[dict, LaurentPoly]:
    """f^(n) as (poly-coefficient terms, shared denominator).

    Working over a single denominator keeps every intermediate sum in
    plain Laurent-polynomial arithmetic; the rational coefficients are
    only formed at the end.  Recursion (inside TL_{n+1}):

        f^(n+1) = f^(n) - (Delta_{n-1}/Delta_n) f^(n) h_n f^(n)

    so with f^(n) = E/D the next pair is
    (Delta_n*D*E - Delta_{n-1}*E*h*E, Delta_n*D^2).
    """
    if n < 1:
        raise PDError("need at least one strand")
    if n == 1:
        return {Matching.identity(1): LaurentPoly.constant(1)}, \
            LaurentPoly.constant(1)
    terms, den = _jones_wenzl_scaled(n - 1)
    ext = {}
    for m, c in terms.items():
        part = [0] * (2 * n)
        for i, j in enumerate(m.partner):
            gi = i if i < n - 1 else i + 1
            gj = j if j < n - 1 else j + 1
            part[gi] = gj
        part[n - 1], part[2 * n - 1] = 2 * n - 1, n - 1
        ext[Matching(n, tuple(part))] = c
    hk = {hook(n, n - 1): LaurentPoly.constant(1)}
    ehe = _scaled_product(_scaled_product(ext, hk), ext)
    d_lo, d_hi = delta(n - 2), delta(n - 1)
    out = {m: c * d_hi * den for m, c in ext.items()}
    for m, c in ehe.items():
        adj = c * d_lo
        out[m] = out[m] - adj if m in out else -adj
    return ({m: c for m, c in out.items() if not c.is_zero},
            d_hi * den * den)


@functools.lru_cache(maxsize=None)
def jones_wenzl(n: int) -> TLElement:
    """The idempotent f^(n): kills every hook, coefficient 1 on identity.

    All coefficients share one literal denominator, so sums of products
    of them stay denominator-aligned (fast exact addition).
    """
    terms, den = _jones_wenzl_scaled(n)
    return TLElement.build(
        n, [(m, RationalFn(c, den)) for m, c in terms.items()])


def partial_trace(el: TLElement) -> TLElement:
    """Close the rightmost strand of el around the side.

    Bottom point n-1 is joined to top point 2n-1; a pair that connected
    exactly those two becomes a free loop worth delta.
    """
    n = el.n
    if n < 1:
        raise PDError("nothing to trace")
    b, t = n - 1, 2 * n - 1

    def drop(i: int) -> int:
        # reindex after removing points b and t
        return i if i < b else i - 1

    out = []
    for m, c in el.terms:
        part = [0] * (2 * n - 2)
        if m.partner[b] == t:
            for i, j in enumerate(m.partner):
                if i in (b, t):
                    continue
                part[drop(i)] = drop(j)
            out.append((Matching(n - 1, tuple(part)), c * _DELTA))
        else:
            x, y = m.partner[b], m.partner[t]
            for i, j in enumerate(m.partner):
                if i in (b, t) or j in (b, t):
                    continue
                part[drop(i)] = drop(j)
            part[drop(x)], part[drop(y)] = drop(y), drop(x)
            out.append((Matching(n - 1, tuple(part)), c))
    return TLElement.build(n - 1, out)


@functools.lru_cache(maxsize=None)
def _word_lengths(n: int) -> dict[Matching, int]:
    """BFS distance from the identity under right-multiplication by hooks."""
    hooks = [hook(n, i) for i in range(1, n)] if n > 1 else []
    start = Matching.identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for h in hooks:
            m2, _ = compose(m, h)
            if m2 not in dist:
                dist[m2] = dist[m] + 1
                queue.append(m2)
    return dist


def min_word_length(m: Matching) -> int:
    """Fewest hooks whose product is m (0 for the identity)."""
    return _word_lengths(m.n)[m]


# ---------------------------------------------------------------------------
# closed planar networks of idempotent boxes

Port = tuple[int, str, int]  # (box index, "b" | "t", strand index)


@dataclasses.dataclass(frozen=True)
class PlanarNetwork:
    """A closed crossing-free diagram: idempotent boxes joined by arcs.

    ``boxes[i]`` is the width of the i-th Jones-Wenzl box; every port
    (i, side, k) with side "b"/"t" and 0 <= k < width must appear in
    exactly one arc.  ``circles`` counts free loops not touching any
    box.
    """

    boxes: tuple[int, ...] = ()
    arcs: tuple[tuple[Port, Port], ...] = ()
    circles: int = 0

    def __post_init__(self):
        want = {(i, s, k)
                for i, w in enumerate(self.boxes)
                for s in "bt" for k in range(w)}
        seen = []
        for p, q in self.arcs:
            seen.extend((p, q))
        if len(seen) != len(set(seen)) or set(seen) != want:
            raise PDError("arcs must cover every box port exactly once")


def _port_cycles(net: PlanarNetwork,
                 pick: Sequence[Matching]) -> int:
    """Circles formed by the arcs plus each box's chosen matching."""
    nxt: dict[Port, list[Port]] = {}
    for p, q in net.arcs:
        nxt.setdefault(p, []).append(q)
        nxt.setdefault(q, []).append(p)
    for i, m in enumerate(pick):
        w = m.n
        for a in range(2 * w):
            b = m.partner[a]
            if a < b:
                pa = (i, "b", a) if a < w else (i, "t", a - w)
                pb = (i, "b", b) if b < w else (i, "t", b - w)
                nxt.setdefault(pa, []).append(pb)
                nxt.setdefault(pb, []).append(pa)
    seen: set[Port] = set()
    cycles = 0
    for start in nxt:
        if start in seen:
            continue
        cycles += 1
        prev, cur = None, start
        while cur not in seen:
            seen.add(cur)
            nbrs = list(nxt[cur])
            if prev is not None:
                nbrs.remove(prev)
            prev, cur = cur, nbrs[0]
    return cycles


def network_evaluate(net: PlanarNetwork,
                     max_network: int = 2_000_000) -> RationalFn:
    """Exact value of a closed network, by expanding every box.

    Each box contributes its idempotent's terms; a full choice of
    matchings leaves only circles, each worth delta.  Cost is the
    product of term counts over all boxes (checked against the
    max_network budget), so this is an oracle for small inputs, not an
    algorithm.
    """
    idems = [jones_wenzl(w) for w in net.boxes]
    size = 1
    for el in idems:
        size *= len(el.terms)
    if size > max_network:
        raise BudgetError("max_network", max_network, needed=size,
                          detail="network expansion too large")
    # expand wider boxes first so early zero coefficients cut the most
    order = sorted(range(len(idems)),
                   key=lambda i: -len(idems[i].terms))
    total = RationalFn.of(0)
    for combo in itertools.product(*(idems[i].terms for i in order)):
        pick: list[Matching] = [None] * len(idems)  # type: ignore
        coeff = RationalFn.of(1)
        for slot, (m, c) in zip(order, combo):
            pick[slot] = m
            coeff = coeff * c
        circles = _port_cycles(net, pick) + net.circles
        term = coeff
        for _ in range(circles):
            term = term * _DELTA
        total = total + term
    return total


def circle_network(k: int = 1) -> PlanarNetwork:
    """k free circles, no boxes."""
    return PlanarNetwork(circles=k)


def trace_network(n: int) -> PlanarNetwork:
    """The trace closure of f^(n): top strand i arcs back to bottom i."""
    arcs = tuple((( 0, "t", i), (0, "b", i)) for i in range(n))
    return PlanarNetwork(boxes=(n,), arcs=arcs)


def theta_network(a: int, b: int, c: int) -> PlanarNetwork:
    """Two trivalent vertices joined by edges colored a, b, c.

    Box 0 carries f^(a), box 1 f^(b), box 2 f^(c); writing
    x = (b+c-a)/2, y = (a+c-b)/2, z = (a+b-c)/2, the top vertex joins
    the last z strands of a to the first z of b, the last x of b to the
    first x of c, and the first y of a to the last y of c (all reversed,
    as the arcs bend around); the bottom vertex mirrors this.
    """
    if (a + b + c) % 2 or any(v < 0 for v in (b + c - a, a + c - b,
                                              a + b - c)):
        raise AdmissibilityError(f"({a},{b},{c}) is not admissible")
    x, y, z = (b + c - a) // 2, (a + c - b) // 2, (a + b - c) // 2
    arcs = []
    for side in "tb":
        for i in range(z):
            arcs.append(((0, side, y + i), (1, side, z - 1 - i)))
        for j in range(x):
            arcs.append(((1, side, z + j), (2, side, x - 1 - j)))
        for i in range(y):
            arcs.append(((0, side, i), (2, side, x + y - 1 - i)))
    return PlanarNetwork(boxes=(a, b, c), arcs=tuple(arcs))


def identity_replacement_degree(net: PlanarNetwork) -> int:
    """-2 times the circle count after replacing every box by identity.

    This is the lower bound that adequate networks attain exactly.
    """
    pick = [Matching.identity(w) for w in net.boxes]
    return -2 * (_port_cycles(net, pick) + net.circles)
