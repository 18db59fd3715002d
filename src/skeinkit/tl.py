"""Temperley-Lieb combinatorics: matchings, idempotents, networks.

The monoid TLM_n consists of crossingless matchings of n bottom and n
top boundary points; stacking two matchings and deleting closed loops
gives the product, with each deleted loop worth a factor
delta = -A^2 - A^-2 in the algebra TL_n.  This module provides:

* :class:`Matching` and its product (:func:`compose`, with loop count),
* :class:`TLElement`, sparse linear combinations whose coefficients
  are Laurent-polynomial numerators over one shared denominator;
  RationalFn coefficients appear only where values enter or leave an
  element, and the element product runs on integers: it packs each
  factor's numerators once by Kronecker substitution (a polynomial
  evaluated at a power of two) and unpacks each output numerator once,
* the Jones-Wenzl idempotents f^(n) by the single-clasp recursion
  f^(n) = sum_{k=1..n} (-1)^(n-k) (Delta_{k-1}/Delta_{n-1})
  (f^(n-1) (x) 1) h_{n-1} ... h_k, whose numerators fall over the
  canonical denominator delta_factorial(n-1) by construction,
* minimum hook-word length via breadth-first search (an exact oracle
  used by degree-bound tests),
* an exact evaluator for closed planar networks of idempotent boxes
  (:func:`network_evaluate`): it adds one box at a time and carries a
  numerator per matching of the ports still dangling, so its work
  grows with those matchings times each box's terms, not with the
  product of all boxes' term counts.  It drops every matching that
  caps two neighbouring strands of a box still to come, since a
  projector with such a cap is zero (Kauffman-Lins, *Temperley-Lieb
  Recoupling Theory*, 1994).

The matching and element products, :func:`partial_trace` and the
network evaluator glue partner arrays and count closed loops with the
sweep kernel's surgery (``_sweep_py._surgery``), whose byte keys allow
256 points per frame.

Boundary points are numbered 0..n-1 along the bottom (left to right)
and n..2n-1 along the top (left to right); the boundary circle is
traversed bottom left-to-right, then top right-to-left.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections import deque
from typing import Iterator, Sequence

from .errors import AdmissibilityError, Budget, PDError
from ._sweep_py import _repack, _surgery
from .poly import (
    ONE, ZERO, LaurentPoly, RationalFn, _pack, _unpack, exact_divide,
)
from .quantum import admissible, delta


# ---------------------------------------------------------------------------
# matchings

def _circle_order(n: int) -> list[int]:
    """Boundary points in circular order around the rectangle."""
    return list(range(n)) + list(range(2 * n - 1, n - 1, -1))


@dataclasses.dataclass(frozen=True, slots=True)
class Matching:
    """A crossingless pairing of n bottom with n top boundary points.

    ``partner[p]`` is the point paired with p.  Planarity (no two pairs
    interleaving in the boundary circle) is enforced at construction;
    products, partial traces and projector extensions, whose results
    are planar by construction, build theirs with :meth:`_trusted`.
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
    def _trusted(cls, n: int, partner: tuple[int, ...]) -> "Matching":
        """A matching whose partner array is already known to be a planar
        involution, such as a surgery result: the checks are skipped."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "partner", partner)
        return m

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

    m2's partner array goes beside m1's, shifted by 2n, and the sweep
    kernel's surgery joins point n+i to 2n+i.  Byte keys hold the 4n
    points for n <= 64; wider matchings raise ValueError.
    """
    if m1.n != m2.n:
        raise PDError("strand counts differ")
    n = m1.n
    frame = _stacking(n)        # first: it raises past 64 strands
    p = bytearray(m1.partner) + bytes(2 * n + j for j in m2.partner)
    key, loops = _surgery(p, *frame)
    return Matching._trusted(n, tuple(key)), loops


@functools.lru_cache(maxsize=None)
def _loops(k: int) -> LaurentPoly:
    """delta^k, the value of k closed loops; each power is raised once."""
    return delta(1) ** k


@functools.lru_cache(maxsize=None)
def _stacking(n: int):
    """The closures, closed indices and re-pack table of :func:`compose`."""
    closures = tuple((n + i, 2 * n + i) for i in range(n))
    return (closures, *_repack(4 * n, closures))


# ---------------------------------------------------------------------------
# the algebra

# eq=False: __eq__ below compares cross-multiplied coefficients, so a
# field-wise hash would not agree with it; elements stay unhashable
@dataclasses.dataclass(frozen=True, eq=False)
class TLElement:
    """A linear combination of matchings: numerators over one denominator.

    ``nums`` holds (matching, LaurentPoly numerator) pairs, sorted by
    matching and without zeros; every coefficient is ``num / den``.  Sums
    and scaling stay in Laurent polynomials, and the product in integers
    that pack them.  RationalFn appears only at the edge: :meth:`build` and :meth:`scale` take RationalFn (or int,
    LaurentPoly) coefficients, and :attr:`terms` and :meth:`coefficient`
    give them back, unreduced over ``den``.
    """

    n: int
    nums: tuple[tuple[Matching, LaurentPoly], ...]
    den: LaurentPoly = ONE

    @classmethod
    def _of_nums(cls, n: int, nums: dict[Matching, LaurentPoly],
                 den: LaurentPoly) -> "TLElement":
        kept = [(m, c) for m, c in nums.items() if not c.is_zero]
        kept.sort(key=lambda mc: mc[0].paren_string())
        return cls(n, tuple(kept), den)

    @classmethod
    def build(cls, n: int, items) -> "TLElement":
        """Sum coefficient*matching over items; the common denominator is
        the product of the distinct denominators given."""
        coeffs = [(m, RationalFn.of(c)) for m, c in items]
        dens = dict.fromkeys(c.den for _, c in coeffs)
        den = math.prod(dens, start=ONE)
        for d in dens:
            dens[d] = exact_divide(den, d)
        acc: dict[Matching, LaurentPoly] = {}
        for m, c in coeffs:
            if m.n != n:
                raise PDError("mixed strand counts in one element")
            num = c.num * dens[c.den]
            acc[m] = acc[m] + num if m in acc else num
        return cls._of_nums(n, acc, den)

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
    def terms(self) -> tuple[tuple[Matching, RationalFn], ...]:
        return tuple((m, RationalFn(c, self.den)) for m, c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, m: Matching) -> RationalFn:
        for mm, c in self.nums:
            if mm == m:
                return RationalFn(c, self.den)
        return RationalFn.of(0)

    def __add__(self, other: "TLElement") -> "TLElement":
        if self.n != other.n:
            raise PDError("strand counts differ")
        return TLElement.build(self.n, self.terms + other.terms)

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(-1)

    def scale(self, c) -> "TLElement":
        c = RationalFn.of(c)
        return TLElement._of_nums(
            self.n, {m: cm * c.num for m, cm in self.nums},
            self.den * c.den)

    def __mul__(self, other: "TLElement") -> "TLElement":
        """Algebra product: other is stacked on top of self.

        Each pair of terms is glued as in :func:`compose`: self's partner
        bytes, then other's shifted by 2n, joined by one surgery.  The
        numerators are Kronecker-packed into integers once per factor, so
        the sums and products per pair are integer operations, and each
        output numerator is unpacked once.
        """
        if self.n != other.n:
            raise PDError("strand counts differ")
        n, half = self.n, self.n // 2
        closures, dead, table = _stacking(n)    # first: it raises past 64
        left = [(m, c) for m, c in self.nums if c.terms]
        right = [(m, c) for m, c in other.nums if c.terms]
        # Each output numerator is a sum of c1 * c2 * delta^l over pairs,
        # with l <= n/2 loops closed among the n middle points.  Its
        # coefficients are at most its 1-norm in size, which is at most
        # B = sum|c1|_1 * sum|c2|_1 * 2^(n/2), since |delta^l|_1 = 2^l.
        # Packing evaluates polynomials at 2^k, so the packed sum holds
        # the output's coefficients as digits of size <= B < 2^(k-1):
        # balanced base-2^k digits read them back exactly.
        norm1 = sum(abs(x) for _, c in left for _, x in c.terms)
        norm2 = sum(abs(x) for _, c in right for _, x in c.terms)
        k = (norm1 * norm2 << half).bit_length() + 1
        lo1 = min((c.terms[0][0] for _, c in left), default=0)
        lo2 = min((c.terms[0][0] for _, c in right), default=0)
        heads = [(bytes(m.partner), _pack(c, lo1, k)) for m, c in left]
        tails = [(bytes(2 * n + j for j in m.partner), _pack(c, lo2, k))
                 for m, c in right]
        # delta^l packed at -2 * (n/2), at or below its lowest exponent
        # -2l, so that every pair's product shares one origin
        deltas = [_pack(_loops(l), -2 * half, k) for l in range(half + 1)]
        acc: dict[tuple[bytes, int], int] = {}
        for head, v1 in heads:
            # sum the right factors that land on the same (matching,
            # loops) first: one product per group, not per pair
            groups: dict[tuple[bytes, int], int] = {}
            for tail, v2 in tails:
                key = _surgery(bytearray(head + tail), closures, dead, table)
                groups[key] = groups[key] + v2 if key in groups else v2
            for key, v2 in groups.items():
                v = v1 * v2
                acc[key] = acc[key] + v if key in acc else v
        # delta^l once per (matching, loops), summed over the left terms
        out: dict[bytes, int] = {}
        for (key, l), v in acc.items():
            v *= deltas[l]
            out[key] = out[key] + v if key in out else v
        lo = lo1 + lo2 - 2 * half
        return TLElement._of_nums(
            n, {Matching._trusted(n, tuple(key)): _unpack(v, lo, k)
                for key, v in out.items() if v},
            self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        mine, theirs = dict(self.nums), dict(other.nums)
        return (self.n == other.n and mine.keys() == theirs.keys()
                and all(c * other.den == theirs[m] * self.den
                        for m, c in mine.items()))

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        return " + ".join(f"({c})*{m}" for m, c in self.terms)


@functools.lru_cache(maxsize=None)
def jones_wenzl(n: int) -> TLElement:
    """The idempotent f^(n): kills every hook, coefficient 1 on identity.

    Single-clasp recursion inside TL_n.  With E = f^(n-1) extended by one
    straight strand on the right, Delta_j = delta(j), and the hook words
    w_n = 1, w_k = w_{k+1} h_k (so w_k = h_{n-1} h_{n-2} ... h_k):

        f^(n) = sum_{k=1..n} (-1)^(n-k) (Delta_{k-1}/Delta_{n-1}) E w_k

    Each E w_k is one matching product per term of E, with each closed
    loop worth delta, and no loop closes while the words are built.  The
    numerators come out over Delta_{n-1} times the denominator of
    f^(n-1), so den = delta_factorial(n-1) holds by construction and no
    division is needed.  f^(0) is the identity on no strands.
    """
    if n < 0:
        raise PDError("strand count must be non-negative")
    if n <= 1:
        return TLElement.identity_element(n)
    prev = jones_wenzl(n - 1)
    ext = []
    for m, c in prev.nums:
        part = [0] * (2 * n)
        for i, j in enumerate(m.partner):
            gi = i if i < n - 1 else i + 1
            gj = j if j < n - 1 else j + 1
            part[gi] = gj
        part[n - 1], part[2 * n - 1] = 2 * n - 1, n - 1
        ext.append((Matching._trusted(n, tuple(part)), c))
    # k = n: E itself, over Delta_{n-1}
    top = delta(n - 1)
    out = {m: c * top for m, c in ext}
    word = Matching.identity(n)
    for k in range(n - 1, 0, -1):
        word = compose(word, hook(n, k))[0]
        weight = delta(k - 1) if (n - k) % 2 == 0 else -delta(k - 1)
        groups: dict[tuple[Matching, int], LaurentPoly] = {}
        for m, c in ext:
            key = compose(m, word)
            groups[key] = groups[key] + c if key in groups else c
        for (m, loops), c in groups.items():
            c = c * (weight * _loops(loops)) if loops else c * weight
            out[m] = out[m] + c if m in out else c
    return TLElement._of_nums(n, out, top * prev.den)


def partial_trace(el: TLElement) -> TLElement:
    """Close the rightmost strand of el around the side.

    The sweep kernel's surgery joins bottom point n-1 to top point 2n-1;
    a pair that connected exactly those two becomes a free loop worth
    delta.  Byte keys allow n <= 128; wider elements raise ValueError.
    """
    n = el.n
    if n < 1:
        raise PDError("nothing to trace")
    closures = ((n - 1, 2 * n - 1),)
    dead, table = _repack(2 * n, closures)
    out: dict[Matching, LaurentPoly] = {}
    for m, c in el.nums:
        key, loops = _surgery(bytearray(m.partner), closures, dead, table)
        c = c * delta(1) if loops else c
        mm = Matching._trusted(n - 1, tuple(key))
        out[mm] = out[mm] + c if mm in out else c
    return TLElement._of_nums(n - 1, out, el.den)


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


def network_evaluate(net: PlanarNetwork,
                     budget: Budget = Budget()) -> RationalFn:
    """Exact value of a closed network, contracted one box at a time.

    The value is the sum, over all choices of one term of each box's
    idempotent, of the terms' product times delta per circle, over the
    product of the boxes' denominators.  The boxes are added in order.
    A port dangles while its arc leads to a box not yet added.  A state
    is the matching that the arcs and the added boxes' terms make on the
    dangling ports, a bytes partner array, and it carries its numerator.
    Adding a box is one step of the sweep kernel's surgery: the frame is
    the dangling ports, then the box's 2w ports; each box term is a
    fresh tail; the closures are the arcs inside the frame, and each
    closed loop is worth delta.  Per state, the terms that land on the
    same (matching, loops) are summed before multiplying.

    A Jones-Wenzl projector with a cap on two neighbouring strands of one
    side is zero (Kauffman-Lins, *Temperley-Lieb Recoupling Theory*,
    1994).  So a state that joins two dangling ports whose arcs lead to
    neighbouring ports q, q+1 on one side of a box still to come
    contributes zero, whatever terms the other boxes take, and is
    dropped with the zero numerators.

    The budget's max_network bounds the (state, term) pairs composed,
    counting only states still alive; the count and the deadline are
    checked before each box.  Byte keys allow at most 256 dangling ports
    and ports of the box being added; more raise ValueError.
    """
    idems = [jones_wenzl(w) for w in net.boxes]
    den = math.prod((el.den for el in idems), start=ONE)
    base = list(itertools.accumulate((2 * w for w in net.boxes), initial=0))

    def port_id(port: Port) -> int:
        i, side, k = port
        return base[i] + (k if side == "b" else net.boxes[i] + k)

    other: dict[int, int] = {}
    for p, q in net.arcs:
        other[port_id(p)], other[port_id(q)] = port_id(q), port_id(p)
    # ports with a right-hand neighbour on the same side of their box
    has_next = {b + s + k for b, w in zip(base, net.boxes)
                for s in (0, w) for k in range(w - 1)}
    dangling: list[int] = []
    states = {b"": _loops(net.circles)}
    work = 0
    for i, el in enumerate(idems):
        work += len(states) * len(el.nums)
        budget.check_network(work)
        budget.check_time()
        frame = dangling + list(range(base[i], base[i + 1]))
        at = {p: k for k, p in enumerate(frame)}
        closures = [(k, at[other[p]]) for k, p in enumerate(frame)
                    if at.get(other[p], -1) > k]
        dead, table = _repack(len(frame), closures)
        tails = [(bytes(len(dangling) + j for j in m.partner), c)
                 for m, c in el.nums]
        after: dict[bytes, LaurentPoly] = {}
        for state, num in states.items():
            groups: dict[tuple[bytes, int], LaurentPoly] = {}
            for tail, c in tails:
                key = _surgery(bytearray(state + tail), closures, dead,
                               table)
                groups[key] = groups[key] + c if key in groups else c
            for (matching, loops), c in groups.items():
                c = num * (c * _loops(loops)) if loops else num * c
                after[matching] = (after[matching] + c if matching in after
                                   else c)
        dangling = [p for p in frame if other[p] not in at]
        # (x, y): dangling ports whose arcs reach neighbours q, q+1 of a
        # box still to come; a state joining them is killed there
        far = {other[p]: x for x, p in enumerate(dangling)}
        caps = [(x, far[q + 1]) for q, x in far.items()
                if q in has_next and q + 1 in far]
        states = {s: c for s, c in after.items()
                  if not c.is_zero and all(s[x] != y for x, y in caps)}
    return RationalFn(states.get(b"", ZERO), den)


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
    if not admissible(a, b, c):
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

    This is the lower bound that adequate networks attain exactly.  The
    circles are counted directly, by a union-find over the ports: each
    arc and each straight strand (i, "b", k)-(i, "t", k) joins two of
    them, and every port lies on one arc and one strand.  An identity box
    kills no cap, so the contraction of :func:`network_evaluate`, whose
    dead-state rule assumes projectors, does not apply.
    """
    root: dict[Port, Port] = {}

    def find(p: Port) -> Port:
        while p in root:
            p = root[p]
        return p

    strands = [((i, "b", k), (i, "t", k))
               for i, w in enumerate(net.boxes) for k in range(w)]
    for p, q in (*net.arcs, *strands):
        p, q = find(p), find(q)
        if p != q:
            root[p] = q
    # each join that merged two classes removed one from the port count
    circles = 2 * sum(net.boxes) - len(root)
    return -2 * (circles + net.circles)
