"""Independent cross-checks used by several test modules.

Everything here is computed by a different route than the library code
under test: a 2x2 transfer matrix for rational-tangle brackets, a braid
walker for PD codes, a fresh breadth-first search for word lengths,
long division from the top for windowed quotients, the expansion of a
closed projector network into every combination of box terms, the
Kauffman-Lins formula for a tetrahedral network built from a trivalent
graph, a walk over the graph of two stacked matchings and a reindexing
that closes a strand of one (for ``tl.compose`` and
``tl.partial_trace``, which run the sweep kernel's surgery), the two-term recursion f h f for the
Jones-Wenzl projectors, and the earlier builders of sweep plans,
cables and tangles (a greedy loop that rescores every crossing at each
step, and cables and tangles wired through a junction graph).
The CLI's JSON polynomials are read back by the inverses of its schema.
``certified_top`` is not independent: it reads the kernel's own degree
bound from ``_sweep_py._all_a_cuts``, which the window tests need.
``PLANAR`` draws the generated planar diagrams that several modules
sweep.
"""

import functools
import itertools
import math

from hypothesis import strategies as st

from skeinkit._sweep_py import _all_a_cuts
from skeinkit.construct import rational_knot, twist_closure, with_kink
from skeinkit.diagram import PDCode, SweepPlan, analyze, format_pd, parse_pd
from skeinkit.errors import BudgetError
from skeinkit.poly import (
    LaurentPoly, ONE, ZERO, RationalFn, exact_divide, monomial,
)
from skeinkit.quantum import delta, delta_factorial
from skeinkit.tl import (
    Matching, PlanarNetwork, TLElement, enumerate_matchings, hook,
    jones_wenzl,
)

# Published single-variable invariants for the bundled alternating knots,
# as exponent->coefficient tables in the bracket variable.  A diagram
# matches if it reproduces the table on the nose or after mirroring.
CORPUS_JONES = {
    "3_1": {4: 1, 12: 1, 16: -1},
    "4_1": {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1},
    "5_2": {4: 1, 8: -1, 12: 2, 16: -1, 20: 1, 24: -1},
    "6_3": {-12: -1, -8: 2, -4: -2, 0: 3, 4: -2, 8: 2, 12: -1},
}

DETERMINANTS = {"unknot": 1, "3_1": 3, "4_1": 5, "5_2": 7,
                "6_1": 9, "6_2": 11, "6_3": 13, "3_1_badequate": 3}

# Continued-fraction presentations behind the bundled catalog (the
# builder in skeinkit.construct consumes these), with the handedness
# that reproduces each catalog entry.
CATALOG_QUOTIENTS = {
    "3_1": ([3], 0),
    "4_1": ([2, 2], 0),
    "5_2": ([3, 2], 0),
    "6_1": ([4, 2], 0),
    "6_2": ([3, 1, 2], 1),
    "6_3": ([2, 1, 1, 2], 0),
}

_A = monomial(1, 1)
_Ainv = monomial(1, -1)
_DELTA = delta(1)


class TangleOracle:
    """Bracket of a two-string tangle, tracked as a 2-vector.

    Any such tangle expands as p * (two horizontal strands) plus
    r * (two vertical strands); twisting and closing act linearly on
    (p, r).  No planar diagrams are ever built, so this is independent
    of the PD machinery it checks.
    """

    def __init__(self, p: LaurentPoly, r: LaurentPoly):
        self.p, self.r = p, r

    @classmethod
    def zero(cls):
        return cls(ONE, LaurentPoly())

    @classmethod
    def infinity(cls):
        return cls(LaurentPoly(), ONE)

    @staticmethod
    def _weights(hand: int):
        # weight of the horizontal / vertical smoothing of one crossing
        return (_A, _Ainv) if hand == 0 else (_Ainv, _A)

    def twist_right(self, hand: int) -> "TangleOracle":
        u, v = self._weights(hand)
        return TangleOracle(u * self.p,
                            v * self.p + u * self.r + v * _DELTA * self.r)

    def twist_bottom(self, hand: int) -> "TangleOracle":
        u, v = self._weights(hand)
        return TangleOracle(u * _DELTA * self.p + v * self.p + u * self.r,
                            v * self.r)

    def numerator_bracket(self) -> LaurentPoly:
        return self.p * _DELTA ** 2 + self.r * _DELTA

    def denominator_bracket(self) -> LaurentPoly:
        return self.p * _DELTA + self.r * _DELTA ** 2


def rational_bracket(quotients, hand: int) -> LaurentPoly:
    """Transfer-matrix bracket of the standard rational closure."""
    k = len(quotients)
    t = TangleOracle.zero() if k % 2 else TangleOracle.infinity()
    for j in range(k, 0, -1):
        for _ in range(quotients[j - 1]):
            t = t.twist_right(hand) if j % 2 else t.twist_bottom(hand)
    return t.numerator_bracket()


def braid_closure(width: int, word) -> PDCode:
    """PD code of a braid closure, arcs numbered along each strand.

    ``word`` lists generators: +i crosses strand i over strand i+1,
    -i crosses it under.  Strands a generator never touches close into
    extra circles.
    """
    T = len(word)
    slot = {}      # (crossing, "in"/"out", position) -> arc label
    seen = set()   # visited gap segments (gap, position)
    label = 0
    free = 0

    def involved(t, p):
        i = abs(word[t]) - 1
        return p in (i, i + 1)

    for p0 in range(width):
        if (0, p0) in seen:
            continue
        t, p = 0, p0
        passages = []
        while True:
            seen.add((t, p))
            if t < T and involved(t, p):
                i = abs(word[t]) - 1
                passages.append((t, p))
                p = i + 1 if p == i else i
                t += 1
            elif t < T:
                t += 1
            else:
                t = 0
            if (t, p) == (0, p0):
                break
        m = len(passages)
        if m == 0:
            free += 1
            continue
        for j, (t, p) in enumerate(passages):
            i = abs(word[t]) - 1
            q = i + 1 if p == i else i
            slot[(t, "in", p)] = label + j + 1
            slot[(t, "out", q)] = label + ((j + 1) % m) + 1
        label += m

    crossings = []
    for t, g in enumerate(word):
        i = abs(g) - 1
        in_i, in_i1 = slot[(t, "in", i)], slot[(t, "in", i + 1)]
        out_i, out_i1 = slot[(t, "out", i)], slot[(t, "out", i + 1)]
        if g > 0:
            crossings.append((in_i1, out_i1, out_i, in_i))
        else:
            crossings.append((in_i, in_i1, out_i1, out_i))
    return PDCode(crossings, extra_circles=free)


def kinked(quotients, hand, pick, positive):
    """A rational knot with a kink added on one of its arcs."""
    pd = rational_knot(quotients, hand)
    arcs = sorted(analyze(pd).arc_ports)
    return with_kink(pd, arcs[pick % len(arcs)], positive)


def with_circles(pd, k):
    """pd beside k crossing-free circles."""
    return parse_pd(format_pd(pd) + " O" * k)


_QUOTIENTS = st.lists(st.integers(1, 3), min_size=1, max_size=3)
_BRAID_WORDS = st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                        min_size=2, max_size=5)
# rational knots and two-component rational links, kinked diagrams,
# twist closures from one crossing up, mixed-sign braid closures (the
# strands a word misses close into circles) and split diagrams
PLANAR = st.one_of(
    st.builds(rational_knot, _QUOTIENTS.filter(lambda q: sum(q) <= 5),
              st.integers(0, 1)),
    st.builds(kinked, _QUOTIENTS.filter(lambda q: sum(q) <= 3),
              st.integers(0, 1), st.integers(0, 11), st.booleans()),
    st.builds(twist_closure, st.integers(1, 4), st.integers(0, 1)),
    st.builds(braid_closure, st.just(4), _BRAID_WORDS),
    st.builds(with_circles, st.builds(rational_knot, st.sampled_from(
        [[1], [2], [3], [2, 1]]), st.integers(0, 1)), st.integers(1, 2)),
)


def divide_from_top(num: LaurentPoly, den: LaurentPoly,
                    floor: int) -> LaurentPoly:
    """The terms of exponent >= floor of num/den, expanded from the top.

    Only the terms of num above floor + (top degree of den) enter, so a
    window of num that is exact there gives an exact window of the
    quotient.  Each step must divide over the integers.
    """
    rem = num.as_dict()
    den_terms = den.as_dict()
    lead_exp = den.max_degree()
    out = {}
    while rem:
        top = max(rem)
        e = top - lead_exp
        if e < floor:
            break
        c, m = divmod(rem[top], den_terms[lead_exp])
        assert not m, "the quotient is not integral"
        out[e] = c
        for de, dc in den_terms.items():
            v = rem.get(de + e, 0) - dc * c
            if v:
                rem[de + e] = v
            else:
                rem.pop(de + e, None)
    return LaurentPoly.from_dict(out)


def a_polynomial_from_json(blob: dict) -> LaurentPoly:
    """Rebuild the A-polynomial from the CLI's dense A schema."""
    lo = blob["min_exponent"]
    return LaurentPoly.from_dict(
        {lo + i: c for i, c in enumerate(blob["coefficients"])})


def q_series_from_json(blob: dict) -> LaurentPoly:
    """Rebuild the A-polynomial from the q schema (q = A^-4)."""
    lo, sign = blob["min_exponent"], blob["sign"]
    return LaurentPoly.from_dict(
        {-2 * (lo + i): sign * c
         for i, c in enumerate(blob["coefficients"])})


# The (3,4) torus braid: one-sided diagram whose far coefficient side
# genuinely fails to settle -- the standard negative example.
TORUS_3_4_WORD = (3, [1, 2] * 4)


def graph_compose(m1: Matching, m2: Matching) -> tuple[Matching, int]:
    """``tl.compose`` by walking the graph of the stacked matchings:
    the resulting matching and the number of closed loops.

    Global point ids: m1 bottom 0..n-1, junction row n..2n-1, m2 top
    2n..3n-1.
    """
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


def reindex_trace(m: Matching) -> tuple[Matching, int]:
    """``tl.partial_trace`` of one matching by reindexing: the matching
    left when bottom point n-1 is joined to top point 2n-1, and 1 when
    those two were paired (a free loop), else 0."""
    n = m.n
    b, t = n - 1, 2 * n - 1

    def drop(i: int) -> int:
        # reindex after removing points b and t
        return i if i < b else i - 1

    part = [0] * (2 * n - 2)
    for i, j in enumerate(m.partner):
        if i not in (b, t) and j not in (b, t):
            part[drop(i)] = drop(j)
    if m.partner[b] == t:
        return Matching(n - 1, tuple(part)), 1
    x, y = m.partner[b], m.partner[t]
    part[drop(x)], part[drop(y)] = drop(y), drop(x)
    return Matching(n - 1, tuple(part)), 0


def bfs_word_lengths(n: int) -> dict:
    """Fewest hook generators producing each matching, found afresh."""
    gens = [hook(n, i) for i in range(1, n)]
    ident = next(m for m in enumerate_matchings(n) if m.is_identity())
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod, _ = graph_compose(m, g)
                if prod not in dist:
                    dist[prod] = dist[m] + 1
                    nxt.append(prod)
        frontier = nxt
    return dist


@functools.cache
def two_term_jones_wenzl(n: int) -> TLElement:
    """f^(n) by the two-term recursion, built with the TL product:

        f^(n) = f^(n-1) - (Delta_{n-2}/Delta_{n-1}) f^(n-1) h_{n-1} f^(n-1)
              = (Delta_{n-1}*E - (Delta_{n-2}*E*h*E)/D) / (Delta_{n-1}*D)

    with E/D = f^(n-1) extended by one straight strand.  The division by
    D must be exact (exact_divide raises otherwise), which checks that
    every coefficient sits over delta_factorial(n-1).
    """
    if n <= 1:
        return TLElement.identity_element(n)
    prev = two_term_jones_wenzl(n - 1)
    ext = {}
    for m, c in prev.nums:
        part = [0] * (2 * n)
        for i, j in enumerate(m.partner):
            part[i if i < n - 1 else i + 1] = j if j < n - 1 else j + 1
        part[n - 1], part[2 * n - 1] = 2 * n - 1, n - 1
        ext[Matching(n, tuple(part))] = c
    e = TLElement(n, tuple(sorted(ext.items(),
                                  key=lambda mc: mc[0].paren_string())),
                  prev.den)
    ehe = e * TLElement.of_matching(hook(n, n - 1)) * e
    out = {m: c * delta(n - 1) for m, c in e.nums}
    for m, c in ehe.nums:
        out[m] = out.get(m, ZERO) - exact_divide(c * delta(n - 2), e.den)
    nums = sorted(((m, c) for m, c in out.items() if not c.is_zero),
                  key=lambda mc: mc[0].paren_string())
    return TLElement(n, tuple(nums), delta(n - 1) * e.den)


def certified_top(program, identity=b""):
    """Upper bound on a sweep's exponents: the all-A state's T + 2*c0.

    With ``identity``, the bound on the coefficient of that matching:
    the closure's bound less its len(identity) / 2 identity circles.
    """
    return _all_a_cuts(program, identity)[0] - len(identity)


def port_cycles(net: PlanarNetwork, pick) -> int:
    """Circles formed by the arcs plus each box's chosen matching."""
    nxt = {}
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
    seen = set()
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


def expand_network(net: PlanarNetwork,
                   max_network: int = 2_000_000) -> RationalFn:
    """Exact value of a closed network, by expanding every box.

    Each box contributes its idempotent's terms; a full choice of
    matchings leaves only circles, each worth delta.  Cost is the
    product of term counts over all boxes (checked against the
    max_network budget).
    """
    idems = [jones_wenzl(w) for w in net.boxes]
    size = math.prod(len(el.nums) for el in idems)
    if size > max_network:
        raise BudgetError("max_network", max_network, needed=size,
                          detail="network expansion too large")
    by_circles = {}
    for combo in itertools.product(*(el.nums for el in idems)):
        coeff = math.prod((c for _, c in combo), start=ONE)
        circles = port_cycles(net, [m for m, _ in combo]) + net.circles
        by_circles[circles] = by_circles.get(circles, ZERO) + coeff
    num = sum((c * delta(1) ** k for k, c in by_circles.items()), ZERO)
    return RationalFn(num, math.prod((el.den for el in idems), start=ONE))


def necklace_network(n: int, k: int) -> PlanarNetwork:
    """k boxes of width n in a ring: strand s leaves the top of box j
    and enters the bottom of box j+1 (mod k).  Its value is Delta_n."""
    arcs = tuple(((j, "t", s), ((j + 1) % k, "b", s))
                 for j in range(k) for s in range(n))
    return PlanarNetwork(boxes=(n,) * k, arcs=arcs)


def trivalent_network(edges, rotations) -> PlanarNetwork:
    """A planar trivalent graph, colored, as a network of projector boxes.

    ``edges[i] = (u, v, color)`` with u < v is box i, its bottom at
    vertex u; ``rotations[v]`` lists the edges at v counterclockwise.
    Seen from a vertex looking out along an edge, the ports run
    b_0..b_{w-1} at the bottom end and t_{w-1}..t_0 at the top end, left
    to right.  Between cyclically consecutive edges e1, e2 at a vertex,
    (w1 + w2 - w3)/2 strands join e1's leftmost ports to e2's rightmost,
    innermost first.  The colors must be admissible at every vertex.
    """
    arcs = []
    for v, rot in rotations.items():
        widths = [edges[e][2] for e in rot]
        ends = [[(e, "b", k) for k in range(w)] if edges[e][0] == v
                else [(e, "t", k) for k in reversed(range(w))]
                for e, w in zip(rot, widths)]
        for j in range(3):
            right, left = ends[j], ends[(j + 1) % 3]
            k = (widths[j] + widths[(j + 1) % 3] - widths[(j + 2) % 3]) // 2
            arcs += [(right[m], left[-1 - m]) for m in range(k)]
    return PlanarNetwork(boxes=tuple(w for _, _, w in edges),
                         arcs=tuple(arcs))


def tet_network(a, b, e, c, d, f) -> PlanarNetwork:
    """The tetrahedron colored Tet[A B E; C D F], as in :func:`kl_tet`.

    Vertices 1, 2, 3 lie on the outer triangle and 4 inside; the edges
    E = 12, F = 34, A = 13, D = 14, B = 23, C = 24 are boxes 0-5, so the
    vertex triples are (A,D,E), (B,C,E), (A,B,F), (C,D,F).
    """
    edges = [(1, 2, e), (3, 4, f), (1, 3, a), (1, 4, d), (2, 3, b),
             (2, 4, c)]
    return trivalent_network(
        edges, {1: (0, 3, 2), 2: (4, 5, 0), 3: (2, 1, 4), 4: (3, 5, 1)})


def _kl_factorial(k: int) -> LaurentPoly:
    """Kauffman-Lins [k]! = (-1)^(k(k-1)/2) Delta_0 ... Delta_{k-1}."""
    fact = delta_factorial(k - 1)
    return -fact if k * (k - 1) // 2 % 2 else fact


def kl_tet(a, b, e, c, d, f) -> RationalFn:
    """Tet[A B E; C D F] by the formula of Kauffman-Lins, *Temperley-Lieb
    Recoupling Theory* (1994), with vertex triples (A,D,E), (B,C,E),
    (A,B,F), (C,D,F):

        Tet = (prod_{i,j} [b_j - a_i]! / prod_edges [x]!)
              * sum_{max a_i <= s <= min b_j} (-1)^s [s+1]!
                / (prod_i [s - a_i]! prod_j [b_j - s]!)

    where a_1..a_4 are the vertex triples' half sums and b_1 =
    (B+D+E+F)/2, b_2 = (A+C+E+F)/2, b_3 = (A+B+C+D)/2.
    """
    lows = [(a + d + e) // 2, (b + c + e) // 2, (a + b + f) // 2,
            (c + d + f) // 2]
    highs = [(b + d + e + f) // 2, (a + c + e + f) // 2,
             (a + b + c + d) // 2]
    total = RationalFn.of(0)
    for s in range(max(lows), min(highs) + 1):
        term = RationalFn(_kl_factorial(s + 1), math.prod(
            [_kl_factorial(s - x) for x in lows]
            + [_kl_factorial(y - s) for y in highs], start=ONE))
        total += -term if s % 2 else term
    pre = RationalFn(
        math.prod((_kl_factorial(y - x) for x in lows for y in highs),
                  start=ONE),
        math.prod((_kl_factorial(x) for x in (a, b, c, d, e, f)),
                  start=ONE))
    return pre * total


# Stable-range coefficient tables for the 6_2 catalog entry, after
# normalizing each series to start at exponent 0 with positive lead.
# "span" is the top normalized exponent; prefixes start at 0 and
# suffixes end at the span.
SIX_TWO_ROWS = {
    2: {"span": 6, "prefix": [1, -2, 2, -2, 2, -1, 1], "suffix_at": 0,
        "suffix": [1, -2, 2, -2, 2, -1, 1]},
    3: {"span": 18, "prefix": [1, -2, 0, 4, -5, 0, 6], "suffix_at": 14,
        "suffix": [-1, 3, -1, -1, 1]},
    4: {"span": 36, "prefix": [1, -2, 0, 2, 1, -4, -2], "suffix_at": 29,
        "suffix": [-2, -3, 0, 3, 0, -1, -1, 1]},
    5: {"span": 60, "prefix": [1, -2, 0, 2, -1, 2, -6], "suffix_at": 53,
        "suffix": [-2, -1, 4, 0, 0, -1, -1, 1]},
}

SIX_TWO_TAIL_5 = [1, -2, 0, 2, -1]
SIX_TWO_HEAD_3 = [1, -1, -1]


def greedy_plan(pd: PDCode, order=None, cut=()) -> SweepPlan:
    """The sweep plan of ``diagram.plan_sweep`` with no width budget,
    chosen by rescoring every remaining crossing at each step and
    compiled by scanning all open ends and the new crossing's ends."""
    n = len(pd.crossings)
    cut = frozenset(cut)
    ends = [tuple((a, ci, pos) if a in cut else a
                  for pos, a in enumerate(cr))
            for ci, cr in enumerate(pd.crossings)] if cut else pd.crossings
    once = [frozenset(e for e in es if es.count(e) == 1) for es in ends]
    remaining = list(range(n))
    chosen, program = [], []
    open_ends: list = []
    peak = 0
    for t in range(n):
        if order is None:
            live = set(open_ends)
            ci = min(remaining, key=lambda c: (
                len(once[c]) - 2 * len(once[c] & live), c))
            remaining.remove(ci)
        else:
            ci = order[t]
        chosen.append(ci)
        first_at: dict = {}
        closures = []
        for idx, end in enumerate(open_ends + list(ends[ci])):
            if end in first_at:
                closures.append((first_at.pop(end), idx))
            else:
                first_at[end] = idx
        program.append((len(open_ends), tuple(closures)))
        open_ends = list(first_at)
        peak = max(peak, len(open_ends))
    halves: dict = {}
    for i, (arc, _, _) in enumerate(open_ends):
        halves.setdefault(arc, []).append(i)
    identity = bytearray(len(open_ends))
    for i, j in halves.values():
        identity[i], identity[j] = j, i
    return SweepPlan(order=tuple(chosen), program=tuple(program),
                     max_width=peak, identity=bytes(identity))


def emit_labelled(num_nodes, links, extra_circles):
    """The PD code of ``num_nodes`` crossings wired by ``links``, and
    {junction: label of its arc} for every junction that lies on an arc
    (not on a crossing-free circle).

    ``links`` joins terminals pairwise: the ports ("p", i, s) of the
    crossings, each once, and other hashable junctions, each twice.
    Junction chains are contracted, junction-only cycles become
    crossing-free circles, and arcs are labelled by the walk of
    ``diagram._label``.
    """
    adj: dict = {}
    for t, u in links:
        adj.setdefault(t, []).append(u)
        adj.setdefault(u, []).append(t)

    def is_port(t):
        return isinstance(t, tuple) and len(t) == 3 and t[0] == "p"

    for t, nbrs in adj.items():
        assert len(nbrs) == (1 if is_port(t) else 2), t
    glue: dict = {}
    visited: set = set()
    chain: dict = {}            # junction -> a port at an end of its arc
    circles = extra_circles
    for t in adj:
        if not is_port(t) or t in visited:
            continue
        visited.add(t)
        prev, cur = t, adj[t][0]
        while not is_port(cur):
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts:  # a junction linked twice to the same neighbor
                nxts = [adj[cur][1]] if adj[cur][0] == prev else [adj[cur][0]]
            visited.add(cur)
            chain[cur] = t
            prev, cur = cur, nxts[0]
        visited.add(cur)
        glue[t] = cur
        glue[cur] = t
    seen: set = set()
    for t in adj:
        if is_port(t) or t in visited or t in seen:
            continue
        seen.add(t)
        prev, cur = t, adj[t][0]
        while cur != t:
            seen.add(cur)
            nxts = [x for x in adj[cur] if x != prev]
            prev, cur = cur, (nxts[0] if nxts else adj[cur][0])
        circles += 1
    slot_label: dict = {}
    under_entry: dict = {}
    entered: set = set()
    label = 0
    for start in sorted(glue, key=lambda p: (p[1], p[2])):
        if start in entered:
            continue
        passages = []
        cur = start
        while True:
            passages.append(cur)
            entered.add(cur)
            _, i, s = cur
            entered.add(("p", i, s ^ 2))
            cur = glue[("p", i, s ^ 2)]
            if cur == start:
                break
        size = len(passages)
        for k, port in enumerate(passages):
            _, i, s = port
            slot_label[port] = label + (k if k else size)
            slot_label[("p", i, s ^ 2)] = label + k + 1
            if s in (0, 2):
                under_entry[i] = s
        label += size
    crossings = [tuple(slot_label[("p", i, (under_entry[i] + k) % 4)]
                       for k in range(4)) for i in range(num_nodes)]
    pd = PDCode(tuple(crossings), circles)
    return pd, {j: slot_label[t] for j, t in chain.items()}


def cable_links(pd: PDCode, mults):
    """(nodes, links, extra circles) wiring the cable of ``pd`` with
    per-component multiplicities ``mults``: an r x s grid of nodes per
    crossing of two kept strands, junctions ("t", crossing, slot, copy)
    at its four sides, and copy k of an arc meeting copy r-1-k."""
    info = analyze(pd)
    r_of_arc = {a: mults[k] for a, k in info.comp_of_arc.items()}
    links: list = []
    nodes = 0
    node_id: dict = {}

    def port(ci, i, j, s):
        return ("p", node_id[ci, i, j], s)

    for ci, cr in enumerate(pd.crossings):
        ru, ro = r_of_arc[cr[0]], r_of_arc[cr[1]]
        if ru and ro:
            for i in range(ru):
                for j in range(ro):
                    node_id[ci, i, j] = nodes
                    nodes += 1
            for i in range(ru):
                for j in range(ro):
                    if j == 0:
                        links.append((port(ci, i, j, 0), ("t", ci, 0, i)))
                    else:
                        links.append((port(ci, i, j, 0),
                                      port(ci, i, j - 1, 2)))
                    if j == ro - 1:
                        links.append((port(ci, i, j, 2),
                                      ("t", ci, 2, ru - 1 - i)))
                    if i == ru - 1:
                        links.append((port(ci, i, j, 1), ("t", ci, 1, j)))
                    else:
                        links.append((port(ci, i, j, 1),
                                      port(ci, i + 1, j, 3)))
                    if i == 0:
                        links.append((port(ci, i, j, 3),
                                      ("t", ci, 3, ro - 1 - j)))
        elif ro:    # under strand deleted: over bundle passes straight
            for k in range(ro):
                links.append((("t", ci, 1, k), ("t", ci, 3, ro - 1 - k)))
        elif ru:    # over strand deleted
            for k in range(ru):
                links.append((("t", ci, 0, k), ("t", ci, 2, ru - 1 - k)))
    for arc, ((c1, s1), (c2, s2)) in info.arc_ports.items():
        r = r_of_arc[arc]
        for k in range(r):
            links.append((("t", c1, s1, k), ("t", c2, s2, r - 1 - k)))
    extra = sum(mults[len(info.components):])
    return nodes, links, extra


def tangle_links(start, moves, close, extra_circles=0):
    """(nodes, links, extra circles) wiring a 2-string tangle through
    junctions, as ``construct.TangleBuilder`` once did.

    ``start`` is "zero" or "infinity"; ``moves`` lists (name, hand) for
    the names "twist_right", "twist_bottom" and "rotate" (whose hand is
    ignored); ``close`` is "numerator" or "denominator".  The four
    corners start as junctions, and each crossing's ports are linked to
    the corner ends they meet.
    """
    nw, ne, sw, se = (("j", k) for k in range(4))
    links = [(nw, ne), (sw, se)] if start == "zero" else [(nw, sw), (ne, se)]
    nodes = 0
    for move, hand in moves:
        if move == "rotate":
            nw, ne, se, sw = ne, se, sw, nw
            continue
        ports = [("p", nodes, s) for s in range(4)]
        nodes += 1
        if hand == 0:
            p_sw, p_se, p_ne, p_nw = ports
        else:
            p_se, p_ne, p_nw, p_sw = ports
        if move == "twist_right":
            links += [(p_nw, ne), (p_sw, se)]
            ne, se = p_ne, p_se
        else:
            links += [(p_nw, sw), (p_ne, se)]
            sw, se = p_sw, p_se
    links += ([(nw, ne), (sw, se)] if close == "numerator"
              else [(nw, sw), (ne, se)])
    return nodes, links, extra_circles


def linked_cable(pd: PDCode, mults):
    """(cable, copies) as ``diagram.cable_multi(pd, mults, copies)``
    builds them, through the junction graph of :func:`cable_links`."""
    info = analyze(pd)
    cabled, labels = emit_labelled(*cable_links(pd, mults))
    copies = {}
    for arc, ((c, s), _) in info.arc_ports.items():
        ends = [labels.get(("t", c, s, k))
                for k in range(mults[info.comp_of_arc[arc]])]
        copies[arc] = None if None in ends else tuple(ends)
    return cabled, copies
