"""Planar diagram codes and their combinatorics.

A link diagram is given by a *PD code*: one ``X[a,b,c,d]`` token per
crossing listing the four incident arc labels counterclockwise, starting
at the incoming under-strand, plus optional ``O`` tokens for crossing-free
circles.  Arc labels are positive integers, consecutive along each
component (wrapping at the component's maximum back to its minimum).

This module handles everything that is purely diagrammatic:

* parsing and validation (:func:`parse_pd`, :func:`analyze`),
* orientation, crossing signs and writhe, from one walk of each strand,
  and the port array ``DiagramInfo.far`` (port 4c+s, slot s of crossing
  c, to the other end of its arc) that the functions below share,
* the genus of the code's embedding (0 for a planar diagram,
  :func:`genus`),
* smoothing states and their circle counts (:func:`apply_state`),
* the touch-graph of a state and adequacy decisions (:func:`adequacy`),
* mirror images,
* labelling a port array into a PD code (``_label``), the one step that
  turns wired crossings into a code here and in :mod:`skeinkit.construct`,
* parallel cabling with per-component multiplicities (:func:`cable_multi`),
* sweep plans: a crossing order and the sweep kernel's program for it,
  optionally with arcs cut open (:func:`plan_sweep`),
* a small built-in catalog of verified diagrams (:func:`catalog_lookup`).

Smoothing conventions: for ``X[a, b, c, d]`` the A-smoothing joins the arc
pairs ``(a, b)`` and ``(c, d)``; the B-smoothing joins ``(a, d)`` and
``(b, c)``.  A crossing is positive exactly when its over-strand enters at
position ``d``.
"""

from __future__ import annotations

import functools
import os
import re
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InternalError, PDError

Crossing = tuple[int, int, int, int]


def _as_crossing(item) -> Crossing:
    t = tuple(int(x) for x in item)
    if len(t) != 4:
        raise PDError(f"crossing needs exactly 4 arc labels, got {item!r}")
    if any(x < 1 for x in t):
        raise PDError(f"arc labels must be positive integers, got {item!r}")
    return t  # type: ignore[return-value]


class PDCode:
    """An immutable planar-diagram code.

    ``crossings`` may be passed as any iterable of 4-sequences; it is
    normalized to a tuple of int 4-tuples.  ``extra_circles`` counts
    crossing-free unknot components drawn beside the rest.  Codes are
    equal only to PDCode values with the same fields.
    """

    __slots__ = ("crossings", "extra_circles")
    crossings: tuple[Crossing, ...]
    extra_circles: int

    def __init__(self, crossings: Iterable[Sequence[int]] = (),
                 extra_circles: int = 0):
        object.__setattr__(self, "crossings",
                           tuple(_as_crossing(c) for c in crossings))
        if extra_circles < 0:
            raise PDError("extra_circles must be >= 0")
        object.__setattr__(self, "extra_circles", extra_circles)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PDCode, (self.crossings, self.extra_circles)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.crossings == other.crossings
                    and self.extra_circles == other.extra_circles)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.crossings, self.extra_circles))

    def __repr__(self) -> str:
        return (f"PDCode(crossings={self.crossings!r}, "
                f"extra_circles={self.extra_circles!r})")

    def __len__(self) -> int:
        return len(self.crossings)

    def __str__(self) -> str:
        return format_pd(self)


_TOKEN = re.compile(
    r"""X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]|(O)|(\S)""",
    re.VERBOSE,
)


def parse_pd(text: str) -> PDCode:
    """Parse a PD string: ``X[a,b,c,d]`` tokens, ``O`` circles, # comments.

    Tokens may be separated by whitespace and commas; the result is
    validated (arc traversal, consecutive labels, under-strand entry).
    """
    crossings = []
    circles = 0
    for rawline in text.splitlines():
        line = rawline.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            if m.group(5):
                circles += 1
            elif m.group(1) is not None:
                crossings.append(tuple(int(m.group(i)) for i in (1, 2, 3, 4)))
            else:
                ch = m.group(6)
                if ch in ", \t":
                    continue
                raise PDError(
                    f"unexpected character {ch!r} at column {m.start() + 1}: "
                    f"{rawline.strip()!r}")
    pd = PDCode(tuple(crossings), circles)
    analyze(pd)
    return pd


def format_pd(pd: PDCode) -> str:
    toks = [f"X[{a},{b},{c},{d}]" for a, b, c, d in pd.crossings]
    toks.extend(["O"] * pd.extra_circles)
    return " ".join(toks)


class DiagramInfo(NamedTuple):
    """Validated structural data for a PD code.

    ``arc_ports[a]`` holds the two (crossing, slot) ends of arc a in scan
    order.  ``components`` holds each component's arcs in label order,
    components ordered by their lowest label, and ``comp_of_arc[a]`` is
    the index of a's component.  ``over_entry[c]`` is the slot (1 or 3)
    where the over-strand enters crossing c; ``signs[c]`` is +1 exactly
    when it is 3.  ``far`` is the port array: port 4c+s (slot s of
    crossing c) maps to the port at the other end of its arc.
    """

    pd: PDCode
    arc_ports: dict
    components: tuple[tuple[int, ...], ...]
    over_entry: tuple[int, ...]
    signs: tuple[int, ...]
    writhe: int
    comp_of_arc: dict
    far: tuple[int, ...]

    @property
    def total_components(self) -> int:
        return len(self.components) + self.pd.extra_circles


@functools.lru_cache(maxsize=512)
def analyze(pd: PDCode) -> DiagramInfo:
    """Validate a PD code and compute orientation, signs, and writhe.

    Raises PDError when the code is not a closed-up diagram: every label
    must occur exactly twice, components must carry cyclically consecutive
    labels, and orientation must enter each crossing's under-strand at the
    first tuple position.
    """
    n = len(pd.crossings)
    if n == 0 and pd.extra_circles == 0:
        raise PDError("empty diagram: no crossings and no circles")
    labels = [a for cr in pd.crossings for a in cr]     # per port 4c+s
    ends: dict[int, list[int]] = {}
    for p, a in enumerate(labels):
        ends.setdefault(a, []).append(p)
    far = [0] * (4 * n)
    for a, ps in ends.items():
        if len(ps) != 2:
            raise PDError(
                f"arc {a} appears {len(ps)} times; every arc label "
                f"must occur exactly twice")
        far[ps[0]], far[ps[1]] = ps[1], ps[0]

    # walk each strand once from its lowest label, entering a crossing
    # where that label first occurs; the reverse walk enters each
    # crossing at the slot opposite
    over_entry = [0] * n
    components = []
    comp_of_arc: dict[int, int] = {}
    for lo in sorted(ends):
        if lo in comp_of_arc:
            continue
        enters = [ends[lo][0]]
        p = far[enters[0] ^ 2]
        while p != enters[0]:
            enters.append(p)
            p = far[p ^ 2]
        walk = [labels[p] for p in enters]
        arcs = list(range(lo, lo + len(walk)))
        keep, rev = walk == arcs, walk[:1] + walk[:0:-1] == arcs
        slots = [p & 3 for p in enters]
        if keep and rev:        # at most two arcs: labels fit either way
            if 0 in slots and 2 in slots:
                raise PDError(
                    f"component containing arc {lo}: no orientation enters "
                    f"all its under-crossings at the first position")
            keep = 2 not in slots
        elif not (keep or rev):
            raise PDError(
                f"component containing arc {lo} has non-consecutive labels "
                f"{sorted(walk)} along the strand")
        flip = 0 if keep else 2
        if flip ^ 2 in slots:   # an under-strand entered at slot 2
            raise PDError(
                f"component containing arc {lo}: labels orient the strand "
                f"against an under-crossing entry")
        for p in enters:
            if p & 1:
                over_entry[p >> 2] = (p & 3) ^ flip
        comp_of_arc.update(dict.fromkeys(arcs, len(components)))
        components.append(tuple(arcs))
    signs = tuple(1 if p == 3 else -1 for p in over_entry)
    return DiagramInfo(
        pd=pd,
        arc_ports={a: ((p >> 2, p & 3), (q >> 2, q & 3))
                   for a, (p, q) in ends.items()},
        components=tuple(components),
        over_entry=tuple(over_entry),
        signs=signs,
        writhe=sum(signs),
        comp_of_arc=comp_of_arc,
        far=tuple(far),
    )


def writhe(pd: PDCode) -> int:
    return analyze(pd).writhe


def genus(pd: PDCode) -> int:
    """Genus of the surface on which the PD code's port order embeds it.

    0 for a diagram drawn in the plane; a code with no planar drawing (a
    virtual diagram) has genus >= 1.  Euler's formula per connected
    piece: crossings - arcs + faces = 2 - 2g, with two arcs per crossing
    and the faces traced by turning to the next port counterclockwise.
    """
    far = analyze(pd).far
    faces = 0
    seen = bytearray(len(far))
    for dart in range(len(far)):
        if seen[dart]:
            continue
        faces += 1
        while not seen[dart]:
            seen[dart] = 1
            x = far[dart]       # on to the next slot counterclockwise
            dart = (x & ~3) | ((x + 1) & 3)
    root = list(range(len(pd.crossings)))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for p, q in enumerate(far):
        root[find(p >> 2)] = find(q >> 2)
    pieces = len({find(c) for c in root})
    return (2 * pieces + len(pd.crossings) - faces) // 2


def mirror(pd: PDCode) -> PDCode:
    """The mirror image: every crossing switched, labels untouched.

    Rotates each tuple so the old over-entry position comes first, making
    the old over-strand the new under-strand.
    """
    info = analyze(pd)
    out = []
    for ci, cr in enumerate(pd.crossings):
        o = info.over_entry[ci]
        out.append(tuple(cr[(o + k) % 4] for k in range(4)))
    return PDCode(tuple(out), pd.extra_circles)


# ---------------------------------------------------------------------------
# smoothing states


def all_a(pd: PDCode) -> str:
    return "A" * len(pd.crossings)


def all_b(pd: PDCode) -> str:
    return "B" * len(pd.crossings)


def _check_state(pd: PDCode, state: Sequence[str]) -> str:
    s = "".join(state).upper()
    if len(s) != len(pd.crossings) or any(ch not in "AB" for ch in s):
        raise PDError(
            f"state must assign 'A' or 'B' to each of the "
            f"{len(pd.crossings)} crossings, got {state!r}")
    return s


class StateCircles(NamedTuple):
    """Circles of a smoothed diagram.

    ``crossing_strands`` gives, per crossing, the circle ids of the two
    smoothing strands that replaced it (0-based, numbered in order of
    first appearance, scanning the crossings' ports in order).
    """

    count: int
    crossing_strands: tuple[tuple[int, int], ...]


def apply_state(pd: PDCode, state: Sequence[str]) -> StateCircles:
    """Smooth every crossing according to ``state`` and count circles."""
    s = _check_state(pd, state)
    far = analyze(pd).far
    n = len(pd.crossings)
    parent = list(range(4 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for p, q in enumerate(far):
        if p < q:
            union(p, q)
    for ci, ch in enumerate(s):
        if ch == "A":
            union(4 * ci + 0, 4 * ci + 1)
            union(4 * ci + 2, 4 * ci + 3)
        else:
            union(4 * ci + 0, 4 * ci + 3)
            union(4 * ci + 1, 4 * ci + 2)

    cid: dict[int, int] = {}
    for x in range(4 * n):
        r = find(x)
        if r not in cid:
            cid[r] = len(cid)
    strands = []
    for ci, ch in enumerate(s):
        if ch == "A":
            strands.append((cid[find(4 * ci)], cid[find(4 * ci + 2)]))
        else:
            strands.append((cid[find(4 * ci)], cid[find(4 * ci + 1)]))
    return StateCircles(
        count=len(cid) + pd.extra_circles,
        crossing_strands=tuple(strands),
    )


class AdequacyReport(NamedTuple):
    a_adequate: bool
    b_adequate: bool
    a_circles: int
    b_circles: int

    @property
    def adequate(self) -> bool:
        return self.a_adequate and self.b_adequate


def adequacy(pd: PDCode) -> AdequacyReport:
    """A diagram is A-adequate when no crossing touches the same circle
    twice in the all-A state; likewise for B."""
    sa = apply_state(pd, all_a(pd))
    sb = apply_state(pd, all_b(pd))
    return AdequacyReport(
        a_adequate=all(u != v for u, v in sa.crossing_strands),
        b_adequate=all(u != v for u, v in sb.crossing_strands),
        a_circles=sa.count,
        b_circles=sb.count,
    )


# ---------------------------------------------------------------------------
# diagrams from port arrays: labelling and cables


def _label(glue: list[int], circles: int) -> tuple[PDCode, list[int]]:
    """(PD code, label of each port's arc) of crossings whose port
    4*i + s (slot s of crossing i) is wired to port glue[4*i + s], beside
    ``circles`` crossing-free circles.

    Each strand is walked from the lowest port not yet passed, entering
    the crossing there, and its arcs are labelled consecutively; each
    crossing's tuple starts at the slot where its under-strand is entered.
    Unless glue[glue[p]] == p for every port, no walk ends: InternalError.
    """
    if any(not 0 <= q < len(glue) or glue[q] != p
           for p, q in enumerate(glue)):
        raise InternalError("port array does not pair the ports")
    slot_label = [0] * len(glue)
    under_entry = [0] * (len(glue) // 4)
    entered = bytearray(len(glue))
    label = 0
    for start in range(len(glue)):
        if entered[start]:
            continue
        # gather passages: we ENTER crossings at these ports, in order
        passages = []
        cur = start
        while True:
            passages.append(cur)
            entered[cur] = entered[cur ^ 2] = 1     # cur ^ 2 is the exit
            cur = glue[cur ^ 2]
            if cur == start:
                break
        size = len(passages)
        for k, port in enumerate(passages):
            slot_label[port] = label + (k if k else size)
            slot_label[port ^ 2] = label + k + 1
            if not port & 1:
                under_entry[port >> 2] = port & 3
        label += size

    lab = slot_label
    pd = PDCode(tuple((lab[b], lab[b + 1], lab[b + 2], lab[b + 3]) if not u
                      else (lab[b + 2], lab[b + 3], lab[b], lab[b + 1])
                      for b, u in zip(range(0, len(glue), 4), under_entry)),
                circles)
    if pd.crossings or pd.extra_circles:    # fully-deleted cables are empty
        analyze(pd)
    return pd, slot_label


def cable_multi(pd: PDCode, mults: Sequence[int],
                copies: Optional[dict] = None) -> PDCode:
    """Replace component k by ``mults[k]`` parallel copies (0 deletes it).

    Components are ordered by smallest arc label; crossing-free circles
    come after all arc components.  Blackboard framing: each copy follows
    the diagram, so a crossing between components of multiplicity r and s
    becomes an r*s grid of crossings of the same sign.  The cable with
    every multiplicity 1 is ``pd`` itself.

    With ``copies`` (a dict), also record the cable's label of each copy
    of each arc a: copies[a] is the tuple of r labels, or None when the
    copies lie on crossing-free circles of the cable.
    """
    info = analyze(pd)
    mults = list(mults)
    if len(mults) != info.total_components:
        raise PDError(
            f"need one multiplicity per component "
            f"({info.total_components}), got {len(mults)}")
    if any(m < 0 for m in mults):
        raise PDError("multiplicities must be >= 0")
    if all(m == 1 for m in mults):
        if copies is not None:
            copies.update((a, (a,)) for a in info.arc_ports)
        return pd

    crossings = pd.crossings
    r_of_arc = {a: mults[k] for a, k in info.comp_of_arc.items()}
    # crossing c with under and over multiplicities ru, ro becomes the
    # nodes base[c] + i*ro + j (0 <= i < ru, 0 <= j < ro) when both are
    # kept; the copies of the other strand pass straight through when not
    ru_of, ro_of, base = [], [], []
    nodes = 0
    gridded = set()             # components that meet a grid
    for cr in crossings:
        ru, ro = r_of_arc[cr[0]], r_of_arc[cr[1]]
        ru_of.append(ru)
        ro_of.append(ro)
        base.append(nodes)
        if ru and ro:
            nodes += ru * ro
            gridded.update((info.comp_of_arc[cr[0]], info.comp_of_arc[cr[1]]))
    far = info.far

    def enter(c, s, k):
        """The grid port where copy k (counted counterclockwise round c)
        of the strand at slot s of c enters a grid.  Passing straight
        through a crossing whose other strand is deleted reverses the
        copies, and crossing the next arc reverses them back."""
        while not (ru_of[c] and ro_of[c]):
            x = far[4 * c + (s ^ 2)]
            c, s = x >> 2, x & 3
        ru, ro = ru_of[c], ro_of[c]
        node = (k * ro, (ru - 1) * ro + k, (ru - k) * ro - 1, ro - 1 - k)[s]
        return 4 * (base[c] + node) + s

    glue = [-1] * (4 * nodes)
    for c in range(len(crossings)):
        ru, ro = ru_of[c], ro_of[c]
        if not (ru and ro):
            continue
        for i in range(ru):
            for j in range(ro):
                v = 4 * (base[c] + i * ro + j)
                if j < ro - 1:          # north to the south of (i, j+1)
                    glue[v + 2], glue[v + 4] = v + 4, v + 2
                if i < ru - 1:          # east to the west of (i+1, j)
                    glue[v + 1], glue[v + 4 * ro + 3] = v + 4 * ro + 3, v + 1
        for s in range(4):              # across the arc, copy k meets r-1-k
            r, x = (ro if s % 2 else ru), far[4 * c + s]
            for k in range(r):
                v = enter(c, s, k)
                if glue[v] < 0:
                    w = enter(x >> 2, x & 3, r - 1 - k)
                    glue[v], glue[w] = w, v

    # a component that meets no grid closes into one circle per copy
    circles = sum(m for k, m in enumerate(mults) if k not in gridded)
    cabled, slot_label = _label(glue, circles)
    if copies is not None:
        for arc, ((c, s), _) in info.arc_ports.items():
            r = r_of_arc[arc]
            copies[arc] = None if r and info.comp_of_arc[arc] not in gridded \
                else tuple(slot_label[enter(c, s, k)] for k in range(r))
    return cabled


def cable(pd: PDCode, r: int) -> PDCode:
    """All components replaced by r parallel copies (r >= 1)."""
    if r < 1:
        raise PDError("cable multiplicity must be >= 1")
    info = analyze(pd)
    return cable_multi(pd, [r] * info.total_components)


# ---------------------------------------------------------------------------
# sweep plans


class SweepPlan(NamedTuple):
    """A crossing order and the sweep kernel's program for it.

    ``program[t] = (width_in, closures)`` inserts crossing ``order[t]``:
    ``width_in`` ends are open before it, its four new ends are appended
    at indices width_in..width_in+3 in tuple-position order, and
    ``closures`` lists the index pairs (one per arc that the crossing
    closes) to merge in that extended frame.  The surviving ends keep
    their order.  ``max_width`` is the peak number of open ends.

    ``identity`` is the matching of the ends still open after the last
    step, as a partner array: each cut arc's two ends are partners.  It
    is empty unless the plan cuts arcs.
    """

    order: tuple[int, ...]
    program: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    max_width: int
    identity: bytes = b""


def plan_sweep(pd: PDCode,
               order: Optional[Sequence[int]] = None,
               cut: Iterable[int] = ()) -> SweepPlan:
    """Choose a crossing order and compile it into the kernel's program.

    Without an explicit order, a greedy heuristic repeatedly inserts the
    crossing that minimizes the resulting number of open strand-ends,
    the lowest index on a tie.  The arcs labelled in ``cut`` are cut
    open: each of their two ends opens when its crossing is inserted and
    stays open to the end.  Raises PDError when a label in ``cut`` is
    not an arc of ``pd``.  The plan's ``max_width`` is its peak width,
    which callers check against their budget.
    """
    info = analyze(pd)
    n = len(pd.crossings)
    if order is not None:
        order = list(order)
        if sorted(order) != list(range(n)):
            raise PDError(f"order must be a permutation of 0..{n - 1}")
    cut = frozenset(cut)
    # an end is its arc label, or -1 - (4*crossing + position) on a cut
    # arc, so that the two ends of a cut arc never meet
    ends = list(pd.crossings)
    for a in cut:
        if a not in info.arc_ports:
            raise PDError(f"cannot cut {a!r}: not an arc label of the diagram")
        for ci, pos in info.arc_ports[a]:
            es = list(ends[ci])
            es[pos] = -1 - (4 * ci + pos)
            ends[ci] = tuple(es)
    # inserting a crossing toggles the open set by the ends that occur
    # once in it; a kink arc occurs twice and closes at once
    once = []
    for es in ends:
        o = set(es)
        if len(o) < 4:
            o = {e for e in o if es.count(e) == 1}
        once.append(o)
    # score[c] = |once[c]| - 2 |once[c] & open| is how much inserting c
    # widens the open set; an end that opens or closes moves the scores
    # of the (at most two) crossings in where[end].  An inserted crossing
    # scores far above any other (a score moves by at most 8 from its
    # start), and index() ties to the lowest.
    score = [len(o) for o in once]
    where: dict = {}
    for c, o in enumerate(once):
        for e in o:
            where.setdefault(e, []).append(c)
    chosen = []
    program = []
    open_ends: list = []            # the end at each open index
    live: set = set()
    peak = 0
    for t in range(n):
        ci = score.index(min(score)) if order is None else order[t]
        score[ci] = 1 << 20
        chosen.append(ci)
        es, oc = ends[ci], once[ci]
        w0 = len(open_ends)
        # closures in the order of the crossing's positions; the open
        # ends that survive keep their order, and the new ones follow
        closures = []
        closed = []
        fresh = []
        for p, e in enumerate(es):
            if e in live:
                closed.append(open_ends.index(e))
                closures.append((closed[-1], w0 + p))
            elif e in oc:
                fresh.append(e)
            elif es.index(e) < p:       # a kink arc's second end
                closures.append((w0 + es.index(e), w0 + p))
        for i in sorted(closed, reverse=True):
            e = open_ends.pop(i)
            live.remove(e)
            for c in where[e]:
                score[c] += 2
        for e in fresh:
            live.add(e)
            for c in where[e]:
                score[c] -= 2
        open_ends += fresh
        program.append((w0, tuple(closures)))
        peak = max(peak, len(open_ends))
    if len(open_ends) != 2 * len(cut) or any(e > 0 for e in open_ends):
        raise InternalError(f"sweep left open ends: {open_ends}")
    halves: dict = {}
    for i, e in enumerate(open_ends):
        x = -1 - e
        halves.setdefault(pd.crossings[x >> 2][x & 3], []).append(i)
    identity = bytearray(len(open_ends))
    for i, j in halves.values():
        identity[i], identity[j] = j, i
    return SweepPlan(order=tuple(chosen), program=tuple(program),
                     max_width=peak, identity=bytes(identity))


# ---------------------------------------------------------------------------
# catalog


@functools.lru_cache(maxsize=1)
def _catalog() -> dict[str, PDCode]:
    out = {}
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, body = line.partition(":")
        pd = parse_pd(body)
        out[name.strip()] = pd
    return out


def catalog_names() -> list[str]:
    return sorted(_catalog())


def catalog_lookup(name: str) -> PDCode:
    try:
        return _catalog()[name]
    except KeyError:
        raise PDError(
            f"unknown catalog entry {name!r}; available: "
            f"{', '.join(catalog_names())}") from None
