"""Programmatic diagram builders: twist regions, rational tangles, kinks.

Tangles are assembled abstractly (crossings with counterclockwise port
cycles, wired by terminals) and serialized to PD codes through
:func:`skeinkit.diagram.emit_pd`, which assigns consistent arc labels.
:func:`with_kink` instead wires its curl into a copy of the diagram's
port array (``DiagramInfo.far``) and labels that directly.

A :class:`TangleBuilder` holds a 2-string tangle with four boundary ends
(nw, ne, sw, se).  Starting from the 0-tangle (two horizontal strands),
``twist_right`` appends a crossing on the east side and ``rotate`` turns
the whole tangle a quarter-turn counterclockwise; closing the ends yields
the two-bridge family.  With ``hand=0`` the added crossing's over-strand
runs NW-SE (a positive kink when closed); ``hand=1`` gives the mirror.

These builders exist mainly to generate and re-verify the built-in
catalog, and to make small test inputs (twist closures, kinked unknots)
in a readable way.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

from .diagram import PDCode, _label, analyze, emit_pd
from .errors import PDError


@dataclasses.dataclass
class TangleBuilder:
    """A 2-string tangle under construction.

    ``links`` wires node ports ("p", i, slot) and junction terminals;
    the four boundary attributes hold terminals that still need their
    second connection (made by a closure).
    """

    nodes: int = 0
    links: list = dataclasses.field(default_factory=list)
    nw: object = None
    ne: object = None
    sw: object = None
    se: object = None
    _fresh: "itertools.count" = dataclasses.field(
        default_factory=itertools.count)

    @classmethod
    def zero(cls) -> "TangleBuilder":
        """The 0-tangle: nw--ne and sw--se strands, no crossings."""
        t = cls()
        t.nw, t.ne = ("j", next(t._fresh)), ("j", next(t._fresh))
        t.sw, t.se = ("j", next(t._fresh)), ("j", next(t._fresh))
        t.links.append((t.nw, t.ne))
        t.links.append((t.sw, t.se))
        return t

    @classmethod
    def infinity(cls) -> "TangleBuilder":
        """The infinity-tangle: nw--sw and ne--se strands, no crossings."""
        t = cls()
        t.nw, t.ne = ("j", next(t._fresh)), ("j", next(t._fresh))
        t.sw, t.se = ("j", next(t._fresh)), ("j", next(t._fresh))
        t.links.append((t.nw, t.sw))
        t.links.append((t.ne, t.se))
        return t

    def twist_right(self, hand: int = 0) -> "TangleBuilder":
        """Append one crossing east of the tangle.

        hand=0: over-strand NW-SE (under axis on the SW-NE diagonal,
        ccw slots SW,SE,NE,NW); hand=1: the mirror.
        """
        i = self.nodes
        self.nodes += 1
        if hand == 0:
            p_sw, p_se = ("p", i, 0), ("p", i, 1)
            p_ne, p_nw = ("p", i, 2), ("p", i, 3)
        elif hand == 1:
            p_se, p_ne = ("p", i, 0), ("p", i, 1)
            p_nw, p_sw = ("p", i, 2), ("p", i, 3)
        else:
            raise PDError("hand must be 0 or 1")
        self.links.append((p_nw, self.ne))
        self.links.append((p_sw, self.se))
        self.ne, self.se = p_ne, p_se
        return self

    def twist_bottom(self, hand: int = 0) -> "TangleBuilder":
        """Append one crossing south of the tangle (a vertical twist).

        The crossing's top ports join the old sw/se ends; its bottom
        ports become the new ones.  Same hand convention as
        :meth:`twist_right`.
        """
        i = self.nodes
        self.nodes += 1
        if hand == 0:
            p_sw, p_se = ("p", i, 0), ("p", i, 1)
            p_ne, p_nw = ("p", i, 2), ("p", i, 3)
        elif hand == 1:
            p_se, p_ne = ("p", i, 0), ("p", i, 1)
            p_nw, p_sw = ("p", i, 2), ("p", i, 3)
        else:
            raise PDError("hand must be 0 or 1")
        self.links.append((p_nw, self.sw))
        self.links.append((p_ne, self.se))
        self.sw, self.se = p_sw, p_se
        return self

    def rotate(self) -> "TangleBuilder":
        """Quarter-turn counterclockwise: ne->nw->sw->se->ne."""
        self.nw, self.ne, self.se, self.sw = \
            self.ne, self.se, self.sw, self.nw
        return self

    def numerator_close(self, extra_circles: int = 0) -> PDCode:
        """Join nw--ne and sw--se around the outside."""
        links = self.links + [(self.nw, self.ne), (self.sw, self.se)]
        return emit_pd(self.nodes, links, extra_circles)

    def denominator_close(self, extra_circles: int = 0) -> PDCode:
        """Join nw--sw and ne--se."""
        links = self.links + [(self.nw, self.sw), (self.ne, self.se)]
        return emit_pd(self.nodes, links, extra_circles)


def twist_closure(m: int, hand: int = 0) -> PDCode:
    """Numerator closure of m equal half-twists (the (2, m) family).

    hand=0 makes every crossing positive as drawn (m=1 closes to the
    positive kink with bracket -A^3 * loop); hand=1 gives the mirror.
    """
    if m < 1:
        raise PDError("need at least one crossing")
    t = TangleBuilder.zero()
    for _ in range(m):
        t.twist_right(hand)
    return t.numerator_close()


def rational_tangle(quotients: Sequence[int],
                    hand: int = 0) -> TangleBuilder:
    """Build the tangle whose fraction is [a_1; a_2, ..., a_k].

    Blocks are laid down innermost first (a_k, then a_{k-1}, ...);
    odd-position blocks are horizontal twist regions, even-position
    blocks vertical, so the last block applied is always horizontal and
    the numerator closure realizes the two-bridge link of the continued
    fraction a_1 + 1/(a_2 + 1/(... + 1/a_k)).  All quotients must be
    positive; the diagram is reduced alternating, and ``hand`` picks
    between the two mirror chiralities.
    """
    if not quotients or any(a < 1 for a in quotients):
        raise PDError("partial quotients must be positive integers")
    k = len(quotients)
    t = TangleBuilder.zero() if k % 2 else TangleBuilder.infinity()
    for j in range(k, 0, -1):
        a = quotients[j - 1]
        if j % 2:  # horizontal block
            for _ in range(a):
                t.twist_right(hand)
        else:
            for _ in range(a):
                t.twist_bottom(hand)
    return t


def rational_knot(quotients: Sequence[int], hand: int = 0) -> PDCode:
    """Numerator closure of :func:`rational_tangle`."""
    return rational_tangle(quotients, hand).numerator_close()


def with_kink(pd: PDCode, arc: int, positive: bool = True) -> PDCode:
    """Insert a curl on the given arc (one extra crossing of that sign).

    The output is re-labeled from scratch; it represents the same link
    with writhe shifted by +-1.
    """
    info = analyze(pd)
    if arc not in info.arc_ports:
        raise PDError(f"no arc {arc} in this diagram")
    # every other arc keeps its ports; the kinked one detours through a
    # new crossing k: in under at slot 0, out at slot 2 on a loop back in
    # over, and out by the last slot.  The loop enters at slot 3 for a
    # positive curl, at slot 1 for a negative one.
    k = 4 * len(pd.crossings)
    glue = list(info.far) + [0] * 4
    (c1, s1), (c2, s2) = info.arc_ports[arc]
    loop, out = (k + 3, k + 1) if positive else (k + 1, k + 3)
    for p, q in ((4 * c1 + s1, k), (out, 4 * c2 + s2), (k + 2, loop)):
        glue[p], glue[q] = q, p
    return _label(glue, pd.extra_circles)[0]
