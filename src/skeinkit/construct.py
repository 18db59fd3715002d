"""Programmatic diagram builders: twist regions, rational tangles, kinks.

Tangles are labelled like :func:`with_kink`: both wire their crossings
into a port array (port 4i+s, slot s of crossing i, to the port joined
to it; :func:`with_kink` starts from a copy of ``DiagramInfo.far``) and
label it with ``diagram._label``, the strand walk that
:func:`skeinkit.diagram.cable_multi` uses too.

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

from typing import Sequence

from .diagram import PDCode, _label, analyze
from .errors import PDError


# the four boundary corners, counterclockwise
NW, SW, SE, NE = range(4)


def _join(glue: list[int], ends: list[int], x: int, y: int) -> None:
    """Join two strand ends, each a port or ~k for corner k at the far
    end of a strand that crosses nothing."""
    if x >= 0 and y >= 0:
        glue[x], glue[y] = y, x
    else:
        if x < 0:
            ends[~x] = y
        if y < 0:
            ends[~y] = x


class TangleBuilder:
    """A 2-string tangle under construction.

    ``glue[4*i + s]`` is the port joined to slot s of crossing i, once
    both ends of that arc lie on crossings.  ``ends[k]`` is the port at
    the other end of the strand from corner k (NW, SW, SE or NE), or ~j
    on a strand that crosses nothing yet and ends at corner j.
    """

    def __init__(self, ends: list[int]):
        self.glue: list[int] = []
        self.ends = ends

    @classmethod
    def zero(cls) -> "TangleBuilder":
        """The 0-tangle: nw--ne and sw--se strands, no crossings."""
        return cls([~NE, ~SE, ~SW, ~NW])

    @classmethod
    def infinity(cls) -> "TangleBuilder":
        """The infinity-tangle: nw--sw and ne--se strands, no crossings."""
        return cls([~SW, ~NW, ~NE, ~SE])

    def _twist(self, hand: int, pairs) -> "TangleBuilder":
        """Add a crossing whose port at corner c joins this tangle's end
        at corner k, for each (c, k) in ``pairs``; its ports at those
        corners k become the tangle's new ends there."""
        if hand not in (0, 1):
            raise PDError("hand must be 0 or 1")
        p = len(self.glue)
        self.glue += [-1] * 4
        # the crossing's port at each corner: slot 0 at SW, or SE for hand 1
        port = [p + (k - 1 - hand) % 4 for k in range(4)]
        for c, k in pairs:
            _join(self.glue, self.ends, port[c], self.ends[k])
        for _, k in pairs:
            self.ends[k] = port[k]
        return self

    def twist_right(self, hand: int = 0) -> "TangleBuilder":
        """Append one crossing east of the tangle.

        Its west ports join the old ne/se ends; its east ports become
        the new ones.  hand=0: over-strand NW-SE (under axis on the
        SW-NE diagonal, ccw slots SW,SE,NE,NW); hand=1: the mirror.
        """
        return self._twist(hand, ((NW, NE), (SW, SE)))

    def twist_bottom(self, hand: int = 0) -> "TangleBuilder":
        """Append one crossing south of the tangle (a vertical twist).

        The crossing's top ports join the old sw/se ends; its bottom
        ports become the new ones.  Same hand convention as
        :meth:`twist_right`.
        """
        return self._twist(hand, ((NW, SW), (NE, SE)))

    def rotate(self) -> "TangleBuilder":
        """Quarter-turn counterclockwise: ne->nw->sw->se->ne."""
        # each end moves on one corner, and so does the corner it names
        self.ends = [e if e >= 0 else ~((~e + 1) % 4)
                     for e in self.ends[-1:] + self.ends[:-1]]
        return self

    def _close(self, pairs, extra_circles: int) -> PDCode:
        """Join the ends at each corner pair in ``pairs`` and label."""
        glue, ends = self.glue[:], self.ends[:]
        circles = extra_circles
        for a, b in pairs:
            if ends[a] == ~b:       # a strand that crosses nothing closes
                circles += 1
            else:
                _join(glue, ends, ends[a], ends[b])
        return _label(glue, circles)[0]

    def numerator_close(self, extra_circles: int = 0) -> PDCode:
        """Join nw--ne and sw--se around the outside."""
        return self._close(((NW, NE), (SW, SE)), extra_circles)

    def denominator_close(self, extra_circles: int = 0) -> PDCode:
        """Join nw--sw and ne--se."""
        return self._close(((NW, SW), (NE, SE)), extra_circles)


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
