"""Pure-Python sweep kernel (arbitrary-precision coefficients).

States of the pairing sweep are perfect matchings of the currently open
strand-ends, encoded as a bytes partner array P (P[P[i]] == i).  Each state
carries a packed polynomial ``(base, coeffs)``: a list of exact ints in
steps of A^2, the first at A^base.  All coefficients at a given step share
exponent parity, so the half-steps are always empty.  Every stored list is
stripped (nonzero first and last entry) and is never mutated afterwards,
so the two branches of one state may share it.

The kernel consumes a *program*: per crossing a tuple

    (width_in, closures, keep, rank)

where the four new ends sit at indices width_in..width_in+3 (tuple-position
order a, b, c, d), the A-branch pairs (a b)(c d) with weight A, the B-branch
pairs (a d)(b c) with weight A^-1, ``closures`` lists index pairs to merge
in the extended frame, and ``keep``/``rank`` re-pack the survivors.

Each step first builds its tables (:func:`_tables`): the 4-byte fresh tail
of each branch, the closed indices in descending order, and a 256-byte
rank table.  Then, per state and branch, :func:`_surgery` runs on a
``bytearray`` of key + tail: it merges the closures, deletes the closed
indices with ``del`` and re-packs with one ``bytes.translate``.  The
coefficient work (multiplying by the loop value, adding two states) is
slice assignment and ``map`` over :mod:`operator` functions.  So a state
costs O(closures) bytecodes per branch, not O(width + coefficient span);
the per-element work runs in C.

**Degree window.**  ``run(program, floor=f)`` returns exactly the terms of
the bracket with exponent >= f, and sweeps only the states that can reach
them.  The bound is the state-sum degree bound (Lickorish, *An
Introduction to Knot Theory*, ch. 5) applied to the crossings still to
come: switching one smoothing from A to B lowers the weight by A^2 and
changes the circle count by at most one, so no completion of a partial
state exceeds its all-A completion.  Before sweeping, one backward pass
over the program's tuples (:func:`_all_a_cuts`) gives, for each cut (the
open ends between two steps), the matching M_A that the all-A smoothing
of the r crossings still to come induces on the open ends, and the number
c of circles it closes entirely.  After each step, a term A^e of a state
with matching M can reach at most

    e + r + 2 * (c + cycles(M u M_A)),

and every term below f by that bound is cut off the low end of the list;
a state with no term left is dropped.  Cut 0 gives the certified top
T + 2*c0 (:func:`certified_top`), which an A-adequate diagram attains.
The bound holds for every diagram, adequate or not.  With ``floor=None``
the kernel runs the full sweep and computes no bound.

This module is deliberately free of package imports.  It is the
package's only sweep kernel; ``_kernel.run_packed`` is its entry point.
"""

from operator import add, neg, sub

KERNEL_NAME = "py"


def _tables(w0, closures, rank):
    """The per-step tables: fresh tails of the A and B branches, closed
    indices in descending order, and the re-pack table for translate."""
    fresh_a = bytes((w0 + 1, w0, w0 + 3, w0 + 2))      # A: (ab)(cd)
    fresh_b = bytes((w0 + 3, w0 + 2, w0 + 1, w0))      # B: (ad)(bc)
    dead = sorted(sum(closures, ()), reverse=True)
    # a closed index's rank (-1) wraps to 255; translate never sees it
    table = bytes(map((255).__and__, rank)).ljust(256, b"\0")
    return fresh_a, fresh_b, dead, table


def _surgery(p, closures, dead, table):
    """Merge the closures in partner array ``p`` (a bytearray of the
    extended frame, consumed); return (re-packed key, loops closed)."""
    loops = 0
    for i, j in closures:
        x = p[i]
        y = p[j]
        if x == j:
            loops += 1
        else:
            p[x] = y
            p[y] = x
    for i in dead:
        del p[i]
    return bytes(p).translate(table), loops


def _step(states, w0, closures, rank):
    """Insert one crossing into every state; return the next state map."""
    fresh_a, fresh_b, dead, table = _tables(w0, closures, rank)
    nxt = {}
    get = nxt.get
    for key, (base, co) in states.items():
        for fresh, b in ((fresh_a, base + 1), (fresh_b, base - 1)):
            new_key, loops = _surgery(bytearray(key + fresh), closures,
                                      dead, table)
            c = co
            for _ in range(loops):          # times -A^2 - A^-2
                d = list(map(neg, c))
                d += (0, 0)
                d[2:] = map(sub, d[2:], c)
                b -= 2
                c = d
            got = get(new_key)
            if got is None:
                nxt[new_key] = (b, c)
                continue
            b2, c2 = got
            if b > b2:
                b, c, b2, c2 = b2, c2, b, c
            o = (b2 - b) >> 1
            e = o + len(c2)
            s = c + [0] * (e - len(c))
            s[o:e] = map(add, s[o:e], c2)
            if not (s[0] and s[-1]):        # cancellation: strip
                i = 0
                while i < len(s) and not s[i]:
                    i += 1
                if i == len(s):
                    del nxt[new_key]
                    continue
                while not s[-1]:
                    s.pop()
                del s[:i]
                b += 2 * i
            nxt[new_key] = (b, s)
    return nxt


def _all_a_cuts(program):
    """The all-A smoothing of the crossings still to come, seen from each cut.

    Returns ``(top, cuts)``.  ``cuts[t]`` describes the cut after step t
    as ``(reach, pairs)``: the r crossings still to come smooth into
    c closed circles and join the open ends in ``pairs``, and
    reach = r + 2c.  ``top`` is T + 2*c0 for the T crossings and the c0
    circles of the whole all-A state: no exponent of the bracket exceeds
    it.  One backward pass over the program's tuples.
    """
    cuts = []
    pairs = ()          # the all-A matching on the ends open after step t
    circles = 0
    for w0, closures, keep, rank in reversed(program):
        cuts.append((len(cuts) + 2 * circles, pairs))
        root = list(range(w0 + 4))

        def find(x):
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        for i, j in ((w0, w0 + 1), (w0 + 2, w0 + 3), *closures,
                     *((keep[i], keep[j]) for i, j in pairs)):
            root[find(i)] = find(j)
        ends = {}
        for i in range(w0):
            ends.setdefault(find(i), []).append(i)
        circles += len({find(x) for x in range(w0 + 4)}) - len(ends)
        pairs = tuple(tuple(e) for e in ends.values())
    cuts.reverse()
    return len(program) + 2 * circles, cuts


def certified_top(program):
    """Upper bound on the bracket's exponents: T + 2*c0 (see _all_a_cuts)."""
    return _all_a_cuts(program)[0]


def _prune(states, low, pairs):
    """Drop every term whose exponent plus twice the loops its state's
    key closes against ``pairs`` lies below ``low``."""
    out = {}
    for key, (base, co) in states.items():
        loops = _surgery(bytearray(key), pairs, (), None)[1]
        k = (low - 2 * loops - base + 1) >> 1
        if k > 0:
            if k >= len(co):
                continue
            co = co[k:]
            while not co[0]:
                del co[0]
                k += 1
            base += 2 * k
        out[key] = (base, co)
    return out


def run(program, floor=None):
    """Execute a sweep program; return the packed bracket (base, coeffs).

    The empty diagram gives (0, [1]).  With ``floor``, return only the
    terms with exponent >= floor (exactly those of the full bracket);
    ``(0, [])`` when there are none.
    """
    states = {b"": (0, [1])}
    if floor is None:
        for w0, closures, keep, rank in program:
            states = _step(states, w0, closures, rank)
    else:
        top, cuts = _all_a_cuts(program)
        states = _prune(states, floor - top, ())
        for (w0, closures, keep, rank), (reach, pairs) in zip(program, cuts):
            if not states:
                break
            states = _prune(_step(states, w0, closures, rank),
                            floor - reach, pairs)
    if not states:
        return 0, []
    if len(states) != 1 or b"" not in states:
        raise AssertionError("sweep ended with open strand-ends")
    return states[b""]


def replay_circles(program, branches):
    """Circle count of one fully-smoothed state.

    ``branches`` maps the program step index to 'A' or 'B'.  Runs the same
    :func:`_surgery` as :func:`run`, so equality with an independent
    circle count validates the kernel's merging logic.
    """
    key = b""
    circles = 0
    for step, (w0, closures, keep, rank) in enumerate(program):
        fresh_a, fresh_b, dead, table = _tables(w0, closures, rank)
        fresh = fresh_a if branches[step] == "A" else fresh_b
        key, loops = _surgery(bytearray(key + fresh), closures, dead, table)
        circles += loops
    return circles
