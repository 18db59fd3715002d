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

This module is deliberately free of package imports; the compiled kernel
(_sweep_c) implements the same contract with int64 coefficients.
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


def run(program):
    """Execute a sweep program; return the packed bracket (base, coeffs).

    The empty diagram gives (0, [1]).
    """
    states = {b"": (0, [1])}
    for w0, closures, keep, rank in program:
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
        states = nxt
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
