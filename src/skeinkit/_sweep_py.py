"""Pure-Python sweep kernel (arbitrary-precision coefficients).

States of the pairing sweep are perfect matchings of the currently open
strand-ends, encoded as a bytes partner array P (P[P[i]] == i).  Each state
carries a packed polynomial ``(base, coeffs)``: a list of exact ints in
steps of A^2, the first at A^base.  All coefficients at a given step share
exponent parity, so the half-steps are always empty.  Every stored list is
stripped (nonzero first and last entry) and is never mutated afterwards,
so the two branches of one state may share it.

The kernel consumes a *program* (``diagram.SweepPlan.program``): per
crossing a pair

    (width_in, closures)

where the four new ends sit at indices width_in..width_in+3 (tuple-position
order a, b, c, d), the A-branch pairs (a b)(c d) with weight A, the B-branch
pairs (a d)(b c) with weight A^-1, and ``closures`` lists index pairs to
merge in the extended frame.  The surviving ends keep their order and
are re-packed to the lowest indices.

Each step first builds its tables (:func:`_tables`): the 4-byte fresh tail
of each branch, the closed indices in descending order, and a 256-byte
table that re-packs the survivors.  Then, per state and branch,
:func:`_surgery` runs on a ``bytearray`` of key + tail: it merges the
closures, deletes the closed indices with ``del`` and re-packs with one
``bytes.translate``.  The coefficient work (multiplying by the loop
value, adding two states) is slice assignment and ``map`` over
:mod:`operator` functions.  So a state costs O(closures) bytecodes per
branch, not O(width + coefficient span); the per-element work runs in C.

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
T + 2*c0 (the ``top`` of :func:`_all_a_cuts`), which an A-adequate
diagram attains.
The bound holds for every diagram, adequate or not.  With ``floor=None``
the kernel runs the full sweep and computes no bound.

**Cut arcs.**  A plan that cuts arcs open (``diagram.plan_sweep(pd,
cut=...)``) leaves their ends open to the end.  ``run(program,
identity=key)`` returns the coefficient of one matching of those ends,
the identity, which joins each cut arc up again; :func:`_dead_pairs`
drops on the way every state that cannot reach it.  ``jones`` uses this
for the colored bracket of a long knot.  A floor applies to that
coefficient: the bound above is taken in the closure by the identity,
so :func:`_all_a_cuts` starts its backward pass from the identity's
pairs, and a path through the crossings still to come that the identity
joins up is one more circle of M u M_A.  A state that ends at the
identity closes k circles with it, for k cut arcs, so its terms reach
at most

    e + r + 2 * (c + cycles(M u M_A) - k),

and the certified top is T + 2*c0 - 2k, c0 counting the circles of the
closure's all-A state.  Each step runs :func:`_step`, then the dead-pair
filter when there is an identity, then :func:`_prune` when there is a
floor.

This module is deliberately free of package imports.  It is the
package's only sweep kernel; ``_kernel.run_packed`` is its entry point.
``tl`` reuses :func:`_surgery` and :func:`_repack` to glue matchings,
so no other code joins partner arrays and counts the loops they close.
"""

from operator import add, neg, sub

KERNEL_NAME = "py"


def _keep(size, closures):
    """The indices of a frame of ``size`` ends that survive, in order."""
    dead = set(sum(closures, ()))
    return [i for i in range(size) if i not in dead]


def _repack(size, closures):
    """The closed indices of a frame of ``size`` ends in descending
    order, and the table that re-packs its survivors for translate."""
    if size > 256:
        raise ValueError(f"a frame of {size} ends exceeds a byte key's 256")
    dead = sorted(sum(closures, ()), reverse=True)
    # a closed index keeps entry 0; translate never sees it
    table = bytearray(256)
    for k, i in enumerate(_keep(size, closures)):
        table[i] = k
    return dead, bytes(table)


def _tables(w0, closures):
    """The per-step tables: fresh tails of the A and B branches, closed
    indices in descending order, and the re-pack table for translate."""
    dead, table = _repack(w0 + 4, closures)
    fresh_a = bytes((w0 + 1, w0, w0 + 3, w0 + 2))      # A: (ab)(cd)
    fresh_b = bytes((w0 + 3, w0 + 2, w0 + 1, w0))      # B: (ad)(bc)
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


def _step(states, w0, closures):
    """Insert one crossing into every state; return the next state map."""
    fresh_a, fresh_b, dead, table = _tables(w0, closures)
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


def _all_a_cuts(program, identity=b""):
    """The all-A smoothing of the crossings still to come, seen from each cut.

    Returns ``(top, cuts)``.  ``cuts[t]`` describes the cut after step t
    as ``(reach, pairs)``: the r crossings still to come smooth into
    c closed circles and join the open ends in ``pairs``, and
    reach = r + 2c.  ``top`` is T + 2*c0 for the T crossings and the c0
    circles of the whole all-A state: no exponent of the bracket exceeds
    it.  One backward pass over the program's tuples.

    With ``identity``, the ends left open at the end are joined up by
    that matching, so the state is the one of the closure: a path that
    the identity closes counts as one circle.
    """
    cuts = []
    # the all-A matching on the ends open after step t
    pairs = tuple((i, j) for i, j in enumerate(identity) if i < j)
    circles = 0
    for w0, closures in reversed(program):
        cuts.append((len(cuts) + 2 * circles, pairs))
        keep = _keep(w0 + 4, closures)
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


def _dead_pairs(program, identity):
    """For each cut, the pairs of open ends that no state may hold if it
    is to reach the matching ``identity`` of the ends left open at the end.

    Returns one tuple per step, for the cut after it: pairs (i, js), the
    end i must not be paired with any end in the bytes js.  Two rules:

    * boundary: a cut end (open to the end) paired with another cut end
      other than its partner in ``identity`` stays so;
    * turnback: the strand paths from two ends through the crossings
      still to come both run to cut ends, and cross the same arcs
      (rungs) in the same order with the same over/under role, the
      rungs on the facing sides.  The strip between the paths is a
      chain of faces, so a cap on the two ends slides by Reidemeister II
      moves onto their cut ends, and every completion pairs those.

    One backward pass over the program, as in :func:`_all_a_cuts`.
    ``closer[i]`` names the arc that closes open end i later: (step,
    closure index), or ("cut", final index).  ``legs[i]`` is None, or
    (right, left, f) when the path from end i runs to the cut end of
    final index f: right and left are interned ids of the rungs on each
    side of the path, None where one of them is a kink or a cut arc.
    """
    closer = [("cut", f) for f in range(len(identity))]
    legs = [None] * len(identity)
    chains = {}

    def chain(link):
        return chains.setdefault(link, len(chains) + 1)

    out = []
    for s in range(len(program) - 1, -1, -1):
        out.append(_cut_pairs(closer, legs, identity))
        w0, closures = program[s]
        ext_closer = [None] * (w0 + 4)
        ext_legs = [None] * (w0 + 4)
        for k, x in enumerate(_keep(w0 + 4, closures)):
            ext_closer[x] = closer[k]
            ext_legs[x] = legs[k]
        mate = {}
        for k, (i, j) in enumerate(closures):
            ext_closer[i] = ext_closer[j] = (s, k)
            mate[i], mate[j] = j, i

        def rung(x):
            # the arc at new end x; a kink or a cut arc bounds no strip
            c = ext_closer[x]
            kink = x in mate and mate[x] >= w0
            return None if kink or c[0] == "cut" else c

        legs = ext_legs[:w0]
        for x in range(w0):
            if x not in mate:
                continue
            # old end x enters this crossing at mate[x]; walk straight
            # through it (twice over a kink) to the end it leaves by
            visits = []
            y = mate[x]
            while y is not None:
                q = y - w0
                visits.append((q & 1, rung(w0 + (q + 1) % 4),
                               rung(w0 + (q + 3) % 4)))
                z = w0 + (q ^ 2)
                if z not in mate:
                    break
                y = mate[z] if mate[z] >= w0 else None
            c = ext_closer[z]
            tail = (0, 0, c[1]) if c[0] == "cut" else ext_legs[z]
            if y is None or tail is None:
                continue
            right, left, f = tail
            for role, r, l in reversed(visits):
                right = None if None in (r, right) \
                    else chain((role, r, right))
                left = None if None in (l, left) else chain((role, l, left))
            legs[x] = (right, left, f)
        closer = ext_closer[:w0]
    out.reverse()
    return out


def _cut_pairs(closer, legs, identity):
    """The dead pairs of one cut (see :func:`_dead_pairs`)."""
    bad = {}
    cut = {c[1]: i for i, c in enumerate(closer) if c[0] == "cut"}
    for f, i in cut.items():
        bad[i] = {j for g, j in cut.items() if g not in (f, identity[f])}
    by_left = {}
    for j, leg in enumerate(legs):
        if leg and leg[1] is not None:
            by_left.setdefault(leg[1], []).append((j, leg[2]))
    for i, leg in enumerate(legs):
        if leg and leg[0] is not None:
            # paths to the two halves of one cut arc bound no strip that
            # ends on the cut
            bad.setdefault(i, set()).update(
                j for j, g in by_left.get(leg[0], ())
                if g != identity[leg[2]])
    return tuple((i, bytes(sorted(js))) for i, js in bad.items() if js)


def run(program, floor=None, identity=b"", tick=None):
    """Execute a sweep program; return the packed bracket (base, coeffs).

    The empty diagram gives (0, [1]).  With ``floor``, return only the
    terms with exponent >= floor (exactly those of the full bracket);
    ``(0, [])`` when there are none.

    A program that leaves ends open (a plan with cut arcs) returns the
    coefficient of the matching ``identity`` of those ends, and drops
    on the way every state that cannot reach it (:func:`_dead_pairs`);
    a floor then applies to that coefficient.

    ``tick``, called with no arguments at entry and after each step,
    stops the sweep by raising (a time limit needs no import here).
    """
    if tick:
        tick()
    states = {b"": (0, [1])}
    dead = _dead_pairs(program, identity) if identity else ()
    cuts = ()
    if floor is not None:
        top, cuts = _all_a_cuts(program, identity)
        # the closure by the identity adds len(identity) / 2 circles,
        # which lie above the identity's coefficient
        floor += len(identity)
        states = _prune(states, floor - top, ())
    for t, (w0, closures) in enumerate(program):
        if not states:
            break
        states = _step(states, w0, closures)
        if dead and dead[t]:
            bad = dead[t]
            states = {k: v for k, v in states.items()
                      if not any(k[i] in js for i, js in bad)}
        if cuts:
            reach, pairs = cuts[t]
            states = _prune(states, floor - reach, pairs)
        if tick:
            tick()
    if not states:
        return 0, []
    if len(states) != 1 or identity not in states:
        raise AssertionError("sweep ended with open strand-ends")
    return states[identity]


def replay_circles(program, branches):
    """Circle count of one fully-smoothed state.

    ``branches[t]`` is 'A' or 'B', the smoothing of program step t (of
    crossing ``plan.order[t]``).  Runs the same :func:`_surgery` as
    :func:`run`, so equality with an independent circle count validates
    the plan's wiring and the kernel's merging logic.
    """
    key = b""
    circles = 0
    for (w0, closures), branch in zip(program, branches, strict=True):
        fresh_a, fresh_b, dead, table = _tables(w0, closures)
        fresh = fresh_a if branch == "A" else fresh_b
        key, loops = _surgery(bytearray(key + fresh), closures, dead, table)
        circles += loops
    return circles
