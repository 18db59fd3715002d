"""The three workloads: their seeded inputs, one pass, and output checks.

A pass runs the workload's fixed op list once, one op at a time, each
pass in fresh processes.  ``run_pass`` returns a dict with the latency
of every op, the pass wall time, every op's output and the layer
counters of traced processes.  ``check`` returns (failed, attempted)
over all passes of a run; an op fails on a wrong output, an unexpected
exit code, an exception or a timeout.
"""

import json
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150

CLI_ENTRIES = ("6_2", "3_1_badequate")
CLI_OPS = (
    ("jones",),
    ("cjones", "--color", "3"),
    ("cjones", "--color", "4"),
    ("cjones", "--color", "5"),
    ("tail", "--terms", "4"),
    ("verify-stability", "--max", "5"),
)
# Extra ops that read their diagram from a PD file, so that parse_pd is on
# the path.  Op latencies fall in three clusters (about 0.13 s, 0.35 s and
# 2.3 s on the py kernel); these three put the median op inside the middle
# cluster instead of at the edge between two, where it would jump.
CLI_FILE_OPS = tuple(("3_1_badequate", op) for op in CLI_OPS[3:])
# verify-stability prints how long each color took
_SECONDS = re.compile(r"\(\d+\.\d+s\)")


def run_child(argv, env, timeout):
    """Run a process to completion: (exit code or None on timeout, stdout,
    stderr, seconds).  Waits without polling, since subprocess's timed
    wait sleeps in steps of up to 50 ms and would blur short timings."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out, err = proc.communicate()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    timed_out = proc.returncode < 0 and elapsed >= timeout
    return (None if timed_out else proc.returncode), out, err, elapsed


def _failed_pass(n_ops):
    return {"lat": [], "wall": None, "out": [None] * n_ops, "layers": []}


def _kernel_disagreements(diagrams):
    """Indices of the diagrams whose bracket differs between the
    importable kernels; empty when only one kernel is importable."""
    from skeinkit import _kernel, jones
    names = _kernel.available_kernels()
    if len(names) < 2:
        return []
    return [i for i, pd in enumerate(diagrams)
            if len({jones.bracket(pd, kernel=k) for k in names}) > 1]


class CliColored:
    """One fresh ``python -m skeinkit.cli`` process per op."""

    name = "cli_colored"
    nominal_pass_s = 10.0

    def __init__(self, seed, smoke, work):
        from skeinkit import diagram
        entries = CLI_ENTRIES[1:] if smoke else CLI_ENTRIES
        self.ops = [(e, op, f"catalog:{e}")
                    for e in entries for op in CLI_OPS]
        for entry, op in CLI_FILE_OPS:
            path = work / f"{entry}.pd"
            path.write_text(diagram.format_pd(diagram.catalog_lookup(entry))
                            + "\n", encoding="utf-8")
            self.ops.append((entry, op, str(path)))
        random.Random(seed).shuffle(self.ops)
        self.work = work
        self.entries = entries
        expected = json.loads((HERE / "expected_cli.json")
                              .read_text(encoding="utf-8"))
        self.expected = [expected[" ".join((e,) + op)] for e, op, _ in
                         self.ops]

    def run_pass(self, traced, env):
        counters = self.work / "counters.json"
        out = {"lat": [], "out": [], "layers": []}
        for _, op, source in self.ops:
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"),
                        str(counters), *op, source]
            else:
                argv = [sys.executable, "-m", "skeinkit.cli", *op, source]
            code, stdout, _, elapsed = run_child(argv, env, OP_TIMEOUT_S)
            result = None if code is None else [code, stdout]
            out["lat"].append(elapsed)
            out["out"].append(result)
            if traced and result is not None and counters.exists():
                out["layers"].append(json.loads(counters.read_text()))
                counters.unlink()
        out["wall"] = sum(out["lat"])
        return out

    def check(self, passes):
        from skeinkit import diagram
        failed = attempted = 0
        for p in passes:
            for got, want in zip(p["out"], self.expected):
                attempted += 1
                if got is None or got[0] != want["code"] or \
                        _SECONDS.sub("(s)", got[1]) != want["stdout"]:
                    failed += 1
        # the kernels must agree on the cables this workload sweeps; each
        # disagreement counts as one more failed check
        cables = [diagram.cable(diagram.catalog_lookup(e), r)
                  for e in self.entries for r in (1, 2, 3)]
        bad = _kernel_disagreements(cables)
        return failed + len(bad), attempted + len(bad)


def _quotients(rng, crossings):
    """A random composition of the crossing count into partial quotients."""
    cuts = sorted(rng.sample(range(1, crossings),
                             rng.randint(0, crossings - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [crossings])]


def _is_link(quotients):
    """The two-bridge closure has two components iff the continued
    fraction's numerator is even."""
    p, q = 1, 0
    for a in reversed(quotients):
        p, q = a * p + q, p
    return p % 2 == 0


# bases per crossing count: small counts have few distinct diagrams
_BASES = {1: 1, 2: 2, 3: 6, 4: 10, 5: 15, 6: 20, 7: 24, 8: 24, 9: 24,
          10: 24, 11: 24, 12: 24}
_SMOKE_BASES = {3: 2, 5: 2, 7: 2}
_MIRRORS, _KINKS, _SMOKE_VARIANTS = 70, 30, 2
# kinks go on bases of at most this many crossings: the greedy plan of a
# kinked diagram's 2-cable can be far wider (width 20 and 1.1 s for one
# of 12 crossings, against width <= 10 unkinked), which would turn this
# workload of many narrow sweeps into one of a few wide ones
_KINK_BASE_MAX = 5
_BRUTE_FORCE_MAX = 10


def api_batch_diagrams(seed, smoke):
    """About 300 distinct two-bridge diagrams of 1-12 crossings.

    Returns (diagrams, relation): relation[i] is None for a base diagram,
    else (kind, j) with kind "mirror", "kink+" or "kink-" of base j.
    Every third base slot asks for a two-component link.
    """
    from skeinkit import construct, diagram
    rng = random.Random(seed)
    diagrams, relation, seen = [], [], set()

    def add(pd, rel):
        if pd not in seen:
            seen.add(pd)
            diagrams.append(pd)
            relation.append(rel)

    for crossings, count in (_SMOKE_BASES if smoke else _BASES).items():
        for slot in range(count):
            want_link = slot % 3 == 2
            for _ in range(200):
                qs = _quotients(rng, crossings)
                pd = construct.rational_knot(qs, hand=rng.randint(0, 1))
                if _is_link(qs) == want_link and pd not in seen:
                    add(pd, None)
                    break
    bases = list(range(len(diagrams)))
    # mirror evenly spaced bases, so that every crossing count is mirrored
    # alike and the cost of a pass hardly depends on the seed
    n_mirrors = _SMOKE_VARIANTS if smoke else _MIRRORS
    step = len(bases) / n_mirrors
    start = rng.random() * step
    for i in range(n_mirrors):
        j = bases[int(start + i * step)]
        add(diagram.mirror(diagrams[j]), ("mirror", j))
    small = [j for j in bases
             if len(diagrams[j].crossings) <= _KINK_BASE_MAX]
    n_kinks = len(diagrams) + (_SMOKE_VARIANTS if smoke else _KINKS)
    while len(diagrams) < n_kinks:
        j = rng.choice(small)
        arc = rng.choice(sorted({a for x in diagrams[j].crossings
                                 for a in x}))
        positive = rng.random() < 0.5
        add(construct.with_kink(diagrams[j], arc, positive),
            ("kink+" if positive else "kink-", j))
    order = list(range(len(diagrams)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return ([diagrams[i] for i in order],
            [None if relation[i] is None
             else (relation[i][0], where[relation[i][1]]) for i in order])


class _WorkerWorkload:
    """A workload whose pass is one worker.py process."""

    def __init__(self, work, spec, n_ops):
        self.inputs = work / f"{self.name}-inputs.json"
        self.inputs.write_text(json.dumps(spec), encoding="utf-8")
        self.n_ops = n_ops

    def run_pass(self, traced, env):
        argv = [sys.executable, str(HERE / "worker.py"), self.name,
                str(self.inputs), "1" if traced else "0"]
        code, stdout, stderr, _ = run_child(argv, env, PASS_TIMEOUT_S)
        if code != 0:
            sys.stderr.write(stderr)
            return _failed_pass(self.n_ops)
        result = json.loads(stdout)
        result["out"] = [json.loads(x) for x in result["out"]]
        return result

    def check(self, passes):
        """Check the first complete pass with oracles; every pass must
        then reproduce it exactly."""
        ref = next((p["out"] for p in passes if p["wall"] is not None), None)
        bad = set(range(self.n_ops)) if ref is None else self.bad_ops(ref)
        failed = attempted = 0
        for p in passes:
            for i, got in enumerate(p["out"]):
                attempted += 1
                if got is None or got != ref[i] or i in bad:
                    failed += 1
        return failed, attempted


def _poly(terms):
    from skeinkit.poly import LaurentPoly
    return LaurentPoly(tuple(tuple(t) for t in terms))


class ApiBatch(_WorkerWorkload):
    """In-process API calls, four per diagram."""

    name = "api_batch"
    nominal_pass_s = 3.5

    def __init__(self, seed, smoke, work):
        self.diagrams, self.relation = api_batch_diagrams(seed, smoke)
        spec = {"diagrams": [[list(map(list, pd.crossings)),
                              pd.extra_circles] for pd in self.diagrams]}
        super().__init__(work, spec, 4 * len(self.diagrams))

    def bad_ops(self, out):
        from skeinkit import diagram, jones
        from skeinkit.poly import monomial
        from skeinkit.quantum import delta
        n = len(self.diagrams)
        # a diagram with an op that raised is checked no further, nor are
        # its variants
        broken = {k for k in range(n) if None in out[4 * k:4 * k + 4]}
        broken |= {k for k in range(n) if self.relation[k] is not None
                   and self.relation[k][1] in broken}
        bad = {4 * k + i for k in broken for i in range(4)}
        results = {k: (_poly(out[4 * k]), _poly(out[4 * k + 1]),
                       out[4 * k + 2], _poly(out[4 * k + 3]))
                   for k in range(n) if k not in broken}
        for k, pd in enumerate(self.diagrams):
            if k in broken:
                continue
            br, jo, (a_ok, b_ok, a_circ, b_circ), rc = results[k]
            c = len(pd.crossings)
            w = diagram.writhe(pd)
            if c <= _BRUTE_FORCE_MAX and br != jones.brute_force_bracket(pd):
                bad.add(4 * k)
            if jo * delta(1) != monomial(-1 if w % 2 else 1, -3 * w) * br:
                bad.add(4 * k + 1)
            # an adequate side's extreme state term cannot cancel
            if (a_ok and (br.max_degree() != c + 2 * a_circ
                          or abs(br.coeff(br.max_degree())) != 1)) or \
                    (b_ok and (br.min_degree() != -c - 2 * b_circ
                               or abs(br.coeff(br.min_degree())) != 1)):
                bad.add(4 * k + 2)
            if self.relation[k] is None:
                continue
            kind, j = self.relation[k]
            br0, jo0, ad0, rc0 = results[j]
            if kind == "mirror":
                want = (br0.mirror(), jo0.mirror(),
                        [ad0[1], ad0[0], ad0[3], ad0[2]], rc0.mirror())
                for i, (g, e) in enumerate(zip(results[k], want)):
                    if g != e:
                        bad.add(4 * k + i)
            else:
                kink = monomial(-1, 3 if kind == "kink+" else -3)
                if br != kink * br0:
                    bad.add(4 * k)
                if jo != jo0:
                    bad.add(4 * k + 1)
                if rc != rc0:
                    bad.add(4 * k + 3)
        for k in _kernel_disagreements(self.diagrams):
            bad.add(4 * k)
        return bad


_THETAS = ((2, 2, 2), (2, 3, 3), (3, 3, 2), (3, 3, 4), (2, 4, 4), (4, 4, 4),
           (3, 4, 5), (5, 5, 2))


class Projector(_WorkerWorkload):
    """Projector builds, one product and closed networks, in ``tl`` only.

    The projectors are built first, cold and in increasing size; the
    seed shuffles the network evaluations, which only read them.
    """

    name = "projector"
    nominal_pass_s = 6.5

    def __init__(self, seed, smoke, work):
        rng = random.Random(seed)
        top = 4 if smoke else 6
        networks = [("theta", list(t)) for t in _THETAS
                    if not smoke or max(t) <= 3]
        networks += [("trace", n) for n in range(2, top + 1)]
        rng.shuffle(networks)
        self.ops = ([("jones_wenzl", n) for n in range(2, top + 1)]
                    + [("product", top - 1)] + networks)
        super().__init__(work, {"ops": self.ops}, len(self.ops))

    def bad_ops(self, out):
        from skeinkit.poly import RationalFn
        from skeinkit.quantum import delta, theta
        from skeinkit.tl import Matching, TLElement, hook
        from tracing import catalan

        def rational(blob):
            return RationalFn(_poly(blob[0]), _poly(blob[1]))

        def element(n, blob):
            return TLElement.build(n, [(Matching(n, tuple(m)), rational(c))
                                       for m, c in blob])

        bad = set()
        built = {}
        for i, (kind, arg) in enumerate(self.ops):
            if out[i] is None or (kind == "product" and arg not in built):
                bad.add(i)
                continue
            if kind == "jones_wenzl":
                f = built[arg] = element(arg, out[i])
                ok = (len(f.terms) == catalan(arg)
                      and f.coefficient(Matching.identity(arg))
                      == RationalFn.of(1))
                for j in range(1, arg):
                    h = TLElement.of_matching(hook(arg, j))
                    ok = ok and (h * f).is_zero and (f * h).is_zero
            elif kind == "product":
                ok = element(arg, out[i]) == built[arg]
            elif kind == "theta":
                ok = rational(out[i]) == theta(*arg)
            else:
                ok = rational(out[i]) == RationalFn.of(delta(arg))
            if not ok:
                bad.add(i)
        return bad


WORKLOADS = {w.name: w for w in (CliColored, ApiBatch, Projector)}
