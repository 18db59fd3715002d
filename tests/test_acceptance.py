"""End-to-end acceptance checks.

Each test below is one numbered criterion; a summary hook in conftest.py
prints one PASS/FAIL line per criterion at the end of the run.  Wall
clocks guard the stated time boxes; the final criterion is a soft
resource budget and reports a miss instead of failing.
"""

import itertools
import json
import os
import resource
import subprocess
import sys
import time

from oracles import (
    SIX_TWO_ROWS, SIX_TWO_TAIL_5, bfs_word_lengths, q_series_from_json,
)
import skeinkit
from skeinkit.cli import main
from skeinkit.construct import twist_closure
from skeinkit.diagram import (
    adequacy, cable, catalog_lookup, catalog_names, mirror,
)
from skeinkit.jones import (
    bracket, brute_force_bracket, colored_bracket, reduced_colored,
)
from skeinkit.poly import LaurentPoly, RationalFn
from skeinkit.quantum import admissible, delta, gamma, theta
from skeinkit.tail import dot_eq, normalize
from skeinkit.tl import (
    Matching, TLElement, enumerate_matchings, hook, jones_wenzl,
    min_word_length, network_evaluate, partial_trace, theta_network,
    trace_network,
)

# child processes import skeinkit from the tree this run imports
SRC = os.path.dirname(os.path.dirname(skeinkit.__file__))

CRITERIA = {
    1: "two-color row of the six-crossing benchmark via the CLI, under 1s",
    2: "benchmark rows N=3..5: stable prefix, suffix, and span",
    3: "coefficient stabilization for four knots, mirrors, one-sided case",
    4: "twist-eigenvalue and channel-weight degree laws up to n=10",
    5: "projector identities through n=6 and the degree/word-length bound",
    6: "closed-form vertex values equal network evaluations",
    7: "twist-region fusion identity for n<=3, m<=3",
    8: "adequacy flags of bundled diagrams; cables keep A-adequacy",
    9: "sweep evaluator equals the literal state sum everywhere it fits",
    10: "soft budget: six-color benchmark inside 10 minutes and 4 GB",
    11: "soft budget: six stable tail coefficients of the benchmark "
        "inside 2 minutes and 200 MB",
}

SOFT_NOTES = {}

SIX_TWO_N2 = {0: 1, 1: -2, 2: 2, 3: -2, 4: 2, 5: -1, 6: 1}


def _as_q_table(table):
    return LaurentPoly.from_dict({-4 * e: c for e, c in table.items()})


def test_criterion_01_benchmark_two_color(capsys):
    t0 = time.monotonic()
    code = main(["cjones", "--color", "2", "catalog:6_2",
                 "--format", "json"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    got = q_series_from_json(json.loads(out))
    want = _as_q_table(SIX_TWO_N2)
    ok_direct = dot_eq(got, want, 10 ** 6) == (True, None)
    ok_mirror = dot_eq(got.mirror(), want, 10 ** 6) == (True, None)
    assert ok_direct or ok_mirror
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_benchmark_rows(colored):
    t0 = time.monotonic()
    for n_color, row in SIX_TWO_ROWS.items():
        s = normalize(colored("6_2", n_color))
        assert s.step_halves == 2, n_color
        span = len(s.coeffs) - 1
        assert span == row["span"], n_color
        k = len(row["prefix"])
        assert list(s.coeffs[:k]) == row["prefix"], n_color
        lo = row["suffix_at"]
        assert list(s.coeffs[lo:]) == row["suffix"], n_color
    assert time.monotonic() - t0 < 300


def test_criterion_03_stabilization(colored):
    t0 = time.monotonic()
    for name in ("3_1", "4_1", "5_2", "6_2"):
        series = {n: colored(name, n) for n in range(2, 7)}
        for n in range(2, 6):
            ok, _ = dot_eq(series[n], series[n + 1], n)
            assert ok, (name, n)
            ok, _ = dot_eq(series[n].mirror(), series[n + 1].mirror(), n)
            assert ok, (name, "mirror", n)
    # the one-sided bundled diagram: its adequate side is the B side,
    # so the stable end is the head (the tail of the mirror)
    series = {n: colored("3_1_badequate", n).mirror() for n in range(2, 7)}
    for n in range(2, 6):
        ok, _ = dot_eq(series[n], series[n + 1], n)
        assert ok, ("3_1_badequate head", n)
    assert time.monotonic() - t0 < 600


def test_criterion_04_degree_laws():
    for n in range(1, 11):
        d_top = gamma(n, n, 2 * n).min_degree()
        d_prev = gamma(n, n, 2 * (n - 1)).min_degree()
        assert d_top == d_prev - 4 * n, n
        degrees = [gamma(n, n, 2 * j).min_degree() for j in range(n + 1)]
        assert all(a >= b for a, b in zip(degrees, degrees[1:])), n
        weights = [RationalFn.of(delta(2 * j)) * theta(n, n, 2 * j).reciprocal()
                   for j in range(n + 1)]
        wd = [w.min_degree() for w in weights]
        assert all(a - 2 == b for a, b in zip(wd, wd[1:])), n


def test_criterion_05_projectors():
    for n in range(2, 7):
        f = jones_wenzl(n)
        assert f.coefficient(Matching.identity(n)) == RationalFn.of(1)
        assert f * f == f, n
        for i in range(1, n):
            h = TLElement.of_matching(hook(n, i))
            assert (h * f).is_zero and (f * h).is_zero, (n, i)
    for n in range(1, 6):
        closed = partial_trace(jones_wenzl(n + 1))
        assert closed == jones_wenzl(n).scale(
            RationalFn(delta(n + 1), delta(n))), n
    for n in range(2, 6):
        dist = bfs_word_lengths(n)
        f = jones_wenzl(n)
        for m in enumerate_matchings(n):
            assert min_word_length(m) == dist[m]
            c = f.coefficient(m)
            if not c.is_zero:
                assert c.min_degree() >= 2 * dist[m], (n, str(m))


def test_criterion_06_network_values():
    checked = 0
    for a, b, c in itertools.product(range(1, 5), repeat=3):
        if not admissible(a, b, c):
            continue
        assert network_evaluate(theta_network(a, b, c)) == theta(a, b, c), \
            (a, b, c)
        checked += 1
    assert checked >= 10
    for n in range(1, 6):
        assert network_evaluate(trace_network(n)) == RationalFn.of(delta(n))


def test_criterion_07_twist_fusion():
    base = colored_bracket(twist_closure(1, hand=1), 1)
    assert base == LaurentPoly.from_dict({-1: 1, -5: 1})
    for n in range(1, 4):
        for m in range(1, 4):
            lhs = RationalFn.of(colored_bracket(twist_closure(m, hand=1), n))
            rhs = RationalFn.of(0)
            for j in range(n + 1):
                term = RationalFn.of(delta(2 * j))
                for _ in range(m):
                    term = term * RationalFn.of(gamma(n, n, 2 * j))
                rhs = rhs + term
            assert lhs == rhs, (n, m)


def test_criterion_08_adequacy_and_cables():
    alternating = [n for n in catalog_names()
                   if n not in ("unknot", "3_1_badequate")]
    for name in alternating:
        rep = adequacy(catalog_lookup(name))
        assert rep.a_adequate and rep.b_adequate, name
    for name in alternating:
        pd = catalog_lookup(name)
        for r in (2, 3):
            assert adequacy(cable(pd, r)).a_adequate, (name, r)


def test_criterion_09_sweep_equals_state_sum():
    for name in catalog_names():
        pd = catalog_lookup(name)
        assert bracket(pd) == brute_force_bracket(pd), name
        for r in (1, 2):
            c = cable(pd, r)
            if len(c.crossings) <= 12:
                assert bracket(c) == brute_force_bracket(c), (name, r)


def test_criterion_10_soft_resource_budget(colored):
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))\n"
        "from skeinkit.cli import main\n"
        "sys.exit(main(['cjones', '--color', '6', 'catalog:6_2',"
        " '--format', 'json']))\n"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=600,
                              env={**os.environ, "PYTHONPATH": SRC})
    except subprocess.TimeoutExpired:
        SOFT_NOTES[10] = "missed the 10-minute budget"
        return
    if proc.returncode != 0:
        SOFT_NOTES[10] = (f"budget miss (exit {proc.returncode}): "
                          f"{proc.stderr.strip()[:120]}")
        return
    got = q_series_from_json(json.loads(proc.stdout))
    assert got == colored("6_2", 6)    # a wrong value is a hard failure


def test_criterion_11_soft_tail_budget():
    # colors 6 and 7: the 5- and 6-cables, swept only in their window
    script = (
        "import sys\n"
        "from skeinkit.cli import main\n"
        "sys.exit(main(['tail', '--terms', '6', 'catalog:6_2',"
        " '--format', 'json']))\n"
    )
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=600,
                              env={**os.environ, "PYTHONPATH": SRC})
    except subprocess.TimeoutExpired:
        SOFT_NOTES[11] = "missed the 10-minute timeout"
        return
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr[-300:]
    blob = json.loads(proc.stdout)
    assert blob["coefficients"][:5] == SIX_TWO_TAIL_5
    # the largest max RSS of any child so far bounds this child's
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    misses = []
    if elapsed > 120:
        misses.append(f"took {elapsed:.0f}s")
    if rss_mb > 200:
        misses.append(f"children's max RSS {rss_mb:.0f} MB")
    if misses:
        SOFT_NOTES[11] = ", ".join(misses)
