"""The sweep kernel's entry points: replay, the degree window on closed
and cut plans, and independence of the plan's crossing order.

Exactness of the full sweep against the literal state sum is checked by
the Hypothesis tests in test_jones.py.
"""

import ast
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from oracles import PLANAR, braid_closure, certified_top
from skeinkit import _sweep_py
from skeinkit._kernel import available_kernels, pick_kernel, run_packed
from skeinkit._sweep_py import replay_circles, run
from skeinkit.construct import rational_knot, with_kink
from skeinkit.diagram import (
    all_a, analyze, apply_state, cable, catalog_lookup, catalog_names,
    format_pd, mirror, parse_pd, plan_sweep,
)
from skeinkit.jones import _long_knot_sweeps, brute_force_bracket
from skeinkit.poly import LaurentPoly
from skeinkit.quantum import delta


def test_python_kernel_always_available():
    # what perfbench's run metadata reads
    assert available_kernels() == ["py"]
    assert pick_kernel() is _sweep_py and _sweep_py.KERNEL_NAME == "py"


def test_sweep_kernel_imports_no_package_module():
    # tl imports the kernel, so a package import there risks a cycle
    path = Path(__file__).resolve().parent.parent / "src" / "skeinkit" \
        / "_sweep_py.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bad = node.level > 0 or node.module.split(".")[0] == "skeinkit"
        elif isinstance(node, ast.Import):
            bad = any(a.name.split(".")[0] == "skeinkit" for a in node.names)
        else:
            continue
        if bad:
            found.append(ast.unparse(node))
    assert not found, found


def test_replay_circles_counts_match_brute():
    # every state, through the plan's wiring and the kernel's surgery
    for name in ("4_1", "6_2"):
        pd = catalog_lookup(name)
        plan = plan_sweep(pd)
        n = len(pd.crossings)
        for bits in range(1 << n):
            state = ["AB"[(bits >> i) & 1] for i in range(n)]
            branches = [state[c] for c in plan.order]
            assert replay_circles(plan.program, branches) \
                == apply_state(pd, state).count, (name, state)


def _restricted(packed, floor):
    """A full run's (base, coeffs) cut to the exponents >= floor."""
    base, coeffs = packed
    k = max(0, -(-(floor - base) // 2))
    while k < len(coeffs) and not coeffs[k]:
        k += 1
    if k >= len(coeffs):
        return 0, []
    return base + 2 * k, coeffs[k:]


def _check_window(pd):
    prog = plan_sweep(pd).program
    full = run(prog)
    top = certified_top(prog)
    # the diagram-level top that jones.reduced_colored_top uses: T
    # crossings and the circles of the all-A state, crossing-free included
    assert top + 2 * pd.extra_circles == len(pd.crossings) \
        + 2 * apply_state(pd, all_a(pd)).count
    if full[1]:
        assert full[0] + 2 * (len(full[1]) - 1) <= top
    for floor in range(top - 24, top + 3):
        assert run(prog, floor=floor) == _restricted(full, floor), floor
    assert run_packed(prog, floor=top - 4) == _restricted(full, top - 4)


def test_window_equals_restricted_full_run_on_catalog_cables():
    # the empty program is the empty diagram, 1 = A^0
    assert run((), floor=0) == (0, [1]) and run((), floor=1) == (0, [])
    split = parse_pd(format_pd(catalog_lookup("3_1")) + " O O")
    for pd in [catalog_lookup(name) for name in catalog_names()] + [split]:
        if pd.crossings:
            for r in (1, 2, 3):
                _check_window(cable(pd, r))


def _generated(case):
    """The diagram a generated case describes: a braid closure, or a
    two-bridge diagram with an optional kink and mirror."""
    if len(case) == 2:
        width, word = case
        return braid_closure(width, [g if abs(g) < width else
                                     (width - 1) * (1 if g > 0 else -1)
                                     for g in word])
    quotients, hand, mirrored, kink = case
    pd = rational_knot(quotients, hand)
    if kink is not None:
        arcs = sorted(analyze(pd).arc_ports)
        pd = with_kink(pd, arcs[kink[0] % len(arcs)], kink[1])
    return mirror(pd) if mirrored else pd


@settings(max_examples=40)
@given(st.one_of(
    st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=4)
              .filter(lambda q: sum(q) <= 10),
              st.integers(0, 1), st.booleans(),
              st.none() | st.tuples(st.integers(0, 19), st.booleans())),
    st.tuples(st.integers(2, 4),
              st.lists(st.integers(-3, 3).filter(bool),
                       min_size=1, max_size=9))))
def test_window_equals_restricted_full_run_on_generated(case):
    # the bound holds on any diagram: kinked, mirrored, braid closures
    # that are neither alternating nor adequate
    _check_window(_generated(case))


@settings(max_examples=40)
@given(st.one_of(
    st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=4)
              .filter(lambda q: sum(q) <= 7),
              st.integers(0, 1), st.booleans(),
              st.none() | st.tuples(st.integers(0, 19), st.booleans())),
    st.tuples(st.integers(2, 4),
              st.lists(st.integers(-3, 3).filter(bool),
                       min_size=1, max_size=8))),
    st.data())
def test_sweep_is_invariant_under_plan_order(case, data):
    # at most 8 crossings, so the literal state sum stays cheap
    pd = _generated(case)
    order = data.draw(st.permutations(range(len(pd.crossings))))
    prog = plan_sweep(pd, order=order).program
    full = run_packed(prog)
    assert full == run_packed(plan_sweep(pd).program)
    base, coeffs = full
    swept = LaurentPoly(tuple((base + 2 * j, c) for j, c in enumerate(coeffs)))
    assert swept * delta(1) ** pd.extra_circles == brute_force_bracket(pd)
    top = certified_top(prog)
    for floor in range(top - 12, top + 1):
        assert run_packed(prog, floor=floor) == _restricted(full, floor)


def _check_cut_window(plan, every=1):
    """The windowed sweep of a cut plan is the coefficient of the
    identity cut to its floor, from above the certified top down to
    below the lowest term.  ``every`` > 1 keeps every floor of the top
    24 exponents, where tail windows lie, and the floor under the lowest
    term, and takes every ``every``-th floor between."""
    full = run(plan.program, identity=plan.identity)
    top = certified_top(plan.program, plan.identity)
    if full[1]:
        assert full[0] + 2 * (len(full[1]) - 1) <= top
    bottom = full[0] if full[1] else top
    floors = range(top + 1, bottom - 3, -1)
    if every > 1:
        floors = [*floors[:24], *floors[24:-1:every], floors[-1]]
    for floor in floors:
        assert run_packed(plan.program, floor=floor,
                          identity=plan.identity) \
            == _restricted(full, floor), floor


def _cut_plans(pd, n):
    return [plan for _, _, plan in _long_knot_sweeps(pd, n)
            if plan and plan.identity]


def test_cut_window_equals_restricted_identity_run_on_catalog():
    for name in catalog_names():
        pd = catalog_lookup(name)
        if not pd.crossings:
            continue
        for d in (pd, mirror(pd)):
            # the 4-cable on the trefoil and on its diagram that is not
            # adequate; a stride of 11 meets both parities and every
            # offset mod 4
            colors = (2, 3, 4) if name.startswith("3_1") else (2, 3)
            for n in colors:
                for plan in _cut_plans(d, n):
                    _check_cut_window(plan, 1 if n == 2 else 11)


@settings(max_examples=60)
@given(PLANAR, st.booleans(), st.integers(1, 3))
def test_cut_window_equals_restricted_identity_run_on_generated(
        pd, mirrored, n):
    # two-component links, kinks, split circles and mixed braids; a link
    # has one cut plan per Chebyshev pattern of its other components
    if mirrored:
        pd = mirror(pd)
    assume(len(pd.crossings) * n * n <= 40)
    for plan in _cut_plans(pd, n):
        _check_cut_window(plan)


def test_cut_window_at_the_certified_top_keeps_only_the_all_a_state(
        monkeypatch):
    # on an A-adequate diagram every state with a B-smoothing lies at
    # least 4 below the all-A state's top, so a window there keeps one
    # state after every step; that needs the bound of each cut to count
    # the circles the identity closes, and then to drop the k identity
    # circles of the closure
    kept = []
    prune = _sweep_py._prune

    def counted(states, low, pairs):
        out = prune(states, low, pairs)
        kept.append(len(out))
        return out

    monkeypatch.setattr(_sweep_py, "_prune", counted)
    for name in ("3_1", "4_1", "6_2"):
        for n in (2, 3, 4):
            plan = _cut_plans(catalog_lookup(name), n)[-1]
            top = certified_top(plan.program, plan.identity)
            kept.clear()
            base, coeffs = run(plan.program, floor=top,
                               identity=plan.identity)
            assert (base, len(coeffs)) == (top, 1), (name, n)
            assert set(kept) == {1}, (name, n)
