"""The sweep kernel's entry points: replay, the degree window, and
independence of the plan's crossing order.

Exactness of the full sweep against the literal state sum is checked by
the Hypothesis tests in test_jones.py.
"""

from hypothesis import given, settings, strategies as st

from oracles import braid_closure
from skeinkit import _sweep_py
from skeinkit._kernel import available_kernels, pick_kernel, run_packed
from skeinkit._sweep_py import certified_top, replay_circles, run
from skeinkit.construct import rational_knot, with_kink
from skeinkit.diagram import (
    all_a, analyze, apply_state, cable, catalog_lookup, catalog_names,
    format_pd, mirror, parse_pd, plan_sweep,
)
from skeinkit.jones import brute_force_bracket
from skeinkit.poly import LaurentPoly
from skeinkit.quantum import delta


def test_python_kernel_always_available():
    # what perfbench's run metadata reads
    assert available_kernels() == ["py"]
    assert pick_kernel() is _sweep_py and _sweep_py.KERNEL_NAME == "py"


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


@settings(max_examples=40, deadline=None, derandomize=True)
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


@settings(max_examples=40, deadline=None, derandomize=True)
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
