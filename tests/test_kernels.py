"""The sweep kernel's entry points: replay and the degree window.

Exactness of the full sweep against the literal state sum is checked by
the Hypothesis tests in test_jones.py.
"""

from hypothesis import given, settings, strategies as st

from oracles import braid_closure
from skeinkit import _sweep_py
from skeinkit._kernel import available_kernels, compile_plan, pick_kernel, run_packed
from skeinkit._sweep_py import certified_top, replay_circles, run
from skeinkit.construct import rational_knot, with_kink
from skeinkit.diagram import (
    analyze, cable, catalog_lookup, catalog_names, mirror, plan_sweep,
)


def test_python_kernel_always_available():
    # what perfbench's run metadata reads
    assert available_kernels() == ["py"]
    assert pick_kernel() is _sweep_py and _sweep_py.KERNEL_NAME == "py"


def test_replay_circles_counts_match_brute():
    from skeinkit.diagram import apply_state
    pd = catalog_lookup("4_1")
    plan = plan_sweep(pd)
    prog = compile_plan(plan)
    for bits in range(16):
        state = ["AB"[(bits >> i) & 1] for i in range(4)]
        branches = [state[op.crossing] for op in plan.ops]
        assert replay_circles(prog, branches) == apply_state(pd, state).count


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
    prog = compile_plan(plan_sweep(pd))
    full = run(prog)
    top = certified_top(prog)
    if full[1]:
        assert full[0] + 2 * (len(full[1]) - 1) <= top
    for floor in range(top - 24, top + 3):
        assert run(prog, floor=floor) == _restricted(full, floor), floor
    assert run_packed(prog, floor=top - 4) == _restricted(full, top - 4)


def test_window_equals_restricted_full_run_on_catalog_cables():
    # the empty program is the empty diagram, 1 = A^0
    assert run((), floor=0) == (0, [1]) and run((), floor=1) == (0, [])
    for name in catalog_names():
        pd = catalog_lookup(name)
        if pd.crossings:
            for r in (1, 2, 3):
                _check_window(cable(pd, r))


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
    if len(case) == 2:
        width, word = case
        pd = braid_closure(width, [g if abs(g) < width else
                                   (width - 1) * (1 if g > 0 else -1)
                                   for g in word])
    else:
        quotients, hand, mirrored, kink = case
        pd = rational_knot(quotients, hand)
        if kink is not None:
            arcs = sorted(analyze(pd).arc_ports)
            pd = with_kink(pd, arcs[kink[0] % len(arcs)], kink[1])
        if mirrored:
            pd = mirror(pd)
    _check_window(pd)
