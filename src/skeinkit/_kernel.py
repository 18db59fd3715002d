"""The sweep's single entry point and plan compilation.

Every sweep runs on ``skeinkit._sweep_py``: pure Python, arbitrary-precision
integers, with an optional degree window (see ``_sweep_py.run``).
"""

from . import _sweep_py

# perfbench is the only reader of these three names: its run metadata and
# tracer still ask which kernels exist and which one runs.
_sweep_c = None


def available_kernels() -> list[str]:
    return ["py"]


def pick_kernel():
    return _sweep_py


def compile_plan(plan):
    """Flatten a SweepPlan into the tuple program the kernel consumes."""
    return tuple(
        (op.width_in, op.closures, op.keep, op.rank) for op in plan.ops)


def run_packed(program, floor=None):
    """Run a compiled program; with ``floor``, return only the terms of
    exponent >= floor."""
    return _sweep_py.run(program, floor=floor)
