"""Sweep-kernel selection and plan compilation.

Two interchangeable kernels exist:

* ``skeinkit._sweep_py`` — pure Python, arbitrary-precision integers,
  always available.
* ``skeinkit._sweep_c``  — compiled (Cython), int64 coefficients with
  explicit overflow detection; built best-effort at install time.

The compiled kernel is preferred when importable.  Set SKEINKIT_KERNEL=py
or SKEINKIT_KERNEL=c to force one.  If the compiled kernel overflows int64
on a huge computation it raises OverflowError and the caller transparently
re-runs on the Python kernel, so results are always exact.

A run with a ``floor`` (the degree window, see ``_sweep_py.run``) always
runs on the Python kernel: the compiled kernel has no window.
"""

import os

from . import _sweep_py

try:  # pragma: no cover - depends on whether the extension was built
    from . import _sweep_c
except ImportError:  # pragma: no cover
    _sweep_c = None


def available_kernels() -> list[str]:
    names = ["py"]
    if _sweep_c is not None:
        names.append("c")
    return names


def pick_kernel(name=None):
    """Resolve a kernel module from an explicit name or the environment."""
    if name is None:
        name = os.environ.get("SKEINKIT_KERNEL", "").strip() or None
    if name is None:
        return _sweep_c if _sweep_c is not None else _sweep_py
    if name == "py":
        return _sweep_py
    if name == "c":
        if _sweep_c is None:
            raise RuntimeError(
                "compiled kernel requested via SKEINKIT_KERNEL=c "
                "but the extension is not built")
        return _sweep_c
    raise ValueError(f"unknown kernel {name!r} (expected 'py' or 'c')")


def compile_plan(plan):
    """Flatten a SweepPlan into the tuple program the kernels consume."""
    return tuple(
        (op.width_in, op.closures, op.keep, op.rank) for op in plan.ops)


def run_packed(program, kernel=None, floor=None):
    """Run a compiled program, falling back to Python on int64 overflow.

    With ``floor``, return only the terms of exponent >= floor, always
    from the Python kernel.
    """
    if floor is not None:
        return _sweep_py.run(program, floor=floor)
    mod = kernel if kernel is not None else pick_kernel()
    try:
        return mod.run(program)
    except OverflowError:
        if mod is _sweep_py:
            raise
        return _sweep_py.run(program)
