"""The sweep's single entry point.

Every sweep runs on ``skeinkit._sweep_py``: pure Python, arbitrary-precision
integers, with an optional degree window (see ``_sweep_py.run``).  Its
program is ``diagram.plan_sweep(pd).program``; nothing else compiles one.
"""

from . import _sweep_py

# perfbench is the only reader of these three names: its run metadata and
# tracer still ask which kernels exist and which one runs.
_sweep_c = None


def available_kernels() -> list[str]:
    return ["py"]


def pick_kernel():
    return _sweep_py


def run_packed(program, floor=None, identity=b"", tick=None):
    """Run a sweep program; with ``identity``, return the coefficient of
    that matching of the ends the program leaves open; with ``floor``, only
    the terms >= floor; ``tick`` runs at entry and after every step."""
    return _sweep_py.run(program, floor=floor, identity=identity, tick=tick)
