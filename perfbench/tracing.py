"""Per-layer spans and counters, recorded from outside the library.

A :class:`Tracer` replaces public functions of the skeinkit modules with
timing wrappers.  Every module that imported a function by name gets the
wrapper too, so calls between layers are seen as well as calls from the
benchmark.  Nothing in the library is edited; install a tracer only in a
process that runs one traced pass, since the wrappers stay in place.

Each wrapped call is a span on a stack.  A layer's ``.s`` is the summed
duration of its outermost spans (a nested call of the same function is
not counted twice); ``self_s`` subtracts the spans of the children named
in ``_EXCLUDE``.
"""

import functools
import math
import statistics
import sys
import time

# metric name -> (unit, better); the per-layer section of BENCHMARK.json
LAYER_METRICS = {
    "diagram.parse_pd.s": ("s", "lower"),
    "diagram.analyze.s": ("s", "lower"),
    "diagram.analyze.calls": ("count", "lower"),
    "diagram.cable_multi.s": ("s", "lower"),
    "diagram.cable_multi.calls": ("count", "lower"),
    "diagram.cable_multi.max_crossings": ("count", "lower"),
    "diagram.plan_sweep.s": ("s", "lower"),
    "diagram.plan_sweep.calls": ("count", "lower"),
    "diagram.plan_sweep.max_width": ("count", "lower"),
    "diagram.adequacy.s": ("s", "lower"),
    "kernel.run_packed.s": ("s", "lower"),
    "kernel.run_packed.calls": ("count", "lower"),
    "kernel.py_runs": ("count", "lower"),
    "kernel.c_runs": ("count", "higher"),
    "kernel.states_bound": ("count", "lower"),
    "kernel.max_coeff_span": ("count", "lower"),
    "jones.colored_bracket.self_s": ("s", "lower"),
    "jones.colored_bracket.cables": ("count", "lower"),
    "jones.reduced_colored.self_s": ("s", "lower"),
    "poly.exact_divide.s": ("s", "lower"),
    "poly.exact_divide.calls": ("count", "lower"),
    "poly.to_q.s": ("s", "lower"),
    "tail.normalize.s": ("s", "lower"),
    "tail.dot_eq.s": ("s", "lower"),
    "tl.jones_wenzl.s": ("s", "lower"),
    "tl.jones_wenzl.max_terms": ("count", "lower"),
    "tl.jones_wenzl.den_span": ("count", "lower"),
    "tl.product.s": ("s", "lower"),
    "tl.network_evaluate.s": ("s", "lower"),
    "tl.network_evaluate.summands": ("count", "lower"),
}

# metrics that keep their largest value when passes or processes merge;
# every other metric is a sum
_MAXIMA = {
    "diagram.cable_multi.max_crossings", "diagram.plan_sweep.max_width",
    "kernel.states_bound", "kernel.max_coeff_span",
    "tl.jones_wenzl.max_terms", "tl.jones_wenzl.den_span",
}

# self time of a span = its duration minus its outermost children of
# these layers: the Chebyshev combination is colored_bracket without its
# cables, plans and sweeps; framing plus the divide is reduced_colored
# without colored_bracket
_EXCLUDE = {
    "jones.colored_bracket": {"diagram.cable_multi", "diagram.plan_sweep",
                              "kernel.run_packed"},
    "jones.reduced_colored": {"jones.colored_bracket"},
}


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def merge(samples):
    """Combine the counters of several processes of one pass."""
    out = dict.fromkeys(LAYER_METRICS, 0)
    for sample in samples:
        for name, value in sample.items():
            out[name] = (max(out[name], value) if name in _MAXIMA
                         else out[name] + value)
    return out


def median_of(passes):
    """Per-metric median over traced passes."""
    return {name: statistics.median(p[name] for p in passes)
            for name in LAYER_METRICS}


class Tracer:
    """Wraps skeinkit's public functions and accumulates LAYER_METRICS."""

    def __init__(self):
        self.values = dict.fromkeys(LAYER_METRICS, 0)
        self._stack = []

    def install(self):
        import skeinkit.cli  # noqa: F401  (loads diagram, jones, tail, poly)
        from skeinkit import _kernel, _sweep_py, diagram, jones, poly, tail, tl

        jones_wenzl = tl.jones_wenzl

        def on_cable(result, args):
            self._max("diagram.cable_multi.max_crossings",
                      len(result.crossings))
            if any(f[0] == "jones.colored_bracket" for f in self._stack):
                self.values["jones.colored_bracket.cables"] += 1

        def on_plan(result, args):
            self._max("diagram.plan_sweep.max_width", result.max_width)
            self._max("kernel.states_bound", catalan(result.max_width // 2))

        def on_sweep(result, args):
            self._max("kernel.max_coeff_span", len(result[1]))

        def on_projector(result, args):
            self._max("tl.jones_wenzl.max_terms", len(result.terms))
            den = result.terms[0][1].den
            self._max("tl.jones_wenzl.den_span",
                      den.max_degree() - den.min_degree())

        def on_network(result, args):
            size = 1
            for width in args[0].boxes:
                size *= len(jones_wenzl(width).terms)
            self.values["tl.network_evaluate.summands"] += size

        def count(name):
            def on_run(result, args):
                self.values[name] += 1
            return on_run

        self._patch(diagram, "parse_pd", "diagram.parse_pd")
        self._patch(diagram, "analyze", "diagram.analyze")
        self._patch(diagram, "cable_multi", "diagram.cable_multi", on_cable)
        self._patch(diagram, "plan_sweep", "diagram.plan_sweep", on_plan)
        self._patch(diagram, "adequacy", "diagram.adequacy")
        self._patch(_kernel, "run_packed", "kernel.run_packed", on_sweep)
        self._patch(_sweep_py, "run", "kernel.py_run",
                    count("kernel.py_runs"))
        if _kernel._sweep_c is not None:
            self._patch(_kernel._sweep_c, "run", "kernel.c_run",
                        count("kernel.c_runs"))
        self._patch(jones, "colored_bracket", "jones.colored_bracket")
        self._patch(jones, "reduced_colored", "jones.reduced_colored")
        self._patch(poly, "exact_divide", "poly.exact_divide")
        self._patch(poly, "to_q", "poly.to_q")
        self._patch(tail, "normalize", "tail.normalize")
        self._patch(tail, "dot_eq", "tail.dot_eq")
        self._patch(tl, "jones_wenzl", "tl.jones_wenzl", on_projector)
        self._patch(tl.TLElement, "__mul__", "tl.product")
        self._patch(tl, "network_evaluate", "tl.network_evaluate",
                    on_network)
        return self

    def _max(self, name, value):
        self.values[name] = max(self.values[name], value)

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        wrapper = self._wrap(original, name, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "skeinkit" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, fn, name, after):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self._close(name, elapsed, frame[1])
            if after is not None:
                after(result, args)
            return result

        return traced

    def _close(self, name, elapsed, excluded):
        values = self.values
        if name + ".calls" in values:
            values[name + ".calls"] += 1
        if all(f[0] != name for f in self._stack):
            if name + ".s" in values:
                values[name + ".s"] += elapsed
            if name + ".self_s" in values:
                values[name + ".self_s"] += elapsed - excluded
        # charge this span to the ancestors whose self time leaves it out,
        # unless an intermediate span was already charged to them
        for i in range(len(self._stack) - 1, -1, -1):
            skip = _EXCLUDE.get(self._stack[i][0])
            if skip and name in skip and not any(
                    f[0] in skip for f in self._stack[i + 1:]):
                self._stack[i][1] += elapsed
