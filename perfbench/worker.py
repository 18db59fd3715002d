"""One in-process pass of the api_batch or projector workload.

    python perfbench/worker.py WORKLOAD INPUTS.json TRACE

Runs every op of the input list once, in order, and prints one JSON
object: the latency of each op, the wall time of the pass, the output of
each op (serialized after its timer stops; null when it raised) and, when
TRACE is 1, the layer counters of the pass.  Each pass is a fresh process, so every
in-process cache starts cold.
"""

import json
import sys
import time
import traceback

from tracing import Tracer

from skeinkit import diagram, jones, tl
from skeinkit.diagram import PDCode


def poly_json(p):
    return [list(t) for t in p.terms]


def rational_json(r):
    return [poly_json(r.num), poly_json(r.den)]


def element_json(el):
    return [[list(m.partner), rational_json(c)] for m, c in el.terms]


def adequacy_json(rep):
    return [rep.a_adequate, rep.b_adequate, rep.a_circles, rep.b_circles]


def api_batch_ops(spec):
    """Four calls per diagram; module attributes are looked up at call
    time so that a tracer installed beforehand sees them."""
    for crossings, circles in spec["diagrams"]:
        pd = PDCode(tuple(tuple(x) for x in crossings), circles)
        yield (lambda pd=pd: jones.bracket(pd)), poly_json
        yield (lambda pd=pd: jones.jones_polynomial(pd)), poly_json
        yield (lambda pd=pd: diagram.adequacy(pd)), adequacy_json
        yield (lambda pd=pd: jones.reduced_colored(pd, 3)), poly_json


def projector_ops(spec):
    for kind, arg in spec["ops"]:
        if kind == "jones_wenzl":
            yield (lambda n=arg: tl.jones_wenzl(n)), element_json
        elif kind == "product":
            yield (lambda n=arg: _square(tl.jones_wenzl(n))), element_json
        elif kind == "theta":
            net = tl.theta_network(*arg)
            yield (lambda net=net: tl.network_evaluate(net)), rational_json
        elif kind == "trace":
            net = tl.trace_network(arg)
            yield (lambda net=net: tl.network_evaluate(net)), rational_json
        else:
            raise ValueError(f"unknown projector op {kind!r}")


def _square(f):
    return f * f


OPS = {"api_batch": api_batch_ops, "projector": projector_ops}


def main():
    workload, inputs_path, trace = sys.argv[1], sys.argv[2], sys.argv[3]
    with open(inputs_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer().install() if trace == "1" else None
    ops = list(OPS[workload](spec))
    latencies, outputs = [], []
    for call, serialize in ops:
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # an op that raises fails alone; the pass goes on
            latencies.append(time.perf_counter() - t0)
            traceback.print_exc()
            outputs.append("null")
            continue
        latencies.append(time.perf_counter() - t0)
        # kept as text: a growing list of lists would make every garbage
        # collection of the ops that follow slower
        outputs.append(json.dumps(serialize(result)))
    # ops run back to back; the sum leaves out the serialization between them
    json.dump({"lat": latencies, "wall": sum(latencies), "out": outputs,
               "layers": [tracer.values] if tracer else []}, sys.stdout)


if __name__ == "__main__":
    main()
