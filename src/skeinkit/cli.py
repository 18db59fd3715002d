"""Command-line interface.

Subcommands:

* ``bracket SOURCE`` — Kauffman bracket of an unoriented diagram.
* ``jones SOURCE`` — the reduced 2-color invariant (classical Jones).
* ``cjones --color N SOURCE`` — reduced N-color invariant.
* ``adequacy SOURCE`` — both adequacy flags plus state-circle counts.
* ``tail --terms K [--side tail|head] SOURCE`` — verified stable
  coefficients (exit 4 with a witness if they are not stable).
* ``verify-stability --max N SOURCE`` — per-color agreement report.
* ``catalog`` — list the bundled diagrams.

SOURCE is either ``catalog:NAME`` or a path to a PD text file.  Output
is plain text by default, JSON with ``--format json``.  Exit codes:
0 success, 2 bad input, 3 budget exceeded, 4 unstable coefficients,
70 internal invariant breach.

Two budgets apply: ``--max-width`` (open strand-ends during a sweep,
an integer >= 0) and ``--time-limit`` (wall-clock seconds, from 0 to
1e9; 0 means no limit).  SKEINKIT_MAX_WIDTH and SKEINKIT_TIME_LIMIT give
their defaults; a flag wins over the environment.  A value out of range,
from either source, is a usage error (exit 2).  :func:`main` turns the
two into one :class:`skeinkit.errors.Budget`, whose deadline is
``time.monotonic()`` plus the limit, and passes it down.  Library calls
read no budget from the environment: they take that object only as
their ``budget=`` keyword, and check its deadline where they work.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import diagram, jones
from .errors import (Budget, BudgetError, InternalError, SkeinError,
                     StabilizationError)
from .poly import LaurentPoly, to_q


# ---------------------------------------------------------------------------
# polynomial serialization (the JSON schema)

def a_polynomial_json(p: LaurentPoly) -> dict:
    """Dense A-form: coefficients[i] belongs to A^(min_exponent + i)."""
    if p.is_zero:
        return {"variable": "A", "min_exponent": 0, "coefficients": []}
    lo = p.min_degree()
    co = [0] * (p.max_degree() - lo + 1)
    for e, c in p.terms:
        co[e - lo] = c
    return {"variable": "A", "min_exponent": lo, "coefficients": co}


def q_series_json(p: LaurentPoly) -> dict:
    """Dense q-form; exponents are half-integers stored doubled.

    coefficients[i] belongs to q^((min_exponent + i)/2), and the whole
    series carries one overall sign.
    """
    s = to_q(p).in_halves()
    return {"variable": "q", "sign": s.sign,
            "min_exponent": s.shift_halves, "coefficients": list(s.coeffs)}


def _q_text(p: LaurentPoly) -> str:
    """Human q-rendering, ascending exponents; halves shown as e/2."""
    s = to_q(p)
    if not s.coeffs:
        return "0"
    bits = []
    for i, c in enumerate(s.coeffs):
        if c == 0:
            continue
        c *= s.sign
        h = s.shift_halves + s.step_halves * i
        if h == 0:
            core = str(abs(c))
        else:
            e = str(h // 2) if h % 2 == 0 else f"({h}/2)"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            core = f"{mag}q^{e}"
        bits.append(("-" if c < 0 else "+") + core)
    out = "".join(bits)
    return out[1:] if out.startswith("+") else out


# ---------------------------------------------------------------------------
# plumbing

def _load_pd(source: str) -> tuple[diagram.PDCode, str]:
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        pd = diagram.catalog_lookup(name)
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SkeinError(f"cannot read {source}: {exc}") from exc
        pd = diagram.parse_pd(text)
    return pd, source


# about 32 years: a longer limit stands for no limit, and the cap keeps
# inf and overflowing values out of the deadline
MAX_TIME_LIMIT = 1e9


def _width_budget(text: str) -> int:
    """argparse type of --max-width: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _time_budget(text: str) -> float:
    """argparse type of --time-limit: seconds in [0, MAX_TIME_LIMIT]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}") from None
    if not 0 <= value <= MAX_TIME_LIMIT:       # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be from 0 (no limit) to {MAX_TIME_LIMIT:g} seconds, "
            f"got {text}")
    return value


def _emit(args, text_lines, payload):
    if args.format == "json":
        import json     # imported here: text output, the default, needs none
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_bracket(args) -> int:
    pd, label = _load_pd(args.source)
    b = jones.bracket(pd, args.budget)
    _emit(args, [str(b)],
          {"command": "bracket", "input": label,
           "A_polynomial": a_polynomial_json(b)})
    return 0


def _poly_command(args, color: int, command: str) -> int:
    pd, label = _load_pd(args.source)
    v = jones.reduced_colored(pd, color, args.budget)
    payload = {"command": command, "input": label, "color": color}
    payload.update(q_series_json(v))
    payload["A_polynomial"] = a_polynomial_json(v)
    _emit(args, [_q_text(v)], payload)
    return 0


def _cmd_jones(args) -> int:
    return _poly_command(args, 2, "jones")


def _cmd_cjones(args) -> int:
    if args.color < 1:
        raise SkeinError("--color must be a positive integer")
    return _poly_command(args, args.color, "cjones")


def _cmd_adequacy(args) -> int:
    pd, label = _load_pd(args.source)
    rep = diagram.adequacy(pd)
    lines = [f"A_adequate: {str(rep.a_adequate).lower()}",
             f"B_adequate: {str(rep.b_adequate).lower()}",
             f"all_A_circles: {rep.a_circles}",
             f"all_B_circles: {rep.b_circles}"]
    _emit(args, lines,
          {"command": "adequacy", "input": label,
           "A_adequate": rep.a_adequate, "B_adequate": rep.b_adequate,
           "all_A_circles": rep.a_circles, "all_B_circles": rep.b_circles})
    return 0


def _cmd_tail(args) -> int:
    if args.terms < 1:
        raise SkeinError("--terms must be a positive integer")
    from . import tail  # only tail and verify-stability pay its import
    pd, label = _load_pd(args.source)
    coeffs = tail.tail_extract(pd, args.terms, args.side, args.budget)
    _emit(args, [" ".join(str(c) for c in coeffs)],
          {"command": "tail", "input": label, "side": args.side,
           "terms": args.terms, "coefficients": coeffs})
    return 0


def _cmd_verify_stability(args) -> int:
    if args.max < 3:
        raise SkeinError("--max must be at least 3")
    from . import tail
    pd, label = _load_pd(args.source)
    rep = tail.stabilization_check(pd, args.max, args.budget)
    lines = []
    for r in rep.records:
        if r.verdict:
            word = f"stable through {r.color} terms"
        else:
            word = f"UNSTABLE at offset {r.mismatch}"
        lines.append(
            f"N={r.color} vs N={r.color + 1}: {word} ({r.seconds:.2f}s)")
    lines.append(f"complete: {str(rep.complete).lower()}")
    lines.append(f"all_stable: {str(rep.all_true).lower()}")
    payload = {"command": "verify-stability", "input": label,
               "max_color": args.max}
    payload.update(rep.as_dict())
    _emit(args, lines, payload)
    return 0 if rep.complete else 3


def _cmd_catalog(args) -> int:
    rows = []
    for name in diagram.catalog_names():
        pd = diagram.catalog_lookup(name)
        rows.append({"name": name, "crossings": len(pd.crossings),
                     "writhe": diagram.writhe(pd)})
    width = max(len(r["name"]) for r in rows)
    lines = [f"{r['name']:<{width}}  crossings={r['crossings']} "
             f"writhe={r['writhe']:+d}" for r in rows]
    _emit(args, lines, {"command": "catalog", "entries": rows})
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="skeinkit",
        description="Exact skein-theoretic invariants of link diagrams.")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("source",
                        help="catalog:NAME or path to a PD text file")
    common.add_argument("--format", choices=("text", "json"),
                        default="text")
    # argparse runs a string default through ``type``, so a malformed or
    # out-of-range environment value is a usage error (exit 2)
    common.add_argument("--max-width", type=_width_budget,
                        default=os.environ.get("SKEINKIT_MAX_WIDTH")
                        or Budget().max_width,
                        help="sweep width budget (SKEINKIT_MAX_WIDTH)")
    common.add_argument("--time-limit", type=_time_budget,
                        default=os.environ.get("SKEINKIT_TIME_LIMIT") or None,
                        help="wall-clock seconds, 0 for none "
                        "(SKEINKIT_TIME_LIMIT)")

    p = sub.add_parser("bracket", parents=[common],
                       help="Kauffman bracket")
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("jones", parents=[common],
                       help="reduced 2-color invariant")
    p.set_defaults(fn=_cmd_jones)

    p = sub.add_parser("cjones", parents=[common],
                       help="reduced N-color invariant")
    p.add_argument("--color", type=int, required=True, metavar="N")
    p.set_defaults(fn=_cmd_cjones)

    p = sub.add_parser("adequacy", parents=[common],
                       help="A/B adequacy of the diagram")
    p.set_defaults(fn=_cmd_adequacy)

    p = sub.add_parser("tail", parents=[common],
                       help="verified stable coefficients")
    p.add_argument("--terms", type=int, required=True, metavar="K")
    p.add_argument("--side", choices=("tail", "head"), default="tail")
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser("verify-stability", parents=[common],
                       help="per-color agreement report")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.set_defaults(fn=_cmd_verify_stability)

    p = sub.add_parser("catalog", help="list bundled diagrams")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_catalog)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    limit = getattr(args, "time_limit", None)   # catalog takes no budget
    deadline = time.monotonic() + limit if limit else None
    args.budget = Budget(getattr(args, "max_width", 0), deadline=deadline,
                         time_limit=limit)
    try:
        return args.fn(args)
    except StabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"witness: colors {exc.color}/{exc.color + 1}, "
              f"first difference at offset {exc.mismatch_index}",
              file=sys.stderr)
        return 4
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    except (SkeinError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
