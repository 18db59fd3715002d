"""Regenerate and re-verify the bundled diagram catalog.

Builds every entry from first principles (two-bridge twist recipes via
skeinkit.construct, plus one hand-wired non-alternating trefoil), checks
each against independent anchors, and rewrites
src/skeinkit/data/catalog.txt.  Run from the repository root:

    python3 tools/make_catalog.py

Verification per entry:
  * determinant (|V| at the primitive 8th root of unity) against the
    published value for the knot;
  * adequacy flags (reduced alternating entries must be adequate on
    both sides; the non-alternating trefoil B-side only);
  * Jones polynomial against the independently computed values in
    tests/oracles.py, where we have them (up to mirror);
  * 6_2 chirality is pinned so that its 2-colored reduced invariant,
    written in q, has ascending coefficients 1,-2,2,-2,2,-1,1.
"""

import cmath
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from oracles import CORPUS_JONES, DETERMINANTS
from skeinkit import construct, diagram, jones
from skeinkit.poly import LaurentPoly, to_q

OUT = ROOT / "src" / "skeinkit" / "data" / "catalog.txt"

# Non-alternating, B-adequate (not A-adequate) 4-crossing trefoil:
# a right trefoil with one extra curl placed so the all-A state pinches.
BADEQUATE = "X[1,6,2,7] X[5,8,6,1] X[7,4,8,5] X[2,3,3,4]"


def determinant(pd):
    v = jones.reduced_colored(pd, 2)
    a = cmath.exp(1j * cmath.pi / 4)
    val = abs(sum(c * a ** e for e, c in v.terms))
    assert abs(val - round(val)) < 1e-9, val
    return round(val)


def pin_6_2():
    """Pick the 6_2 chirality whose N=2 q-coefficients read 1,-2,2,-2,2,-1,1."""
    want = [1, -2, 2, -2, 2, -1, 1]
    for hand in (0, 1):
        pd = construct.rational_knot([3, 1, 2], hand)
        s = to_q(jones.reduced_colored(pd, 2))
        if s.step_halves == 2 and list(s.coeffs) == want:
            return pd, hand
    raise SystemExit("neither 6_2 chirality matches the pinned N=2 row")


def main():
    entries = []  # (name, pd, description)

    unknot = diagram.parse_pd("O")
    entries.append(("unknot", unknot, "zero-crossing round circle"))

    t = construct.rational_knot([3], hand=0)
    assert diagram.analyze(t).writhe == +3
    entries.append(("3_1", t,
                    "right-handed trefoil, twist knot C(3), writhe +3"))

    entries.append(("4_1", construct.rational_knot([2, 2], 0),
                    "figure-eight, two-bridge C(2,2), amphichiral"))
    entries.append(("5_2", construct.rational_knot([3, 2], 0),
                    "two-bridge C(3,2)"))
    entries.append(("6_1", construct.rational_knot([4, 2], 0),
                    "two-bridge C(4,2)"))

    pd62, hand62 = pin_6_2()
    entries.append(("6_2", pd62,
                    f"two-bridge C(3,1,2), chirality pinned by the "
                    f"2-color q-row 1,-2,2,-2,2,-1,1 (hand={hand62})"))

    entries.append(("6_3", construct.rational_knot([2, 1, 1, 2], 0),
                    "two-bridge C(2,1,1,2), amphichiral"))

    entries.append(("3_1_badequate", diagram.parse_pd(BADEQUATE),
                    "non-alternating 4-crossing trefoil diagram: "
                    "B-adequate but not A-adequate"))

    # ---- verify -------------------------------------------------------
    problems = []
    for name, pd, _ in entries:
        det = determinant(pd)
        if det != DETERMINANTS[name]:
            problems.append(f"{name}: determinant {det} != "
                            f"{DETERMINANTS[name]}")
        ad = diagram.adequacy(pd)
        if name == "3_1_badequate":
            if ad.a_adequate or not ad.b_adequate:
                problems.append(f"{name}: adequacy flags "
                                f"({ad.a_adequate},{ad.b_adequate})")
        elif name != "unknot" and not (ad.a_adequate and ad.b_adequate):
            problems.append(f"{name}: not adequate on both sides")
        if name in CORPUS_JONES:
            want = LaurentPoly.from_dict(CORPUS_JONES[name])
            got = jones.reduced_colored(pd, 2)
            if got != want and got.mirror() != want:
                problems.append(f"{name}: Jones {got} does not match "
                                f"corpus value up to mirror")
        if name == "3_1_badequate":
            want = LaurentPoly.from_dict(CORPUS_JONES["3_1"])
            got = jones.reduced_colored(pd, 2)
            if got != want and got.mirror() != want:
                problems.append(f"{name}: Jones {got} is not a trefoil value")
        plan = (diagram.plan_sweep(pd) if (pd.crossings or pd.extra_circles)
                else None)
        width = plan.max_width if plan else 0
        info = diagram.analyze(pd)
        print(f"{name:15s} c={len(pd.crossings)} writhe={info.writhe:+d} "
              f"det={det:2d} width={width} "
              f"adequate=({ad.a_adequate},{ad.b_adequate})")
    if problems:
        for p in problems:
            print("FAIL:", p)
        raise SystemExit(1)

    # ---- freeze -------------------------------------------------------
    lines = ["# Bundled diagram catalog: name: PD, '#' starts a comment.",
             "# Regenerate and re-verify with tools/make_catalog.py.",
             ""]
    for name, pd, why in entries:
        lines.append(f"# {why}")
        lines.append(f"{name}: {diagram.format_pd(pd)}")
        lines.append("")
    OUT.write_text("\n".join(lines), encoding="utf-8")
    print(f"\nwrote {OUT} ({len(entries)} entries)")


if __name__ == "__main__":
    main()
