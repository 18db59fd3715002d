"""Regenerate perfbench/expected_cli.json, the frozen CLI outputs.

    python3 perfbench/freeze_expected.py

Run from the root of a checkout whose outputs are trusted.  It runs every
cli_colored op once, stores exit code and stdout, and cross-checks the
6_2 rows against the acceptance tables in tests/oracles.py (colors 2-5
and the tail) before writing anything.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import _SECONDS, CLI_ENTRIES, CLI_OPS  # noqa: E402

_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?q\^(-?\d+)|([+-]?)(\d+)")


def q_coefficients(text):
    """Coefficients of a whole-power q-polynomial printed by the CLI,
    ascending, normalized to start positive."""
    terms = {}
    for sign, mag, exp, csign, const in _TERM.findall(text):
        if exp:
            terms[int(exp)] = int(mag or 1) * (-1 if sign == "-" else 1)
        else:
            terms[0] = int(const) * (-1 if csign == "-" else 1)
    lo, hi = min(terms), max(terms)
    co = [terms.get(e, 0) for e in range(lo, hi + 1)]
    return co if co[0] > 0 else [-c for c in co]


def main():
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from oracles import SIX_TWO_ROWS, SIX_TWO_TAIL_5

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    expected = {}
    for entry in CLI_ENTRIES:
        for op in CLI_OPS:
            proc = subprocess.run(
                [sys.executable, "-m", "skeinkit.cli", *op,
                 f"catalog:{entry}"],
                capture_output=True, text=True, env=env, check=True)
            expected[" ".join((entry,) + op)] = {
                "code": proc.returncode,
                "stdout": _SECONDS.sub("(s)", proc.stdout)}

    for color, row in SIX_TWO_ROWS.items():
        op = "jones" if color == 2 else f"cjones --color {color}"
        co = q_coefficients(expected[f"6_2 {op}"]["stdout"])
        assert len(co) - 1 == row["span"], color
        assert co[:len(row["prefix"])] == row["prefix"], color
        assert co[row["suffix_at"]:] == row["suffix"], color
    tail = expected["6_2 tail --terms 4"]["stdout"].split()
    assert [int(c) for c in tail] == SIX_TWO_TAIL_5[:4]

    (HERE / "expected_cli.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
