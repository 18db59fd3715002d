"""The verdicts that tools/bench_pairs.py gives each benchmark metric."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# ten parent runs with median 1.0 and IQR 0.1 (10% of the median)
PARENT = [0.9, 0.95, 0.95, 0.975, 1.0, 1.0, 1.025, 1.05, 1.05, 1.1]


def test_a_gain_needs_nine_pairs_and_a_gap_past_the_parent_iqr():
    got = verdict(PARENT, [x / 2 for x in PARENT], "lower", 0.25)
    assert (got["pairs_won"], got["verdict"], got["gain"]) \
        == (10, "better", "met")
    # nine wins of ten still meet it; the tenth pair is a tie
    change = [x / 2 for x in PARENT[:9]] + [PARENT[9]]
    assert verdict(PARENT, change, "lower", 0.25)["gain"] == "met"
    # eight wins do not, however large the gap
    change = [x / 2 for x in PARENT[:8]] + PARENT[8:]
    assert verdict(PARENT, change, "lower", 0.25)["gain"] == "not met"
    # every pair won by a gap smaller than the parent's IQR
    change = [x - 0.05 for x in PARENT]
    got = verdict(PARENT, change, "lower", 0.25)
    assert got["pairs_won"] == 10 and got["gain"] == "not met"


def test_higher_is_better_flips_every_comparison():
    got = verdict(PARENT, [2 * x for x in PARENT], "higher", 0.25)
    assert (got["pairs_won"], got["verdict"], got["gain"]) \
        == (10, "better", "met")
    got = verdict(PARENT, [x / 2 for x in PARENT], "higher", 0.25)
    assert (got["pairs_won"], got["verdict"], got["gain"]) \
        == (0, "worse", "not met")


def test_a_median_worse_than_the_bound_is_worse():
    assert verdict(PARENT, [1.3 * x for x in PARENT], "lower",
                   0.25)["verdict"] == "worse"
    assert verdict(PARENT, [1.2 * x for x in PARENT], "lower",
                   0.25)["verdict"] == "within bound"


def test_a_parent_spread_past_the_bound_is_unresolved():
    # IQR 10% of the median against a 5% bound
    assert verdict(PARENT, list(PARENT), "lower", 0.05)["verdict"] \
        == "unresolved"
    # unless every change run beats every parent run
    assert verdict(PARENT, [x - 0.25 for x in PARENT], "lower",
                   0.05)["verdict"] == "better"
    assert verdict(PARENT, [x - 0.15 for x in PARENT], "lower",
                   0.05)["verdict"] == "unresolved"
