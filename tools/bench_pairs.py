"""Compare two checkouts from alternating benchmark runs.

Each checkout's ``perfbench/run.py`` writes one record per run to its own
``.bench_out/<workload>-seed<N>-trace<T>.json``.  Run the parent and the
change in turn, one seed per pair and the first side alternating, so
that a drift of the host's speed hits both sides alike; for example,
from a directory holding both checkouts:

    for seed in $(seq 101 110); do
      sides="parent change"; (( seed % 2 )) || sides="change parent"
      for side in $sides; do
        (cd $side && python3 perfbench/run.py --workload cli_colored \\
            --seed $seed --seconds 30 > /dev/null)
      done
    done
    python3 change/tools/bench_pairs.py parent change --label mychange

For every workload with untraced records of the same seed on both sides,
this prints each end-to-end metric's median and quartiles per side, the
change of the medians, the pairs the change won and two verdicts (see
:func:`verdict`) against the metric's bound in ``BENCHMARK.json``.  It
writes all of it, with the run metadata and the medians of any traced
per-layer records, to ``BENCH_<label>.json`` in the current directory.
It also runs ``python -X importtime -c "import skeinkit.cli"``
IMPORT_RUNS times per side, alternating, and records the median
cumulative milliseconds of each module that the import loads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_RUNS = 11


def _records(checkout, trace):
    """{(workload, seed): record} of one checkout's runs."""
    out = {}
    for path in sorted((Path(checkout) / ".bench_out")
                       .glob(f"*-seed*-trace{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record.get("smoke"):
            out[record["workload"], record["meta"]["seed"]] = record
    return out


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(a, b, better, bound):
    """Judge one metric from paired runs: a of the parent, b of the change.

    ``verdict`` is "worse" when the change's median is worse than the
    parent's by more than ``bound`` (a fraction of the parent's median);
    otherwise "unresolved" when the parent's own IQR exceeds ``bound``
    of its median, unless every run of the change beats every run of
    the parent ("better"); otherwise "within bound".  ``gain`` is "met"
    when the change won at least nine tenths of the pairs, ties counting
    for neither, and its median beats the parent's by more than the
    parent's IQR; otherwise "not met".
    """
    sign = 1 if better == "lower" else -1
    before, after = _summary(a), _summary(b)
    iqr = before["q3"] - before["q1"]
    won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    if sign * (after["median"] / before["median"] - 1) > bound:
        judged = "worse"
    elif all(sign * (y - x) < 0 for x in a for y in b):
        judged = "better"
    elif iqr > bound * before["median"]:
        judged = "unresolved"
    else:
        judged = "within bound"
    met = 10 * won >= 9 * len(a) and \
        sign * (before["median"] - after["median"]) > iqr
    return {
        "parent": before, "change": after,
        "relative_change": after["median"] / before["median"] - 1,
        "parent_iqr": iqr, "pairs_won": won, "bound": bound,
        "verdict": judged, "gain": "met" if met else "not met",
    }


def compare(parent, change, spec):
    """Per workload: paired end-to-end statistics of the two sides, for
    the ``end_to_end`` metrics of a ``BENCHMARK.json`` spec."""
    old, new = _records(parent, 0), _records(change, 0)
    out = {}
    for workload in sorted({w for w, _ in old}):
        seeds = sorted(s for w, s in old if w == workload
                       and (w, s) in new)
        if len(seeds) < 2:
            continue
        pairs = [(old[workload, s], new[workload, s]) for s in seeds]
        metrics = {}
        for m in spec:
            name = m["name"]
            a = [p["end_to_end"][name] for p, _ in pairs]
            b = [c["end_to_end"][name] for _, c in pairs]
            metrics[name] = verdict(a, b, m["better"], m["bound"])
        out[workload] = {
            "seeds": seeds, "pairs": len(seeds), "metrics": metrics,
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs),
                       "attempted": sum(c["attempted"] for _, c in pairs)},
            "meta": {"parent": pairs[0][0]["meta"],
                     "change": pairs[0][1]["meta"]},
        }
    return out


def layers(checkout):
    """{workload: per-layer medians} over a checkout's traced runs."""
    runs = {}
    for (workload, _), record in _records(checkout, 1).items():
        runs.setdefault(workload, []).append(record["per_layer"])
    return {w: {name: statistics.median(r[name] for r in rs)
                for name in rs[0]} for w, rs in sorted(runs.items())}


def _import_sample(checkout):
    """{module: cumulative ms} of one ``import skeinkit.cli``, from the
    ``skeinkit`` package on (what the interpreter's start-up imports
    before it is left out)."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout, "src").resolve())}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import skeinkit.cli"],
        env=env, capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "skeinkit" or out:
            out[name] = int(cumulative) / 1000
    return out


def importtime(parent, change, runs):
    """Per side: the median cumulative ms of each module (modules loaded
    in every run) and of the whole import."""
    samples = {parent: [], change: []}
    for i in range(runs):
        for side in (parent, change) if i % 2 == 0 else (change, parent):
            samples[side].append(_import_sample(side))
    out = {}
    for side, name in ((parent, "parent"), (change, "change")):
        got = samples[side]
        modules = {m: statistics.median(r[m] for r in got)
                   for m in got[0] if all(m in r for r in got)}
        total = statistics.median(r["skeinkit"] + r["skeinkit.cli"]
                                  for r in got)
        out[name] = {"runs": runs, "total_ms": total,
                     "cumulative_ms": modules}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--label", required=True,
                    help="writes BENCH_<label>.json")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = compare(args.parent, args.change, spec["end_to_end"])
    if not result:
        print("error: no workload has two seeds run on both sides",
              file=sys.stderr)
        return 1
    for workload, blob in result.items():
        print(f"{workload}: {blob['pairs']} pairs, failed ops "
              f"{blob['failed']['parent']} -> {blob['failed']['change']}")
        for name, m in blob["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"  {name:<12} {p['median']:10.4g} [{p['q1']:.4g}, "
                  f"{p['q3']:.4g}] -> {c['median']:10.4g} [{c['q1']:.4g}, "
                  f"{c['q3']:.4g}]  {m['relative_change']:+7.1%}  "
                  f"won {m['pairs_won']}/{blob['pairs']}  {m['verdict']}, "
                  f"gain {m['gain']}")
    imports = importtime(args.parent, args.change, IMPORT_RUNS)
    for side, blob in imports.items():
        print(f"import skeinkit.cli, {side}: median "
              f"{blob['total_ms']:.1f} ms over {blob['runs']} runs")
    record = {"label": args.label, "end_to_end": result,
              "per_layer": {"parent": layers(args.parent),
                            "change": layers(args.change)},
              "import_skeinkit_cli": imports}
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
