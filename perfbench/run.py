"""The skeinkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a skeinkit checkout; it measures that checkout's
own ``src/``.  Workloads (see perfbench/README.md for why each exists):

* ``cli_colored``  one fresh ``python -m skeinkit.cli`` per op;
* ``api_batch``    in-process API calls on ~300 seeded two-bridge diagrams;
* ``projector``    projector builds, a product and network evaluations.

A run first times ``setup_s`` (fresh interpreters that import the CLI
and load the catalog), then runs the workload's fixed op list in passes,
closed-loop with one client, each pass in fresh processes.  The number
of passes is ``--seconds`` divided by the workload's pass time at the
commit that defined the benchmark, so every run of a workload pools the
same number of op latencies.  Every output is checked.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics plus ``trace.overhead_s``.  ``--smoke`` runs one small
pass (for perfbench/test_smoke.py).  A fuller record, with run metadata,
goes to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

SETUP_SAMPLES = 3
PASS_SAMPLE_OPS = 100
# no pass starts after this many seconds, so that a run of a much slower
# program still ends within the three minutes a run may take
RUN_LIMIT_S = 100
SETUP_CODE = ("import skeinkit.cli, skeinkit.diagram; "
              "skeinkit.diagram.catalog_names()")
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
    "op_tail_s": "s", "peak_rss_mb": "MB",
}


def _checkout_src(root):
    """The checkout's src/ on sys.path, or None when it is missing."""
    src = root / "src"
    if not (src / "skeinkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import skeinkit
    if src.resolve() not in Path(skeinkit.__file__).resolve().parents:
        return None
    return src


def _metadata(root, seed):
    from skeinkit import _kernel
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "skeinkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    kernel = _kernel.pick_kernel()
    return {"commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest(), "seed": seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "kernels": _kernel.available_kernels(),
            "kernel": getattr(kernel, "KERNEL_NAME", kernel.__name__)}


def _setup_sample(env):
    """Wall time of a fresh interpreter that imports the CLI and loads the
    catalog."""
    code, _, err, elapsed = workloads.run_child(
        [sys.executable, "-c", SETUP_CODE], env, 60)
    if code != 0:
        raise RuntimeError(f"set-up interpreter failed: {err}")
    return elapsed


def _tail(samples):
    """(value, percentile) at the highest percentile that still has >= 10
    samples beyond it; with fewer samples, the maximum."""
    lat = sorted(samples)
    k = len(lat) - 10 if len(lat) > 10 else len(lat)
    return lat[k - 1], 100 * k / len(lat)


def end_to_end(passes, setup):
    """The end-to-end metrics of the untraced passes of a run.

    Latency percentiles are taken within each pass when a pass has at
    least PASS_SAMPLE_OPS ops, and the median over passes is reported, so
    that one slow stretch of the host cannot set the tail; shorter passes
    are pooled, since one alone cannot place a tail above its median.
    """
    complete = [p for p in passes if p["wall"] is not None]
    n_ops = len(complete[0]["lat"])
    sets = ([p["lat"] for p in complete] if n_ops >= PASS_SAMPLE_OPS
            else [[x for p in complete for x in p["lat"]]])
    tails = [_tail(s) for s in sets]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in complete),
        "ops_per_s": statistics.median(n_ops / p["wall"] for p in complete),
        "op_p50_s": statistics.median(statistics.median(s) for s in sets),
        "op_tail_s": statistics.median(t for t, _ in tails),
        "peak_rss_mb": rss_kb / 1024,
    }
    tail = {"percentile": round(tails[0][1], 2), "samples": len(sets[0]),
            "sample_sets": len(sets)}
    return metrics, tail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli_colored", "api_batch", "projector"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one small pass per mode, for the smoke test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = _checkout_src(root)
    if src is None:
        print(f"error: {root} holds no src/skeinkit to measure; run from "
              f"the root of a skeinkit checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        meta = _metadata(root, args.seed)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
        n = 1 if args.smoke else max(
            3, int(args.seconds / wl.nominal_pass_s))
        modes = [False, True] * max(1, n // 2) if args.trace else [False] * n
        # the first interpreter also writes the bytecode caches; the other
        # set-up samples are spread over the run, since this host's speed
        # drifts by up to a quarter over tens of seconds
        _setup_sample(env)
        setup = [_setup_sample(env) for _ in range(SETUP_SAMPLES)]
        passes = []
        deadline = time.monotonic() + RUN_LIMIT_S
        for traced in modes:
            if len(passes) >= 2 and time.monotonic() > deadline:
                break
            passes.append(wl.run_pass(traced, env))
            setup.append(_setup_sample(env))
        failed, attempted = wl.check(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p, t in zip(passes, modes) if not t]
    if not any(p["wall"] is not None for p in plain):
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    metrics, tail = end_to_end(plain, setup)
    units = dict(END_TO_END)
    record = {"workload": args.workload, "trace": args.trace,
              "smoke": args.smoke, "meta": meta, "passes": len(plain),
              "ops_per_pass": len(plain[0]["lat"]),
              "end_to_end": metrics, "op_tail": tail,
              "fail_ratio": failed / attempted, "failed": failed,
              "attempted": attempted, "setup_samples_s": setup,
              "pass_walls_s": [p["wall"] for p in passes],
              "latencies_s": [p["lat"] for p in passes]}
    shown = metrics
    if args.trace:
        traced = [p for p, t in zip(passes, modes) if t]
        layers = tracing.median_of(
            [tracing.merge(p["layers"]) for p in traced])
        layers["trace.overhead_s"] = statistics.median(
            p["wall"] for p in traced if p["wall"]) - metrics["wall_s"]
        record["per_layer"] = layers
        units = {name: unit for name, (unit, _) in
                 tracing.LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        shown = layers

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  passes {len(passes)} x {record['ops_per_pass']} ops")
    print("  ".join(f"{k} {v}" for k, v in meta.items()))
    for name, value in metrics.items():
        print(f"{name:<15} {value:.6g} {END_TO_END[name]}")
    print(f"{'':<15} op_tail_s is p{tail['percentile']} of "
          f"{tail['samples']} samples, median over {tail['sample_sets']} "
          f"sample sets")
    print(f"{'fail_ratio':<15} {record['fail_ratio']:.6g} "
          f"({failed}/{attempted})")
    if args.trace:
        for name, value in shown.items():
            print(f"{name:<36} {value:.6g} {units[name]}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n",
                                encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in shown.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
