"""Alternating parent/change pairs of the benchmark, summarised as JSON.

    python3 bench/pairs.py --parent ../parent --change . --seeds 11-20 \
        --workloads ginibre-c3,damping-f3,rollwave-sweep --out BENCH_9.json

``--parent`` and ``--change`` are the roots of two checkouts.  For each
workload and seed the script runs ``perfbench/run.py`` once in each checkout,
one after the other, with the side that runs first alternating from pair to
pair.  It records every run's end-to-end metrics and failed-operation count,
and for each metric each side's median and quartiles, the pairs the change
wins (ties count for neither side) and whether the gain rule holds: the
change wins at least nine tenths of the pairs and the medians differ by more
than the distance between the parent's quartiles.  ``--trace-seed`` adds one
traced run per side on the first workload and records its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_bench(root, workload, seed, seconds, trace=0):
    """One ``perfbench/run.py`` run in checkout ``root``; its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarise(runs, better):
    """Per-side quartiles, pair wins and the gain rule for one metric."""
    par = [r["parent"] for r in runs]
    chg = [r["change"] for r in runs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(par, chg) if sign * (c - p) < 0)
    qp, qc = quartiles(par), quartiles(chg)
    gain = (wins >= 0.9 * len(runs)
            and sign * (qc["median"] - qp["median"]) > qp["q3"] - qp["q1"])
    return {"better": better, "parent": qp, "change": qc, "change_wins": wins,
            "change_losses": losses, "pairs": len(runs),
            "median_ratio": qc["median"] / qp["median"] if qp["median"] else None,
            "gain_rule_holds": gain}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workloads", default="ginibre-c3,damping-f3,rollwave-sweep")
    ap.add_argument("--seeds", default="11-20", help="one seed per pair, as LO-HI")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    import numpy
    import scipy
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=roots["parent"],
                          capture_output=True, text=True)
    out = {
        "parent_commit": head.stdout.strip() or None,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0, run from the root of each checkout; pairs alternate "
                   "which side runs first",
        "machine": {
            "vcpus": os.cpu_count(), "os": platform.system(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": "OPENBLAS_NUM_THREADS=1 (set by perfbench/run.py)",
        },
        "workloads": {},
    }
    for wl in args.workloads.split(","):
        runs = []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            res = {side: run_bench(roots[side], wl, seed, args.seconds) for side in order}
            runs.append({"seed": seed, "first": order[0], **res})
            print(wl, seed, {s: round(res[s]["metrics"]["ops_per_s"]["value"], 3) for s in SIDES},
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, direction in better.items():
            per_pair = [{s: r[s]["metrics"][name]["value"] for s in SIDES} for r in runs]
            metrics[name] = {"unit": runs[0]["parent"]["metrics"][name]["unit"],
                             **summarise(per_pair, direction)}
        out["workloads"][wl] = {
            "seeds": [r["seed"] for r in runs],
            "first_side": {str(r["seed"]): r["first"] for r in runs},
            "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in SIDES},
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in SIDES},
            "metrics": metrics,
            "runs": [{"seed": r["seed"],
                      **{s: {n: m["value"] for n, m in r[s]["metrics"].items()} for s in SIDES}}
                     for r in runs],
        }
    if args.trace_seed is not None:
        wl = args.workloads.split(",")[0]
        traced = {s: run_bench(roots[s], wl, args.trace_seed, args.seconds, trace=1)["metrics"]
                  for s in SIDES}
        out[f"traced_{wl}_seed{args.trace_seed}"] = {
            name: {"unit": m["unit"], **{s: traced[s][name]["value"] for s in SIDES}}
            for name, m in traced["parent"].items()}
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
