"""rollgap benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload ginibre-c3 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
BLAS is pinned to one thread before numpy loads.  The run times the set-up
(import of the library plus input generation) in this process and in two
fresh child processes, runs one untimed warm-up op, then runs whole rounds
of the workload's operations until ``--seconds`` have passed, checks every
output outside the timed part, and prints each metric by name and unit.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2
PROBE_TIMEOUT = 60
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def set_up(name, seed):
    """Import the library and build the workload's inputs; return both and
    the seconds it took."""
    if not (SRC / "rollgap" / "__init__.py").is_file():
        raise SystemExit(f"error: no rollgap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed)
    elapsed = time.perf_counter() - start
    import rollgap
    if Path(rollgap.__file__).resolve().parent != SRC / "rollgap":
        raise SystemExit(f"error: rollgap imported from {rollgap.__file__}, not {SRC}")
    return wl, elapsed


def probe_setup(name, seed):
    """Set-up seconds measured in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(wl, k, run_op):
    """Run the operations of round k, then check them.  Returns one
    ``(seconds, kind, verdict)`` triple per operation."""
    times, kinds, outputs, errors = [], [], [], []
    for kind, thunk in wl.round(k):
        kinds.append(kind)
        t0 = time.perf_counter()
        try:
            outputs.append(run_op(kind, thunk))
            errors.append(None)
        except Exception:  # an op that raises is a failed op
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t0)
    if any(errors):
        verdicts = [([err], []) if err else (["another op of its round raised"], [])
                    for err in errors]
    else:
        verdicts = wl.check(k, outputs)
    return list(zip(times, kinds, verdicts))


def plain_op(kind, thunk):
    return thunk()


def report(args, rounds, ops, metrics, units):
    times, kinds, verdicts = zip(*ops)
    failed = [v for v in verdicts if v[0]]
    flags = {}
    for _, flagged in verdicts:
        for f in flagged:
            flags[f] = flags.get(f, 0) + 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {rounds}  ops {len(times)}  timed {sum(times):.3f} s")
    for kind in dict.fromkeys(kinds):
        own = [t for t, kd in zip(times, kinds) if kd == kind]
        print(f"  op {kind}: {len(own)} ops, median {statistics.median(own):.4f} s")
    for problems, _ in failed[:5]:
        print("  failed:", "; ".join(p.strip().splitlines()[-1] for p in problems))
    for f, n in sorted(flags.items()):
        print(f"  flagged (known fault, not failed): {f}: {n} of {len(verdicts)} ops")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  attempted {len(verdicts)}  failed {len(failed)}")
    print(json.dumps({
        "correct": True,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    wl, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    # warm-up, not timed or counted: the first call of an op pays for lazy
    # imports and first-use set-up inside numpy and scipy
    _, thunk = wl.round(0)[0]
    try:
        thunk()
    except Exception:  # the same op runs again in round 0 and counts as failed there
        pass

    ops = []
    if not args.trace:
        setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < args.seconds:
            ops += run_round(wl, k, plain_op)
            k += 1
        times = [op[0] for op in ops]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report(args, k, ops, metrics, END_TO_END_UNITS)
        return 0

    import spans
    from rollgap import certify, dampsim, genbal, matgap, rollwave

    tracer = spans.Tracer()
    layers = {"matgap": matgap, "certify": certify, "rollwave": rollwave,
              "dampsim": dampsim, "genbal": genbal}
    # each round runs traced, then again untraced on the same inputs; the
    # difference is the tracing overhead
    untraced = 0.0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        tracer.install(layers)
        try:
            ops += run_round(wl, k, tracer.run_op)
        finally:
            tracer.uninstall()
        untraced += sum(op[0] for op in run_round(wl, k, plain_op))
        k += 1
    traced = sum(op[0] for op in ops)
    metrics = tracer.per_layer()
    metrics["trace.overhead_s"] = (traced - untraced) / len(ops)
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    units = {m["name"]: m["unit"] for m in spans.PER_LAYER}
    report(args, k, ops, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
