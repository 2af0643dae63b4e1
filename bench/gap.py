"""Layer timings of ``gap`` and ``certify_minimizer`` in two checkouts, as JSON.

    python3 bench/gap.py --parent ../parent --change . --out BENCH_18.json

``--parent`` and ``--change`` are the roots of two checkouts.  For each one
the script starts a Python process with that checkout's ``src`` on the path
and one BLAS thread, and runs two ensembles:

* ``ginibre-c3``: the first ``--count`` matrices of the ``ginibre-c3``
  benchmark pool at ``--seed`` (complex 3x3 Ginibre, entries (N(0,1) + i
  N(0,1)) / sqrt(6)), with the benchmark's ``GapOptions(seed=0,
  restarts=64)``;
* ``criterion-2``: the 400 matrices of acceptance criterion 2 (seed
  20260811: complex n = 2, 3 and real n = 2..5), with default options.

Per matrix it times one ``gap`` call, ``certify_minimizer`` at the returned
argmin, and, through a timing wrapper on ``matgap.min_scaled_norm`` (which
``gap`` looks up at call time), the scaling search inside that call; the
phase search is the rest of the ``gap`` call.  It counts the scaling
anneal's stages (its ``scipy.optimize.minimize`` calls), the phase ascents
(``restarts_used``), the inputs answered with no ascent and the minimizers
with a simple top singular value.  Each figure is the mean per op of the
best of ``--repeat`` timings per matrix, and the best of ``--rounds``
processes per checkout; the checkouts alternate which runs first from round
to round.  The results are stored under the key ``"layers"`` of ``--out``;
the file's other keys are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, sys, time
import numpy as np
import scipy.optimize
from rollgap import certify, matgap

count, seed, repeat = (int(a) for a in sys.argv[1:4])


def ginibre_c3():
    rng = np.random.default_rng(seed)
    mats = [(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(6)
            for _ in range(512)]
    return mats[:count], matgap.GapOptions(seed=0, restarts=64), certify.CertifyOptions(seed=0)


def criterion_2():
    rng = np.random.default_rng(20260811)
    mats = []
    for n in (2, 3):
        for _ in range(100):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append(A / np.sqrt(2 * n))
    for n in (2, 3, 4, 5):
        for _ in range(50):
            mats.append(rng.standard_normal((n, n)) / np.sqrt(n))
    return mats, matgap.GapOptions(), certify.CertifyOptions()


# the scaling search's time and its anneal stages, recorded inside each gap call
inner = {"scaling_s": 0.0, "stages": 0, "active": False}
min_scaled_norm, minimize = matgap.min_scaled_norm, scipy.optimize.minimize


def timed_min_scaled_norm(*args, **kwargs):
    inner["active"] = True
    t0 = time.perf_counter()
    try:
        return min_scaled_norm(*args, **kwargs)
    finally:
        inner["scaling_s"] += time.perf_counter() - t0
        inner["active"] = False


def counted_minimize(*args, **kwargs):
    inner["stages"] += inner["active"]
    return minimize(*args, **kwargs)


matgap.min_scaled_norm = timed_min_scaled_norm
scipy.optimize.minimize = counted_minimize

result = {}
for name, build in (("ginibre-c3", ginibre_c3), ("criterion-2", criterion_2)):
    mats, opts, copts = build()
    best = np.full((len(mats), 3), np.inf)
    for _ in range(repeat):
        stages = ascents = no_ascent = simple = 0
        for i, A in enumerate(mats):
            M = matgap.ComplexMatrix(A)
            inner["scaling_s"] = 0.0
            before = inner["stages"]
            t0 = time.perf_counter()
            rep = matgap.gap(M, opts)
            t1 = time.perf_counter()
            certify.certify_minimizer(M, rep.argmin_S, copts)
            t2 = time.perf_counter()
            scaling = inner["scaling_s"]
            best[i] = np.minimum(best[i], [scaling, t1 - t0 - scaling, t2 - t1])
            stages += inner["stages"] - before
            ascents += rep.restarts_used
            no_ascent += rep.restarts_used == 0
            simple += rep.top_multiplicity == 1
    ms = 1e3 * best.mean(axis=0)
    result[name] = {
        "ops": len(mats), "scaling_ms": ms[0], "phase_ms": ms[1], "certify_ms": ms[2],
        "anneal_stages_per_op": stages / len(mats), "ascents": ascents,
        "no_ascent_inputs": no_ascent, "simple_top_inputs": simple,
    }
print(json.dumps(result))
"""

TIMINGS = ("scaling_ms", "phase_ms", "certify_ms")


def measure(root, count, seed, repeat):
    """The timings of one checkout, from a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(count), str(seed), str(repeat)],
                          cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--count", type=int, default=200, help="ginibre-c3 matrices, at most 512")
    ap.add_argument("--seed", type=int, default=1, help="the ginibre-c3 pool's seed")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in roots}
    for r in range(args.rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            runs[side].append(measure(roots[side], args.count, args.seed, args.repeat))
    # the counts are the same in every round; the timings keep their best
    sides = {side: {ens: {key: (min(run[ens][key] for run in rs) if key in TIMINGS
                                else rs[0][ens][key]) for key in rs[0][ens]}
                    for ens in rs[0]}
             for side, rs in runs.items()}
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["layers"] = {
        "command": f"python3 bench/gap.py --parent P --change C --count {args.count} "
                   f"--seed {args.seed} --repeat {args.repeat} --rounds {args.rounds}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1 (set for each child process)",
        "vcpus": os.cpu_count(),
        **{ens: {key: {side: sides[side][ens][key] for side in sides}
                 for key in sides["change"][ens]}
           for ens in sides["change"]},
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
