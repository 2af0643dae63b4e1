"""Stage timings of the ``rollwave-sweep`` operation in two checkouts, as JSON.

    python3 bench/rollwave.py --parent ../parent --change . --out BENCH_19.json

``--parent`` and ``--change`` are the roots of two checkouts.  For each one
the script starts a Python process with that checkout's ``src`` and
``perfbench`` on the path and one BLAS thread, and runs the first
``--count`` waves (F, amplitude) of the ``rollwave-sweep`` benchmark pool at
``--seed``.  Per wave it makes the calls of ``perfbench/workloads.wave`` in
the same order and times each stage on its own:

* ``profile_ms``: ``rollwave.build_profile`` (n_grid = 800);
* ``characteristics_ms``: ``rollwave.characteristics``;
* ``index_ms``: ``rollwave.stability_index`` and ``hs_threshold``, the
  first use of the wave's Gauss-grid integrals and its jump solve;
* ``weights_ms``: ``default_epsilon``, ``default_C0`` and
  ``damping_weights``;
* ``general_ms``: ``genbal.from_sv_profile``, ``build_B`` and
  ``general_weights``;

and ``op_ms``, their sum.  Each figure is the mean per wave of the best of
``--repeat`` timings per wave, and the best of ``--rounds`` processes per
checkout; the checkouts alternate which runs first from round to round.
Waves that raise a ``RollgapError`` count as failures and are left out of
the means.  The results are stored under the key ``"layers"`` of ``--out``;
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
import workloads
from rollgap import genbal, matgap, rollwave
from rollgap.errors import RollgapError

count, seed, repeat = (int(a) for a in sys.argv[1:4])
waves = workloads.RollwaveSweep(seed).waves[:count]


def stages(F, amp):
    times = []
    t = time.perf_counter()

    def lap():
        nonlocal t
        now = time.perf_counter()
        times.append(now - t)
        t = now

    p = rollwave.build_profile(F, amplitude=amp, n_grid=workloads.N_GRID)
    lap()
    cd = rollwave.characteristics(p)
    lap()
    rollwave.stability_index(p, cd)
    rollwave.hs_threshold(p, cd)
    lap()
    eps = rollwave.default_epsilon(p, cd)
    c0 = rollwave.default_C0(p, cd, eps)
    rollwave.damping_weights(p, cd, eps, c0)
    lap()
    d = genbal.from_sv_profile(p, cd)
    genbal.build_B(d)
    genbal.general_weights(d, matgap.DiagonalScaling.identity(d.n - 1), 1)
    lap()
    return times


best = np.full((len(waves), 5), np.inf)
failed = np.zeros(len(waves), dtype=bool)
for _ in range(repeat):
    for i, (F, amp) in enumerate(waves):
        try:
            best[i] = np.minimum(best[i], stages(F, amp))
        except RollgapError:
            failed[i] = True
ms = 1e3 * best[~failed].mean(axis=0)
keys = ("profile_ms", "characteristics_ms", "index_ms", "weights_ms", "general_ms")
print(json.dumps({"waves": len(waves), "failed": int(failed.sum()),
                  **dict(zip(keys, ms)), "op_ms": float(ms.sum())}))
"""

COUNTS = ("waves", "failed")


def measure(root, count, seed, repeat):
    """The timings of one checkout, from a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(count), str(seed), str(repeat)],
                          cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--count", type=int, default=100, help="waves of the pool, at most 512")
    ap.add_argument("--seed", type=int, default=1, help="the rollwave-sweep pool's seed")
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
    sides = {side: {key: (rs[0][key] if key in COUNTS else min(run[key] for run in rs))
                    for key in rs[0]}
             for side, rs in runs.items()}
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["layers"] = {
        "command": f"python3 bench/rollwave.py --parent P --change C --count {args.count} "
                   f"--seed {args.seed} --repeat {args.repeat} --rounds {args.rounds}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1 (set for each child process)",
        "vcpus": os.cpu_count(),
        "rollwave-sweep": {key: {side: sides[side][key] for side in sides}
                           for key in sides["change"]},
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
