"""Layer timings of the damping simulator in two checkouts, as JSON.

    python3 bench/steps.py --parent ../parent --change . --out BENCH_14.json

``--parent`` and ``--change`` are the roots of two checkouts.  For each one
the script starts a Python process with that checkout's ``src`` on the path
and one BLAS thread, and times at F = 3 and N = 64, 128, 256, 512, 1024
(t_end = 60, 400 outputs, as in acceptance criterion 8):

* ``block_ms``: forming the block map of a simulator that forms it on its
  first ``advance`` (one ``advance`` over ``block_steps`` steps from an
  unformed block; its one product is microseconds of the milliseconds).
  ``None`` for a checkout that forms its step powers in set-up, where they
  are part of ``setup_ms``.
* ``step_us``: one time step, over the steps between two snapshots, with
  the block map formed.  A checkout whose simulator has ``advance``
  advances the whole interval in one call; otherwise ``step`` runs once per
  step.
* ``norms_us``: ``norms`` per snapshot, over the 401 snapshots of a run.  A
  checkout with ``advance`` measures them in one call, otherwise one call per
  snapshot.
* ``setup_ms``, ``slow_family_ms``, ``measure_decay_ms`` and
  ``deflated_run_s``: one call each.  The deflated run reuses the
  simulator, so set-up, ``block_ms`` and ``deflated_run_s`` together are
  one run's cost in either checkout.

Every figure is the best of ``--repeat`` timings in each of ``--rounds``
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

GRIDS = (64, 128, 256, 512, 1024)

CHILD = r"""
import json, sys, time
import numpy as np
from rollgap import dampsim as ds, rollwave as rw

grids, repeat = json.loads(sys.argv[1]), int(sys.argv[2])


def best(fn, inner=1):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            out = fn()
        times.append((time.perf_counter() - t0) / inner)
    return min(times), out


p = rw.build_profile(3.0)
cd = rw.characteristics(p)
w = rw.damping_weights(p, cd, rw.default_epsilon(p, cd), 1.0)
result = {}
for N in grids:
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=60.0, n_outputs=400)
    setup_s, sim = best(lambda: ds.setup(cfg))
    u0 = ds.random_initial_data(sim.centers, p.X, 20260811)
    z = np.concatenate([u0[0], u0[1], [0.0]])
    m = max(1, int(np.ceil(cfg.t_end / sim.dt)) // cfg.n_outputs)
    blocked = hasattr(sim, "advance")

    def form_block():
        sim.block = None
        return sim.advance(0.0, z, sim.block_steps)

    block_s = best(form_block)[0] if hasattr(sim, "block_steps") else None

    def interval():
        if blocked:
            return sim.advance(0.0, z, m)
        v = z
        for _ in range(m):
            v = sim.step(0.0, v)
        return v

    step_s, _ = best(interval, inner=20)
    traj_s, traj = best(lambda: ds.deflated_run(cfg, u0, sim=sim))
    Z = np.array([np.concatenate([s.u1, s.u2, [s.y]]) for s in traj.states])
    U1, U2, y = Z[:, :N], Z[:, N:2 * N], Z[:, 2 * N]
    if blocked:
        norms_s, _ = best(lambda: sim.norms(U1, U2, y))
    else:
        norms_s, _ = best(lambda: [sim.norms(a, b, c) for a, b, c in zip(U1, U2, y)])
    slow_s, _ = best(lambda: ds.slow_family(sim))
    fit_s, rep = best(lambda: ds.measure_decay(traj), inner=20)
    result[str(N)] = {
        "steps_per_snapshot": m, "step_us": 1e6 * step_s / m,
        "block_ms": None if block_s is None else 1e3 * block_s,
        "norms_us": 1e6 * norms_s / len(Z), "setup_ms": 1e3 * setup_s,
        "slow_family_ms": 1e3 * slow_s, "measure_decay_ms": 1e3 * fit_s,
        "deflated_run_s": traj_s, "theta_fit": rep.theta_fit,
    }
print(json.dumps(result))
"""


def measure(root, grids, repeat):
    """The timings of one checkout, from a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(grids), str(repeat)],
                          cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--grids", default=",".join(map(str, GRIDS)))
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    grids = [int(n) for n in args.grids.split(",")]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in roots}
    for r in range(args.rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            runs[side].append(measure(roots[side], grids, args.repeat))
    # theta_fit is the same in every round; the timings keep their best
    def fastest(values):
        return None if None in values else min(values)

    sides = {side: {N: {key: fastest([run[N][key] for run in runs[side]]) for key in runs[side][0][N]}
                    for N in runs[side][0]}
             for side in runs}
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["layers"] = {
        "command": "python3 bench/steps.py --parent P --change C "
                   f"--grids {args.grids} --repeat {args.repeat} --rounds {args.rounds}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1 (set for each child process)",
        "vcpus": os.cpu_count(),
        **{N: {key: {side: sides[side][N][key] for side in sides} for key in sides["change"][N]}
           for N in map(str, grids)},
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
