"""Command-line front end.

Subcommands map one-to-one onto the library layers::

    rollgap gap       matrix -> gap report (or built-in example tables)
    rollgap certify   matrix -> variational certificate at a scaling
    rollgap rollwave  profile / index / weights / threshold at a Froude number
    rollgap simulate  full damping simulation with decay report
    rollgap stats     random-ensemble gap statistics
    rollgap general   boundary layer from a mode-data JSON document

Exit codes: 0 success, 1 input or configuration error, 2 non-convergence
(reports are still written), 3 nonexistence (no roll wave, no damping
margin).  A ``KEY=VALUE`` config file supplies defaults that explicit flags
override.  Every ``--out`` style result gets a sidecar ``.manifest.json``
recording command, parameters, seed, version and timestamps; outputs are a
pure function of parameters and seed, so identical invocations produce
bit-identical result files (manifests differ only in their timestamps).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys

from . import certify, dampsim, genbal, matgap, matio, rollwave
from .errors import (
    ConfigurationError,
    InvalidInputError,
    LopatinskyDegenerateError,
    NoRollWaveError,
    RollgapError,
    StructuralAssumptionError,
    RegularityThresholdError,
)
from .rollwave import NoDampingWeightsError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2
EXIT_NONEXISTENT = 3


def _read_config(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInputError(f"config line {line!r} is not KEY=VALUE")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve(args, config, name, default, cast):
    """CLI flag beats config file beats built-in default."""
    cli_val = getattr(args, name, None)
    if cli_val is not None:
        return cli_val
    if name in config:
        return cast(config[name])
    return default


def _emit(text, out_path, manifest):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        if manifest is not None:
            matio.dump_json(manifest, out_path + ".manifest.json")
    else:
        sys.stdout.write(text)


def _manifest(command, params, seed, outputs, started):
    return matio.build_manifest(command, params, seed, outputs, started,
                                matio.now_iso())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gap(args, config):
    started = matio.now_iso()
    seed = _resolve(args, config, "seed", 0, int)
    restarts = _resolve(args, config, "restarts", 64, int)
    opts = matgap.GapOptions(seed=seed, restarts=restarts)

    if args.example == "landscape2x2":
        _, curve = matgap.landscape_local_min_2x2()
        text = matio.landscape_csv(curve)
        params = {"example": "landscape2x2"}
        _emit(text, args.out, _manifest("gap", params, seed, [args.out or "-"], started))
        return EXIT_OK

    if args.example == "c4":
        M, _, _ = matgap.counterexample_c4()
    elif args.example == "r6":
        M = matgap.candidate_r6()
    elif args.matrix is not None:
        M = matio.load_matrix(args.matrix)
    else:
        raise InvalidInputError("provide a matrix file, '-', or --example")

    report = matgap.gap_reduced(M, opts) if args.reduced else matgap.gap(M, opts)
    doc = report.to_dict()
    params = {"matrix": str(args.matrix), "example": args.example,
              "reduced": bool(args.reduced), "restarts": restarts}
    _emit(matio.dump_json(doc), args.out,
          _manifest("gap", params, seed, [args.out or "-"], started))
    if not (report.converged_S and report.converged_U):
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_certify(args, config):
    started = matio.now_iso()
    seed = _resolve(args, config, "seed", 0, int)
    if args.example == "c4":
        M, _, _ = matgap.counterexample_c4()
    elif args.matrix is not None:
        M = matio.load_matrix(args.matrix)
    else:
        raise InvalidInputError("provide a matrix file, '-', or --example c4")
    if args.scaling:
        S = matio.load_scaling(args.scaling)
    else:
        _, S, _, _ = matgap.min_scaled_norm(M, matgap.GapOptions(seed=seed))
    cert = certify.certify_minimizer(M, S, certify.CertifyOptions(seed=seed))
    doc = cert.to_dict()
    doc["scaling_logs"] = [float(v) for v in S.logs]
    params = {"matrix": str(args.matrix), "example": args.example,
              "scaling": str(args.scaling)}
    _emit(matio.dump_json(doc), args.out,
          _manifest("certify", params, seed, [args.out or "-"], started))
    return EXIT_OK


def _rollwave_single(task, froude, amplitude, h_plus, n_grid, epsilon, c0):
    p = rollwave.build_profile(froude, amplitude=amplitude, h_plus=h_plus,
                               n_grid=n_grid)
    cd = rollwave.characteristics(p)
    if task == "profile":
        return matio.profile_csv(p, cd), "csv"
    if task == "index":
        rep = rollwave.stability_index(p, cd)
        doc = rep.to_dict()
        doc.update({"froude": froude, "period": p.X, "sonic_position": p.x_s,
                    "h_plus": p.h_plus, "h_minus": p.h_minus})
        return matio.dump_json(doc), "json"
    if task == "threshold":
        doc = {
            "froude": froude,
            "threshold": rollwave.hs_threshold(p, cd),
            "gamma2_xs": cd.gamma2_xs,
            "alpha2_prime_xs": cd.alpha2_prime_xs,
        }
        return matio.dump_json(doc), "json"
    if task == "weights":
        eps = epsilon if epsilon is not None else rollwave.default_epsilon(p, cd)
        w = rollwave.damping_weights(p, cd, eps, c0)
        return matio.weights_csv(p, cd, w), "csv"
    raise InvalidInputError(f"unknown rollwave task {task!r}")


def _cmd_rollwave(args, config):
    started = matio.now_iso()
    n_grid = _resolve(args, config, "n_grid", 800, int)
    amplitude = _resolve(args, config, "amplitude", 0.5, float)
    c0 = _resolve(args, config, "c0", 1.0, float)
    jobs = _resolve(args, config, "jobs", 1, int)
    if jobs < 1:
        raise InvalidInputError(f"--jobs must be at least 1, got {jobs}")
    froudes = [float(tok) for tok in str(args.froude).split(",")]

    tasks = [(args.task, F, amplitude, args.h_plus, n_grid, args.epsilon, c0)
             for F in froudes]
    # a forked pool starts all its workers at once, so never more than
    # there are tasks or cores
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_rollwave_star, tasks))
    else:
        results = [_rollwave_star(t) for t in tasks]

    outputs = []
    for F, (text, kind) in zip(froudes, results):
        if args.out and len(froudes) > 1:
            stem = args.out
            suffix = ""
            if "." in stem.rsplit("/", 1)[-1]:
                stem, suffix = stem.rsplit(".", 1)
                suffix = "." + suffix
            path = f"{stem}_F{F:g}{suffix}"
        else:
            path = args.out
        params = {"task": args.task, "froude": F, "amplitude": amplitude,
                  "h_plus": args.h_plus, "n_grid": n_grid}
        _emit(text, path, _manifest("rollwave", params, None, [path or "-"], started))
        outputs.append(path)
    return EXIT_OK


def _rollwave_star(t):
    return _rollwave_single(*t)


def _cmd_simulate(args, config):
    started = matio.now_iso()
    froude = float(_resolve(args, config, "froude", 3.0, float))
    N = _resolve(args, config, "n", 256, int)
    t_end = _resolve(args, config, "t_end", 60.0, float)
    xi = _resolve(args, config, "xi", 0.0, float)
    seed = _resolve(args, config, "seed", 0, int)
    factor = _resolve(args, config, "perturb_a0", 1.0, float)

    p = rollwave.build_profile(froude)
    cd = rollwave.characteristics(p)
    eps = rollwave.default_epsilon(p, cd)
    c0 = rollwave.default_C0(p, cd, eps)
    w = rollwave.damping_weights(p, cd, eps, c0)
    cfg = dampsim.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=t_end,
                            floquet_xi=xi, a0_factor=factor)
    sim = dampsim.setup(cfg)
    u0 = dampsim.random_initial_data(sim.centers, p.X, seed)
    deflate = not args.no_deflate and factor == 1.0 and xi == 0.0
    if deflate:
        traj = dampsim.deflated_run(cfg, u0, sim=sim)
    else:
        traj = dampsim.run(cfg, u0, sim=sim)
    try:
        rep = dampsim.measure_decay(
            traj, discard_fraction=0.0 if traj.blew_up else 0.2,
            fit_end_fraction=1.0 if traj.blew_up else 0.7)
        doc = rep.to_dict()
    except InvalidInputError:
        # trajectory truncated by blow-up before a fit was possible
        doc = dampsim.DecayReport(
            theta_fit=0.0, r_squared=0.0, slaving_constant=0.0,
            eta1_used=w.eta1, epsilon_used=eps, deflated=False).to_dict()
    doc.update({
        "froude": froude, "N": N, "t_end": t_end, "floquet_xi": xi,
        "a0_factor": factor, "blew_up": bool(traj.blew_up),
        "growth_flagged": bool(traj.blew_up or doc["theta_fit"] < 0),
    })
    params = {"froude": froude, "n": N, "t_end": t_end, "xi": xi,
              "perturb_a0": factor, "deflate": deflate}

    if args.out_prefix:
        csv_path = args.out_prefix + "_trajectory.csv"
        json_path = args.out_prefix + "_decay.json"
        _emit(matio.trajectory_csv(traj), csv_path,
              _manifest("simulate", params, seed, [csv_path, json_path], started))
        _emit(matio.dump_json(doc), json_path,
              _manifest("simulate", params, seed, [csv_path, json_path], started))
    else:
        sys.stdout.write(matio.dump_json(doc))
    if traj.blew_up:
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_stats(args, config):
    started = matio.now_iso()
    seed = _resolve(args, config, "seed", 0, int)
    count = _resolve(args, config, "count", 100, int)
    ensemble = _resolve(args, config, "ensemble", "complex-gaussian", str)
    out = matgap.random_gap_stats(args.n, count, ensemble, seed=seed,
                                  include_counterexample=args.include_counterexample)
    params = {"n": args.n, "count": count, "ensemble": ensemble,
              "include_counterexample": args.include_counterexample}
    _emit(matio.dump_json(out), args.out,
          _manifest("stats", params, seed, [args.out or "-"], started))
    return EXIT_OK


def _cmd_general(args, config):
    started = matio.now_iso()
    seed = _resolve(args, config, "seed", 0, int)
    d = genbal.load_mode_data(args.input)
    B = genbal.build_B(d)
    doc = {
        "n": d.n,
        "m": d.m,
        "boundary_matrix": [[float(v) for v in row] for row in B.B],
        "hf_rat": genbal.hf_rat(B),
        "hf_sat": genbal.hf_sat(B),
    }
    doc["spectral_condition"] = bool(doc["hf_rat"] < 1.0)
    doc["energy_condition"] = bool(doc["hf_sat"] < 1.0)
    if args.sample:
        doc["ulem_sampling"] = genbal.sample_ulem(d, seed=seed)
    if args.k is not None:
        S = matgap.DiagonalScaling.identity(d.n - 1)
        gw = genbal.general_weights(d, S, args.k)
        doc["weights"] = [
            {"mode": mw.mode, "sigma": mw.sigma, "power": mw.power,
             "transit_g": mw.transit_g}
            for mw in gw.weights
        ]
        doc["boundary_form_min_eig"] = gw.boundary_form_min_eig
    params = {"input": str(args.input), "sample": bool(args.sample), "k": args.k}
    _emit(matio.dump_json(doc), args.out,
          _manifest("general", params, seed, [args.out or "-"], started))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rollgap",
        description="Scaled-norm/spectral-radius gap certification and "
                    "roll-wave damping estimates.",
    )
    parser.add_argument("--config", help="KEY=VALUE file overriding defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gap", help="gap report for a matrix")
    g.add_argument("matrix", nargs="?", help="matrix file (JSON or text), or '-' for stdin")
    g.add_argument("--example", choices=["c4", "landscape2x2", "r6"])
    g.add_argument("--reduced", action="store_true",
                   help="apply the graph reduction before optimizing")
    g.add_argument("--restarts", type=int, help="phase-search restarts (default 64)")
    g.add_argument("--seed", type=int, help="search seed (default 0)")
    g.add_argument("--out", help="output path (default stdout)")
    g.set_defaults(func=_cmd_gap)

    c = sub.add_parser("certify", help="variational certificate at a scaling")
    c.add_argument("matrix", nargs="?")
    c.add_argument("--example", choices=["c4"])
    c.add_argument("--scaling", help="JSON file with diagonal entries (default: computed argmin)")
    c.add_argument("--seed", type=int)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_certify)

    r = sub.add_parser("rollwave", help="profile, index, weights, or threshold")
    r.add_argument("task", choices=["profile", "index", "weights", "threshold"])
    r.add_argument("--froude", required=True,
                   help="Froude number, or comma list for a sweep")
    r.add_argument("--amplitude", type=float, help="wave family parameter in (0,1)")
    r.add_argument("--h-plus", dest="h_plus", type=float,
                   help="downstream shock height (overrides --amplitude)")
    r.add_argument("--n-grid", dest="n_grid", type=int)
    r.add_argument("--epsilon", type=float, help="transverse margin (weights task)")
    r.add_argument("--c0", type=float, help="sonic weight prefactor (weights task)")
    r.add_argument("--jobs", type=int, help="parallel workers for sweeps")
    r.add_argument("--out")
    r.set_defaults(func=_cmd_rollwave)

    s = sub.add_parser("simulate", help="damping simulation with decay report")
    s.add_argument("--froude", type=float)
    s.add_argument("--n", type=int, help="grid cells (default 256)")
    s.add_argument("--t-end", dest="t_end", type=float)
    s.add_argument("--xi", type=float, help="Floquet exponent (default 0)")
    s.add_argument("--seed", type=int)
    s.add_argument("--perturb-a0", dest="perturb_a0", type=float,
                   help="synthetic boundary-coefficient inflation factor")
    s.add_argument("--no-deflate", action="store_true",
                   help="skip the slow-family projection before fitting")
    s.add_argument("--out-prefix", dest="out_prefix")
    s.set_defaults(func=_cmd_simulate)

    st = sub.add_parser("stats", help="random ensemble gap statistics")
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--count", type=int)
    st.add_argument("--ensemble", choices=["complex-gaussian", "real-gaussian"])
    st.add_argument("--seed", type=int)
    st.add_argument("--include-counterexample", action="store_true")
    st.add_argument("--out")
    st.set_defaults(func=_cmd_stats)

    ge = sub.add_parser("general", help="boundary layer from mode-data JSON")
    ge.add_argument("--input", required=True)
    ge.add_argument("--sample", action="store_true",
                    help="run the frequency sampling of the dressed matrices")
    ge.add_argument("--k", type=int, help="derivative order for weight descriptors")
    ge.add_argument("--seed", type=int)
    ge.add_argument("--out")
    ge.set_defaults(func=_cmd_general)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    try:
        if args.config:
            config = _read_config(args.config)
        return args.func(args, config)
    except (NoRollWaveError, NoDampingWeightsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONEXISTENT
    except (InvalidInputError, ConfigurationError, StructuralAssumptionError,
            RegularityThresholdError, LopatinskyDegenerateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RollgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
