"""Acceptance suite: one test per criterion, each printed as PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 7 checks the sonic regularity threshold through the exact
identity gamma_2(x_s) = 0 of the Saint-Venant diagonalization: at the sonic
point alpha_2 = 0, so the transport part of M_22 is alpha_2'(x_s) =
(F - 2)/2, and the source part (phi - 2U)/(2h) takes the same value at
h_s = 1.  The threshold ``1/2 - gamma_2(x_s)/alpha_2'(x_s)`` is therefore
exactly 1/2 for every Froude number, and derivative order 1 is the first
order that clears it.
"""

import time

import numpy as np

from rollgap import certify as cf
from rollgap import dampsim as ds
from rollgap import genbal as gb
from rollgap import matgap as mg
from rollgap import rollwave as rw
from rollgap.errors import RegularityThresholdError


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_counterexample_gap():
    t0 = time.monotonic()
    B, _, _ = mg.counterexample_c4()
    rep = mg.gap(B)
    elapsed = time.monotonic() - t0
    conds = {
        "inf_norm=1+-1e-6": abs(rep.inf_norm - 1.0) < 1e-6,
        "argmin=Id(1e-3)": bool(np.max(np.abs(rep.argmin_S.logs)) < 1e-3),
        "max_rho in (0.8,0.95)": 0.8 < rep.max_rho < 0.95,
        "gap>=0.05": rep.gap >= 0.05,
        "runtime<10s": elapsed < 10.0,
    }
    detail = (f"inf={rep.inf_norm:.9f} rho={rep.max_rho:.6f} "
              f"gap={rep.gap:.4f} {elapsed:.1f}s")
    _report(1, "counterexample gap", all(conds.values()),
            detail + "" if all(conds.values()) else detail + f" failed={conds}")


def test_criterion_02_no_gap_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260811)
    results = []
    for n in (2, 3):
        for _ in range(100):
            A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            rep = mg.gap(A / np.sqrt(2 * n))
            results.append((rep.rel_gap, rep.converged_S and rep.converged_U))
    for n in (2, 3, 4, 5):
        for _ in range(50):
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            rep = mg.gap(A)
            results.append((rep.rel_gap, rep.converged_S and rep.converged_U))
    elapsed = time.monotonic() - t0
    rels = np.array([r for r, _ in results])
    convs = np.array([c for _, c in results])
    good = rels < 1e-3
    frac = float(np.mean(good))
    stray = np.sum(~good & convs)  # failures not explained by flags
    conds = {
        "frac>=0.99": frac >= 0.99,
        "failures flagged": stray == 0,
        "runtime<5min": elapsed < 300.0,
    }
    _report(2, "no-gap law", all(conds.values()),
            f"frac={frac:.3f} worst={rels.max():.2e} unflagged={stray} {elapsed:.0f}s")


def test_criterion_03_trace_inequality():
    rng = np.random.default_rng(3)
    worst = np.inf
    for _ in range(10_000):
        S = mg.DiagonalScaling.from_s(np.exp(rng.uniform(-3, 3, 4)))
        worst = min(worst, mg.verify_c4_trace(S))
    at_id = mg.verify_c4_trace(mg.DiagonalScaling.identity(4))
    ok = worst >= 2.0 - 1e-10 and abs(at_id - 2.0) < 1e-14
    _report(3, "trace inequality", ok, f"min={worst:.12f} at_id={at_id}")


def test_criterion_04_landscape_closed_form():
    B, curve = mg.landscape_local_min_2x2()
    th = np.linspace(0.0, 2.0 * np.pi, 721)
    err = float(np.max(np.abs(curve(th) - np.sqrt(2.0 * (1.0 - np.cos(th))))))
    _report(4, "landscape closed form", err < 1e-10, f"max_err={err:.2e}")


def test_criterion_05_certification_dichotomy():
    rng = np.random.default_rng(5)
    undecided = 0
    bad_reverify = 0
    for _ in range(10_000):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        q1 = ((a + a.T) / 2).astype(complex)
        q2 = ((b + b.T) / 2).astype(complex)
        cert = cf.form_certificate([q1, q2])
        if cert.kind == "undecided":
            undecided += 1
        elif cert.kind == "definite-combination":
            combo = cert.coeffs[0] * q1 + cert.coeffs[1] * q2
            if not (np.linalg.eigvalsh(combo)[0] >= cert.min_eig - 1e-12
                    and cert.min_eig > 0):
                bad_reverify += 1
        else:
            v = cert.vector
            res = max(abs(float(np.real(v.conj() @ q @ v))) for q in (q1, q2))
            if not (res <= 1e-7 and abs(np.linalg.norm(v) - 1) < 1e-10):
                bad_reverify += 1
    pauli = mg.pauli_like_forms()
    no_def = cf.form_certificate(pauli).kind == "undecided"
    floor = cf.form_certificate(pauli).diagnostics["root_residual_floor"]
    conds = {
        "zero undecided": undecided == 0,
        "all reverify": bad_reverify == 0,
        "pauli no definite": no_def,
        "pauli floor>0.01": floor > 0.01,
    }
    _report(5, "certification dichotomy", all(conds.values()),
            f"undecided={undecided} bad={bad_reverify} floor={floor:.3f}")


FROUDES = (2.5, 3.0, 5.0, 10.0)


def test_criterion_06_saint_venant_index():
    details = []
    ok = True
    for F in FROUDES:
        t0 = time.monotonic()
        p = rw.build_profile(F)
        cd = rw.characteristics(p)
        rep = rw.stability_index(p, cd)
        eps = rw.default_epsilon(p, cd)
        w = rw.damping_weights(p, cd, eps, 1.0)
        p2 = rw.build_profile(F, n_grid=1600)
        rep2 = rw.stability_index(p2, rw.characteristics(p2))
        elapsed = time.monotonic() - t0
        rh = float(np.max(np.abs(p.rankine_hugoniot_residual())))
        lax = bool(cd.alpha1.max() < 0 and cd.alpha2[0] < 0 < cd.alpha2[-1])
        conds = {
            "rh": rh < 1e-8,
            "lax": lax,
            "index<1": 0 < rep.index < 1,
            "a0=C": abs(rep.a0 - rep.C) < 1e-8,
            "eta1(0)=1-I^2": abs(w.eta1_zero - (1.0 - rep.index**2)) < 1e-8,
            "grid stable": abs(rep.index - rep2.index) / rep2.index < 1e-6,
            "runtime<60s": elapsed < 60.0,
        }
        ok = ok and all(conds.values())
        details.append(f"F={F}: I={rep.index:.6f} ({elapsed:.1f}s)"
                       + ("" if all(conds.values()) else f" failed={conds}"))
    _report(6, "Saint-Venant index", ok, "; ".join(details))


def _general_order_accepted(d, k):
    try:
        gb.general_weights(d, mg.DiagonalScaling.identity(1), k)
    except RegularityThresholdError:
        return False
    return True


def test_criterion_07_hs_threshold():
    # gamma_2(x_s) = alpha_2'(x_s) - (phi - 2U)/(2h) at x_s, and both terms
    # equal (F - 2)/2, so gamma_2(x_s) = 0 and the threshold is exactly 1/2;
    # the identity is checked to rounding, never through the sign of the
    # rounding error, and the slaving order must be gated at k = 1
    t0 = time.monotonic()
    details = []
    ok = True
    for F in FROUDES:
        p = rw.build_profile(F, n_grid=400)
        cd = rw.characteristics(p)
        a2p_exact = (F - 2.0) / 2.0
        a2p = cd.alpha2_prime_xs
        g2 = cd.gamma2_xs
        thr = rw.hs_threshold(p, cd)
        d = gb.from_sv_profile(p, cd)
        conds = {
            "alpha2'=(F-2)/2": abs(a2p - a2p_exact) <= 1e-12 * a2p_exact,
            "gamma2=0": abs(g2) <= 1e-12 * a2p,
            "threshold=1/2": abs(thr - 0.5) <= 1e-12,
            "k=1 solvable": rw.sonic_mode_solvable(0.0, g2, a2p, k=1),
            "k=0 unsolvable": not rw.sonic_mode_solvable(0.0, g2, a2p, k=0),
            "general k=1 accepted": _general_order_accepted(d, 1),
            "general k=0 rejected": not _general_order_accepted(d, 0),
        }
        ok = ok and all(conds.values())
        details.append(f"F={F}: alpha2'={a2p:.15g} gamma2_xs={g2:.2e} "
                       f"threshold={thr:.15g}"
                       + ("" if all(conds.values()) else f" failed={conds}"))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    details.append(f"{elapsed:.1f}s (runtime<5s)")
    _report(7, "H^s threshold", ok, "; ".join(details))


def test_criterion_08_damping_simulation():
    t0 = time.monotonic()
    p = rw.build_profile(3.0)
    cd = rw.characteristics(p)
    eps = rw.default_epsilon(p, cd)
    w = rw.damping_weights(p, cd, eps, 1.0)
    thetas = {}
    fits = {}
    for N in (256, 512, 1024):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=60.0,
                           n_outputs=400)
        sim = ds.setup(cfg)
        u0 = ds.random_initial_data(sim.centers, p.X, seed=20260811)
        traj = ds.deflated_run(cfg, u0)
        rep = ds.measure_decay(traj)
        thetas[N] = rep.theta_fit
        fits[N] = rep.r_squared
    variation = abs(thetas[512] - thetas[1024]) / thetas[1024]
    rep_idx = rw.stability_index(p, cd)
    factor = 1.5 / rep_idx.index
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=256, t_end=20.0,
                       a0_factor=factor)
    simu = ds.setup(cfg)
    u0 = ds.random_initial_data(simu.centers, p.X, seed=20260811)
    grow = ds.run(cfg, u0, sim=simu)
    elapsed = time.monotonic() - t0
    conds = {
        "theta>0": all(v > 0 for v in thetas.values()),
        "r2>0.99": all(v > 0.99 for v in fits.values()),
        "variation<20%": variation < 0.2,
        "inflated grows": grow.energy[-1] > 10.0 * grow.energy[0],
        "runtime<5min": elapsed < 300.0,
    }
    detail = (f"theta={{256:{thetas[256]:.3f},512:{thetas[512]:.3f},"
              f"1024:{thetas[1024]:.3f}}} var={variation:.3%} "
              f"r2min={min(fits.values()):.4f} {elapsed:.0f}s")
    _report(8, "damping simulation", all(conds.values()),
            detail if all(conds.values()) else detail + f" failed={conds}")


def test_criterion_09_general_layer():
    t0 = time.monotonic()
    p = rw.build_profile(3.0)
    cd = rw.characteristics(p)
    rep = rw.stability_index(p, cd)
    d = gb.from_sv_profile(p, cd)
    B = gb.build_B(d)
    sv_ok = abs(abs(B.B[0, 0]) - rep.index) < 1e-8

    rng = np.random.default_rng(9)
    order_ok = True
    gap_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        Bmat = rng.standard_normal((k, k)) / np.sqrt(k)
        sat = gb.hf_sat(Bmat)
        rat = gb.hf_rat(Bmat)
        order_ok = order_ok and (sat - rat >= -1e-8)
        gap_ok = gap_ok and ((sat - rat) / sat < 1e-3)
    elapsed = time.monotonic() - t0
    conds = {"|B|=I": sv_ok, "sat>=rat": order_ok, "rel gap<1e-3": gap_ok}
    _report(9, "general layer consistency", all(conds.values()),
            f"|B|-I={abs(abs(B.B[0,0]) - rep.index):.2e} {elapsed:.0f}s")


def test_criterion_10_block_reduction():
    rng = np.random.default_rng(10)
    worst = 0.0
    for trial in range(100):
        sizes = rng.integers(1, 4, size=int(rng.integers(2, 4)))
        n = int(np.sum(sizes))
        blocks = []
        A = np.zeros((n, n), dtype=complex)
        pos = 0
        for s in sizes:
            blk = (rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))
            blk /= np.sqrt(2 * s)
            A[pos:pos + s, pos:pos + s] = blk
            blocks.append((pos, s, blk))
            pos += s
        if trial % 2 == 1:
            # strictly upper block-triangular couplings stay inert
            pos = 0
            for i, (p0, s0, _) in enumerate(blocks[:-1]):
                p1, s1, _ = blocks[i + 1]
                A[p0:p0 + s0, p1:p1 + s1] = rng.standard_normal((s0, s1))
        rep = mg.gap_reduced(A)
        inf_exh = max(mg.gap(b).inf_norm for _, _, b in blocks)
        rho_exh = max(mg.gap(b).max_rho for _, _, b in blocks)
        worst = max(worst, abs(rep.inf_norm - inf_exh), abs(rep.max_rho - rho_exh))
    _report(10, "block reduction", worst < 1e-8, f"worst={worst:.2e}")
