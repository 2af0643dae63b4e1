"""Inputs, operations and checks of the three benchmark workloads.

A workload builds its inputs from the seed when it is created; that and the
import of the library are the set-up the benchmark times.  ``round(k)``
returns the operations of round k as ``(kind, thunk)`` pairs, each thunk
calling the library's public functions in the order the matching CLI
subcommand calls them.  ``check(k, outputs)`` runs outside the timed part
and returns one ``(problems, flags)`` pair per operation: a non-empty
``problems`` fails the operation; ``flags`` names the self-reports that the
known faults make false (README.md, "Failed and flagged operations").
Every round of a workload holds the same operations, so the share of failed
operations does not depend on the seed or on how many rounds a run makes.
"""

from __future__ import annotations

import numpy as np

import checks
from rollgap import certify, dampsim, genbal, matgap, rollwave

POOL = 512


def gap_and_certify(A):
    """``rollgap gap`` followed by ``rollgap certify`` at the returned argmin."""
    M = matgap.ComplexMatrix(A)
    rep = matgap.gap(M, matgap.GapOptions(seed=0, restarts=64))
    cert = certify.certify_minimizer(M, rep.argmin_S, certify.CertifyOptions(seed=0))
    return rep, cert


def no_gap_verdict(A, out):
    """Checks of a no-gap input.  The flag and certificate self-reports that
    the known faults make false are returned as flags, not problems."""
    rep, cert = out
    problems = checks.check_gap(A, rep, no_gap=True)
    problems += checks.check_root_phases(A, rep.argmin_S.logs, cert)
    return problems, checks.strict_flags(rep) + checks.strict_no_gap_certificate(cert)


class GinibreC3:
    """Complex 3x3 Ginibre matrices, normalised as in ``rollgap stats``."""

    name = "ginibre-c3"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        self.mats = [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
            for _ in range(POOL)
        ]

    def round(self, k):
        A = self.mats[k % POOL]
        return [("c3", lambda: gap_and_certify(A))]

    def check(self, k, outputs):
        return [no_gap_verdict(self.mats[k % POOL], outputs[0])]


FROUDE = 3.0
GRIDS = (64, 128)
T_END = 60.0
INFLATED_N = 128
INFLATED_T_END = 30.0
INFLATED_INDEX = 1.5


def simulate(N, t_end, seed, inflate=False):
    """``rollgap simulate --froude 3``: deflated at a0_factor = 1, or
    undeflated with a0_factor chosen so that index * factor = 1.5."""
    p = rollwave.build_profile(FROUDE)
    cd = rollwave.characteristics(p)
    eps = rollwave.default_epsilon(p, cd)
    c0 = rollwave.default_C0(p, cd, eps)
    w = rollwave.damping_weights(p, cd, eps, c0)
    factor = INFLATED_INDEX / rollwave.stability_index(p, cd).index if inflate else 1.0
    cfg = dampsim.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=t_end,
                            floquet_xi=0.0, a0_factor=factor)
    sim = dampsim.setup(cfg)
    u0 = dampsim.random_initial_data(sim.centers, p.X, seed)
    if inflate:
        traj = dampsim.run(cfg, u0, sim=sim)
    else:
        traj = dampsim.deflated_run(cfg, u0)
    rep = dampsim.measure_decay(
        traj, discard_fraction=0.0 if traj.blew_up else 0.2,
        fit_end_fraction=1.0 if traj.blew_up else 0.7)
    return traj, rep


class DampingF3:
    """Seeded smooth initial data at F = 3: deflated runs at two grid sizes
    and one run with the index inflated above one."""

    name = "damping-f3"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.data_seeds = [int(v) for v in rng.integers(0, 2**31, size=POOL)]

    def round(self, k):
        s = self.data_seeds[k % POOL]
        ops = [(f"deflated-N{N}", lambda N=N: simulate(N, T_END, s)) for N in GRIDS]
        ops.append((f"inflated-N{INFLATED_N}",
                    lambda: simulate(INFLATED_N, INFLATED_T_END, s, inflate=True)))
        return ops

    def check(self, k, outputs):
        (traj_a, rep_a), (traj_b, rep_b), (traj_c, _) = outputs
        pair = checks.check_theta_pair(rep_a.theta_fit, rep_b.theta_fit)
        return [
            (checks.check_decay(traj_a, rep_a) + pair, []),
            (checks.check_decay(traj_b, rep_b) + pair, []),
            (checks.check_growth(traj_c), []),
        ]


F_RANGE = (2.1, 40.0)
AMP_RANGE = (0.05, 0.95)
N_GRID = 800


def wave(F, amp):
    """``rollgap rollwave`` index, threshold and weights tasks on one wave,
    then the general layer on its reduced mode data (``rollgap general
    --k 1``)."""
    p = rollwave.build_profile(F, amplitude=amp, n_grid=N_GRID)
    cd = rollwave.characteristics(p)
    rep = rollwave.stability_index(p, cd)
    thr = rollwave.hs_threshold(p, cd)
    eps = rollwave.default_epsilon(p, cd)
    c0 = rollwave.default_C0(p, cd, eps)
    w = rollwave.damping_weights(p, cd, eps, c0)
    d = genbal.from_sv_profile(p, cd)
    B = genbal.build_B(d)
    gw = genbal.general_weights(d, matgap.DiagonalScaling.identity(d.n - 1), 1)
    return p, cd, rep, thr, w, B, gw


class RollwaveSweep:
    """Waves with log-uniform F in [2.1, 40] and uniform amplitude in
    [0.05, 0.95]."""

    name = "rollwave-sweep"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        lo, hi = np.log(F_RANGE[0]), np.log(F_RANGE[1])
        self.waves = [(float(np.exp(rng.uniform(lo, hi))), float(rng.uniform(*AMP_RANGE)))
                      for _ in range(POOL)]

    def round(self, k):
        F, amp = self.waves[k % POOL]
        return [("wave", lambda: wave(F, amp))]

    def check(self, k, outputs):
        F, amp = self.waves[k % POOL]
        p, cd, rep, thr, w, B, gw = outputs[0]
        fine = rollwave.build_profile(F, amplitude=amp, n_grid=2 * N_GRID)
        index_fine = rollwave.stability_index(fine, rollwave.characteristics(fine)).index
        rh = float(np.max(np.abs(p.rankine_hugoniot_residual())))
        problems = (checks.check_sonic(F, cd.alpha2_prime_xs, cd.gamma2_xs, thr)
                    + checks.check_wave(rh, rep, w, B.B, gw.boundary_form_min_eig,
                                        index_fine))
        return [(problems, [])]


WORKLOADS = {cls.name: cls for cls in (GinibreC3, DampingF3, RollwaveSweep)}
