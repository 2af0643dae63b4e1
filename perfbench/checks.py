"""Checks of the program's outputs, one function per kind of result.

Every check compares against a closed form, an invariance or a second route
computed here with numpy, never against a stored copy of earlier output.
Each function returns a list of problems; an empty list means the result
passed.  ``strict_*`` functions test the self-reported flags and
certificates that three known faults in the program make false on some
inputs; the workloads count those apart from the plain checks (see
README.md, "Failed and flagged operations").
"""

from __future__ import annotations

import numpy as np

NO_GAP_REL = 1e-6
RECOMPUTE_REL = 1e-9
ROOT_PHASE_REL = 1e-6
THETA_PAIR_REL = 0.20
R2_MIN = 0.99
GROWTH_MIN = 10.0
EQUIV_SLACK = 1e-9
RH_MAX = 1e-8
SONIC_REL = 1e-12
ROUTES_ABS = 1e-8
GRID_REL = 1e-6


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def scaled_norm(A, logs):
    """||S A S^-1|| recomputed from the scaling logs."""
    s = np.exp(np.asarray(logs, dtype=float))
    return float(np.linalg.svd(A * (s[:, None] / s[None, :]), compute_uv=False)[0])


def phase_rho(A, angles):
    """rho(U A) recomputed from the phase angles."""
    u = np.exp(1j * np.asarray(angles, dtype=float))
    return float(np.max(np.abs(np.linalg.eigvals(u[:, None] * A))))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def check_gap(A, rep, no_gap):
    """The two terms of a gap report: order, recomputation, and the no-gap
    law on inputs where the theorem closes the gap."""
    out = []
    if not rep.inf_norm >= rep.max_rho * (1.0 - RECOMPUTE_REL):
        out.append(f"inf_norm {rep.inf_norm!r} below max_rho {rep.max_rho!r}")
    norm = scaled_norm(A, rep.argmin_S.logs)
    if _rel(norm, rep.inf_norm) > RECOMPUTE_REL:
        out.append(f"||S B S^-1|| at argmin is {norm!r}, reported {rep.inf_norm!r}")
    rho = phase_rho(A, rep.argmax_U.angles)
    if _rel(rho, rep.max_rho) > RECOMPUTE_REL:
        out.append(f"rho(U B) at argmax is {rho!r}, reported {rep.max_rho!r}")
    if no_gap and not rep.rel_gap <= NO_GAP_REL:
        out.append(f"rel_gap {rep.rel_gap!r} above {NO_GAP_REL} on a no-gap input")
    return out


def check_root_phases(A, logs, cert):
    """A common-root certificate must carry phases with rho(U B_S) = ||B_S||."""
    if cert.kind != "common-root":
        return []
    if cert.phases is None:
        return ["common root without reconstructed phases"]
    s = np.exp(np.asarray(logs, dtype=float))
    BS = A * (s[:, None] / s[None, :])
    norm = float(np.linalg.svd(BS, compute_uv=False)[0])
    rho = phase_rho(BS, cert.phases.angles)
    if _rel(rho, norm) > ROOT_PHASE_REL:
        return [f"root phases give rho(U B_S) = {rho!r}, ||B_S|| = {norm!r}"]
    return []


def strict_flags(rep):
    """Both convergence flags of a gap report must be true."""
    out = []
    if not rep.converged_S:
        out.append("converged_S is false")
    if not rep.converged_U:
        out.append("converged_U is false")
    return out


def strict_no_gap_certificate(cert):
    """At the minimiser of a no-gap input the certificate is a common root."""
    if cert.kind != "common-root":
        return [f"certificate {cert.kind} on a no-gap input, expected common-root"]
    return []


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def check_energy_equivalence(traj):
    """E / H1^2 stays inside the trajectory's equivalence constants."""
    lo, hi = traj.equivalence
    h1sq = traj.H1 ** 2
    ok = h1sq > 0
    ratio = traj.energy[ok] / h1sq[ok]
    if ratio.size and (ratio.min() < lo * (1 - EQUIV_SLACK) or ratio.max() > hi * (1 + EQUIV_SLACK)):
        return [f"E / H1^2 in [{ratio.min()!r}, {ratio.max()!r}] leaves [{lo!r}, {hi!r}]"]
    return []


def check_decay(traj, rep):
    """A deflated run at index < 1 decays exponentially with a clean fit."""
    out = []
    if traj.blew_up:
        out.append("deflated run blew up")
    if not rep.theta_fit > 0:
        out.append(f"theta_fit {rep.theta_fit!r} not positive")
    if not rep.r_squared > R2_MIN:
        out.append(f"r_squared {rep.r_squared!r} not above {R2_MIN}")
    return out + check_energy_equivalence(traj)


def check_theta_pair(theta_a, theta_b):
    """The decay rate converges under grid refinement."""
    if abs(theta_a - theta_b) > THETA_PAIR_REL * max(abs(theta_a), abs(theta_b)):
        return [f"theta {theta_a!r} and {theta_b!r} differ by more than {THETA_PAIR_REL:.0%}"]
    return []


def check_growth(traj):
    """An undeflated run with the index pushed above one grows without blow-up."""
    out = []
    if traj.blew_up:
        out.append(f"inflated run blew up at t = {traj.blowup_time!r}")
    growth = traj.H1[-1] / traj.H1[0]
    if not growth > GROWTH_MIN:
        out.append(f"inflated run grew {growth!r}x, expected more than {GROWTH_MIN}x")
    return out + check_energy_equivalence(traj)


# ---------------------------------------------------------------------------
# roll-wave sweep
# ---------------------------------------------------------------------------


def check_sonic(F, alpha2_prime_xs, gamma2_xs, threshold):
    """At the sonic point alpha_2' = (F-2)/2 and gamma_2 = 0, so the H^s
    threshold is exactly 1/2."""
    out = []
    expected = (F - 2.0) / 2.0
    if _rel(alpha2_prime_xs, expected) > SONIC_REL:
        out.append(f"alpha2'(x_s) = {alpha2_prime_xs!r}, expected {expected!r}")
    if abs(gamma2_xs) > SONIC_REL * abs(alpha2_prime_xs):
        out.append(f"gamma2(x_s) = {gamma2_xs!r}, expected 0")
    if abs(threshold - 0.5) > SONIC_REL:
        out.append(f"H^s threshold {threshold!r}, expected 1/2")
    return out


def check_wave(rh_residual, rep, weights, B, boundary_min_eig, index_fine):
    """Rankine-Hugoniot, and quantities computed by two routes that agree in
    exact arithmetic: C by Cramer and by a solve, eta1 at zero epsilon and
    1 - I^2, the dressed boundary entry and I, the S = Id boundary form and
    1 - I^2, and the index at n_grid and at twice n_grid."""
    out = []
    I = rep.index
    if not rh_residual < RH_MAX:
        out.append(f"Rankine-Hugoniot residual {rh_residual!r}")
    pairs = [
        ("a0 vs a_from_solve", rep.a0, rep.a_from_solve),
        ("eta1_zero vs 1 - I^2", weights.eta1_zero, 1.0 - I * I),
        ("|B11| vs I", abs(float(B[0, 0])), abs(I)),
        ("boundary-form min eig vs 1 - I^2", boundary_min_eig, 1.0 - I * I),
    ]
    for label, a, b in pairs:
        if abs(a - b) > ROUTES_ABS * max(1.0, abs(b)):
            out.append(f"{label}: {a!r} vs {b!r}")
    if _rel(index_fine, I) > GRID_REL:
        out.append(f"index {I!r} moves to {index_fine!r} when n_grid doubles")
    return out
