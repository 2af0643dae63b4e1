"""Each benchmark check rejects a deliberately wrong result and accepts a
right one, and the per-layer metric list matches BENCHMARK.json."""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads
from rollgap import certify, matgap, rollwave
from rollgap.rollwave import SVCharacteristicFields

ROOT = Path(__file__).resolve().parent.parent


def report(A, inf_norm, logs, max_rho, angles, converged=(True, True)):
    g = inf_norm - max_rho
    return matgap.GapReport(
        inf_norm=inf_norm, argmin_S=matgap.DiagonalScaling(logs), max_rho=max_rho,
        argmax_U=matgap.PhaseVector(angles), gap=g, rel_gap=g / inf_norm,
        top_multiplicity=1, converged_S=converged[0], converged_U=converged[1],
        restarts_used=0)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

# rank one, rho(B) = 0 at U = Id, max_U rho(U B) = 2 = inf_S ||S B S^-1||
LANDSCAPE = np.array([[1.0, -1.0], [1.0, -1.0]])


def test_gap_check_accepts_the_library_result():
    rep, cert = workloads.gap_and_certify(LANDSCAPE)
    assert checks.check_gap(LANDSCAPE, rep, no_gap=True) == []
    assert checks.check_root_phases(LANDSCAPE, rep.argmin_S.logs, cert) == []
    assert checks.strict_flags(rep) == []
    assert checks.strict_no_gap_certificate(cert) == []


def test_phase_maximum_at_identity_fails():
    # the identity is a feasible phase, but on this matrix a local minimum
    rep = report(LANDSCAPE, 2.0, [0.0, 0.0], 0.0, [0.0, 0.0])
    assert any("rel_gap" in p for p in checks.check_gap(LANDSCAPE, rep, no_gap=True))


def test_reported_value_not_attained_at_argmax_fails():
    rep = report(LANDSCAPE, 2.0, [0.0, 0.0], 2.0, [0.0, 0.0])
    assert any("rho(U B)" in p for p in checks.check_gap(LANDSCAPE, rep, no_gap=True))


def test_norm_not_attained_at_argmin_fails():
    rep = report(LANDSCAPE, 2.0, [0.0, 1.0], 2.0, [0.0, np.pi])
    assert any("||S B S^-1||" in p for p in checks.check_gap(LANDSCAPE, rep, no_gap=True))


def test_norm_below_radius_fails():
    A = np.diag([1.0, 0.5])
    rep = report(A, 0.9, [0.0, 0.0], 1.0, [0.0, 0.0])
    assert any("below max_rho" in p for p in checks.check_gap(A, rep, no_gap=False))


def test_fake_common_root_fails():
    fake = certify.CommonRoot(vector=np.array([1.0 + 0j, 0.0]), residual=0.0,
                              phases=matgap.PhaseVector([0.0, 0.0]))
    assert checks.check_root_phases(LANDSCAPE, [0.0, 0.0], fake) != []
    bare = certify.CommonRoot(vector=np.array([1.0 + 0j, 0.0]), residual=0.0)
    assert checks.check_root_phases(LANDSCAPE, [0.0, 0.0], bare) != []


def test_self_reports_flag_faults():
    rep = report(LANDSCAPE, 2.0, [0.0, 0.0], 2.0, [0.0, np.pi], converged=(False, False))
    assert len(checks.strict_flags(rep)) == 2
    definite = certify.DefiniteCombination(coeffs=np.array([1.0, -1.0]), min_eig=0.1)
    assert checks.strict_no_gap_certificate(definite) != []


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def trajectory(energy, H1, equivalence=(0.5, 2.0), blew_up=False):
    t = np.linspace(0.0, 60.0, energy.size)
    weights = types.SimpleNamespace(eta1=0.5, epsilon=0.1)
    return types.SimpleNamespace(
        times=t, energy=energy, H1=H1, L2=H1, y=np.zeros(t.size), blew_up=blew_up,
        blowup_time=None, equivalence=equivalence, deflation_rank=3,
        config=types.SimpleNamespace(weights=weights))


def test_decaying_energy_passes():
    from rollgap import dampsim
    t = np.linspace(0.0, 60.0, 401)
    traj = trajectory(np.exp(-t), np.exp(-t / 2))
    rep = dampsim.measure_decay(traj)
    assert checks.check_decay(traj, rep) == []


def test_non_decaying_energy_fails():
    from rollgap import dampsim
    traj = trajectory(np.ones(401), np.ones(401))
    rep = dampsim.measure_decay(traj)
    assert any("theta_fit" in p for p in checks.check_decay(traj, rep))


def test_energy_outside_equivalence_fails():
    t = np.linspace(0.0, 60.0, 401)
    traj = trajectory(3.0 * np.exp(-t), np.exp(-t / 2))
    assert checks.check_energy_equivalence(traj) != []


def test_theta_pair_and_growth():
    assert checks.check_theta_pair(1.0, 1.1) == []
    assert checks.check_theta_pair(1.0, 1.3) != []
    t = np.linspace(0.0, 20.0, 401)
    assert checks.check_growth(trajectory(np.exp(t), np.exp(t / 2))) == []
    assert checks.check_growth(trajectory(np.ones(401), np.ones(401))) != []
    blown = trajectory(np.exp(t), np.exp(t / 2), blew_up=True)
    assert any("blew up" in p for p in checks.check_growth(blown))


# ---------------------------------------------------------------------------
# roll-wave sweep
# ---------------------------------------------------------------------------


def sweep_problems(F, amp):
    wl = types.SimpleNamespace(waves=[(F, amp)])
    out = workloads.wave(F, amp)
    return workloads.RollwaveSweep.check(wl, 0, [out])[0][0]


def test_sweep_checks_accept_the_library_result():
    assert sweep_problems(3.0, 0.5) == []


def test_sonic_entry_minus_u_fails(monkeypatch):
    """The source entry E[1,1] = -U in place of -2U shifts every coupling
    entry by -T^-1 A0^-1 [[0, 0], [U, U]], so gamma_2(x_s) = -1/2."""
    original = SVCharacteristicFields.coupling_matrix

    def mutated(self, x):
        M = original(self, x)
        h = np.atleast_1d(np.asarray(self.profile.h_of_x(x), dtype=float))
        U = self._c - self._q / h
        return M - (0.5 * U / h)[..., None, None] * np.ones((2, 2))

    monkeypatch.setattr(SVCharacteristicFields, "coupling_matrix", mutated)
    p = rollwave.build_profile(3.0)
    cd = rollwave.characteristics(p)
    assert abs(cd.gamma2_xs + 0.5) < 1e-9
    problems = checks.check_sonic(3.0, cd.alpha2_prime_xs, cd.gamma2_xs,
                                  rollwave.hs_threshold(p, cd))
    assert any("gamma2" in q for q in problems)
    assert any("threshold" in q for q in problems)


def test_two_route_disagreements_fail():
    p, cd, rep, thr, w, B, gw = workloads.wave(3.0, 0.5)
    I = rep.index
    args = dict(rh_residual=0.0, rep=rep, weights=w, B=B.B,
                boundary_min_eig=gw.boundary_form_min_eig, index_fine=I)
    assert checks.check_wave(**args) == []
    assert checks.check_wave(**{**args, "rh_residual": 1e-6}) != []
    assert checks.check_wave(**{**args, "index_fine": I * (1 + 1e-5)}) != []
    assert checks.check_wave(**{**args, "boundary_min_eig": 1.0}) != []
    assert checks.check_wave(**{**args, "B": 2.0 * B.B}) != []
    bad_rep = types.SimpleNamespace(index=I, a0=rep.a0, a_from_solve=rep.a0 + 1e-6)
    assert checks.check_wave(**{**args, "rep": bad_rep}) != []


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_traced_spans_account_for_the_operation():
    modules = {"rollwave": rollwave}
    original = rollwave.stability_index
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        tracer.run_op("wave", lambda: workloads.wave(3.0, 0.5))
    finally:
        tracer.uninstall()
    assert rollwave.stability_index is original
    metrics = tracer.per_layer()
    assert metrics["trace.layer_share"] == pytest.approx(1.0, abs=0.05)
    assert metrics["rollwave.stability_index.calls"] >= 1


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["per_layer"] == spans.PER_LAYER
