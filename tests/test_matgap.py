"""Tests for the scaled-norm / phase-radius gap machinery."""

import warnings

import numpy as np
import pytest

from rollgap import matgap as mg
from rollgap.errors import InvalidInputError, PreconditionError


def rand_complex(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def test_op_norm_examples():
    assert mg.op_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert mg.op_norm(np.diag([2.0, 3.0])) == pytest.approx(3.0, abs=1e-14)
    B, _, _ = mg.counterexample_c4()
    assert mg.op_norm(B) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        mg.op_norm([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        mg.op_norm([[np.inf, 0.0], [0.0, 1.0]])


def test_spectral_radius_examples():
    assert mg.spectral_radius([[1, 1], [0, 1]]) == pytest.approx(1.0, abs=1e-12)
    assert mg.spectral_radius([[1, -1], [1, -1]]) == pytest.approx(0.0, abs=1e-8)
    # characteristic polynomial of [[0,4],[1,0]] is l^2 - 4, radius 2
    assert mg.spectral_radius([[0, 4], [1, 0]]) == pytest.approx(2.0, abs=1e-12)


def test_scale_entrywise():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = mg.DiagonalScaling.from_s([1.0, 0.5])
    out = mg.scale(B, S).entries
    s = np.array([1.0, 0.5])
    assert np.allclose(out, B * s[:, None] / s[None, :])
    assert np.allclose(mg.scale(B, mg.DiagonalScaling.identity(2)).entries, B)
    eps = 1e-3
    out2 = mg.scale([[0.0, 1.0], [0.0, 0.0]], mg.DiagonalScaling.from_s([1.0, eps])).entries
    assert out2[0, 1] == pytest.approx(1.0 / eps)


def test_scale_norm_decreases_to_one_for_jordan_block():
    # brute force over a log grid of the free ratio; the off-diagonal entry
    # carries s_1/s_2, so the norm falls to 1 as the ratio shrinks
    B = np.array([[1.0, 1.0], [0.0, 1.0]])
    ts = np.linspace(0.0, 8.0, 30)
    vals = [mg.op_norm(mg.scale(B, mg.DiagonalScaling([0.0, t])).entries) for t in ts]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-3)


def test_phase_apply_rows_and_appendix_example():
    rng = np.random.default_rng(0)
    B = rand_complex(rng, 3)
    U = mg.PhaseVector.from_angles([0.0, 1.0, 2.0])
    out = mg.phase_apply(B, U).entries
    assert np.allclose(out, U.u[:, None] * B)
    flipped = mg.phase_apply([[1, -1], [1, -1]], mg.PhaseVector([0.0, np.pi]))
    assert np.allclose(flipped.entries, [[1, -1], [-1, 1]], atol=1e-12)
    assert mg.spectral_radius(flipped) == pytest.approx(2.0, abs=1e-12)


def test_phase_apply_preserves_norm():
    rng = np.random.default_rng(1)
    for _ in range(5):
        B = rand_complex(rng, 4)
        U = mg.PhaseVector.from_angles(rng.uniform(0, 2 * np.pi, 4))
        assert mg.op_norm(mg.phase_apply(B, U)) == pytest.approx(mg.op_norm(B), abs=1e-12)


def test_type_normalizations():
    with pytest.raises(InvalidInputError):
        mg.DiagonalScaling([1.0, 0.0])
    with pytest.raises(InvalidInputError):
        mg.PhaseVector([0.5, 0.0])
    for bad in ([], 2.0):
        with pytest.raises(InvalidInputError):
            mg.DiagonalScaling.from_s(bad)
    S = mg.DiagonalScaling.from_s([2.0, 4.0])
    assert S.logs[0] == 0.0
    assert S.s[1] / S.s[0] == pytest.approx(2.0)
    U = mg.PhaseVector.from_angles([1.0, 1.5])
    assert U.angles[0] == 0.0
    # global phase does not move the spectral radius
    rng = np.random.default_rng(2)
    B = rand_complex(rng, 3)
    phi = 0.7
    assert mg.spectral_radius(np.exp(1j * phi) * B) == pytest.approx(
        mg.spectral_radius(B), abs=1e-12
    )


# ---------------------------------------------------------------------------
# optimizations
# ---------------------------------------------------------------------------


def test_min_scaled_norm_diagonal_matrix():
    v, S, mult, conv = mg.min_scaled_norm(np.diag([2.0, 3.0]))
    assert v == pytest.approx(3.0, abs=1e-10)
    assert np.allclose(S.logs, 0.0, atol=1e-6)
    assert conv


def test_min_scaled_norm_nilpotent_not_attained():
    v, S, mult, conv = mg.min_scaled_norm([[0.0, 1.0], [0.0, 0.0]])
    assert v < 1e-4
    assert not conv


def test_min_scaled_norm_c4_identity_minimizer():
    B, _, _ = mg.counterexample_c4()
    v, S, mult, conv = mg.min_scaled_norm(B)
    assert v == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(S.logs)) < 1e-6
    assert mult == 2
    assert conv


def test_min_scaled_norm_separation_stop_on_scaled_normal_matrix(monkeypatch):
    # B = D^-1 N D with N normal: S = D gives S B S^-1 = N, whose norm rho(N)
    # is a lower bound for every scaling, so the logs of D minimize; distinct
    # eigenvalue moduli separate the top singular value, and the anneal
    # stops before its last temperature
    minimize = mg.scipy.optimize.minimize
    stages = []

    def counting(*args, **kwargs):
        stages.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(mg.scipy.optimize, "minimize", counting)
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        Q, _ = np.linalg.qr(rand_complex(rng, n))
        lam = np.linspace(1.0, 0.2, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        N = (Q * lam) @ Q.conj().T
        d = np.exp(rng.uniform(-1.0, 1.0, n))
        stages.clear()
        v, S, mult, conv = mg.min_scaled_norm(N * (d[None, :] / d[:, None]))
        assert v == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(S.logs, np.log(d) - np.log(d[0]), atol=1e-6)
        assert mult == 1 and conv
        assert len(stages) < 6


def test_max_phase_rho_identity_matrix():
    v, U, conv = mg.max_phase_rho(np.eye(3))
    assert v == pytest.approx(1.0, abs=1e-10)


def test_max_phase_rho_appendix_matrix():
    v, U, conv = mg.max_phase_rho([[1, -1], [1, -1]])
    assert v == pytest.approx(2.0, abs=1e-8)
    assert U.angles[1] == pytest.approx(np.pi, abs=1e-5)


def test_max_phase_rho_matches_grid_oracle():
    rng = np.random.default_rng(3)
    grid = np.arange(720) * (2 * np.pi / 720)
    for _ in range(5):
        B = rand_complex(rng, 2)
        v, _, _ = mg.max_phase_rho(B)
        oracle = max(
            mg.spectral_radius(np.diag([1.0, np.exp(1j * t)]) @ B) for t in grid
        )
        assert v >= oracle - 1e-3
        assert v >= mg.spectral_radius(B) - 1e-10


def test_phase_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    cases = [rand_complex(rng, n) for n in (2, 3, 4, 5)]
    cases += [rng.standard_normal((n, n)) / np.sqrt(n) for n in (3, 5)]
    for B in cases:
        n = B.shape[0]
        for _ in range(3):
            tf = rng.uniform(0.0, 2.0 * np.pi, n - 1)
            r, g = mg._rho_value_grad(B, tf)

            def rho(t):
                return mg.spectral_radius(np.exp(1j * np.concatenate(([0.0], t)))[:, None] * B)

            assert r == pytest.approx(rho(tf), rel=1e-12)
            fd = np.array([(rho(tf + h * e) - rho(tf - h * e)) / (2 * h) for e in np.eye(n - 1)])
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6 * r)


@pytest.mark.parametrize("B, expected", [
    ([[0.0, 1.0], [0.0, 0.0]], 0.0),
    ([[1.0, 1.0], [0.0, 1.0]], 1.0),
    ([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]], 2.0),
])
def test_max_phase_rho_defective_inputs(B, expected):
    # at U = Id the top eigenvalue is zero or defective: no gradient exists
    # there, it is returned as zero, and the search must neither raise nor
    # produce NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, g = mg._rho_value_grad(np.asarray(B, dtype=complex), np.zeros(len(B) - 1))
        v, U, conv = mg.max_phase_rho(B)
    assert r == expected
    assert np.all(g == 0.0)
    assert v == pytest.approx(expected, abs=1e-12)
    assert np.all(np.isfinite(U.angles))
    assert conv


def test_phase_gradient_zero_at_rounded_defective_eigenvalue():
    # B - I is nonzero and nilpotent, so 1 is a defective double eigenvalue;
    # rounding splits it into a pair with |y^* x| ~ 2e-8, whose gradient would
    # read ~1e7 without the defective floor
    B = np.array([[1 - 0.5j, 0.5j], [-0.5j, 1 + 0.5j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, g = mg._rho_value_grad(B, np.zeros(1))
        v, U, conv = mg.max_phase_rho(B)
    assert r == pytest.approx(1.0, abs=1e-7)
    assert np.all(g == 0.0)
    assert np.isfinite(v) and v >= 1.0


def test_max_phase_rho_converged_on_ginibre_c3():
    rng = np.random.default_rng(1)
    flags = [mg.max_phase_rho(rand_complex(rng, 3))[2] for _ in range(20)]
    assert all(flags)


def test_bounded_phase_search_stops_after_one_ascent_on_ginibre_c3():
    # complex 3x3 matrices have no gap, so the first ascent reaches the
    # scaled-norm bound and the search stops there
    rng = np.random.default_rng(2)
    for _ in range(30):
        B = rand_complex(rng, 3)
        bounded = mg.max_phase_rho(B, bound=mg.min_scaled_norm(B)[0])
        full = mg.max_phase_rho(B, bound=np.inf)
        assert bounded.ascents == 1
        assert full.ascents == mg.GapOptions().restarts
        assert bounded[0] == pytest.approx(full[0], rel=1e-12)
        # with no bound given the search takes min_scaled_norm's value
        assert mg.max_phase_rho(B).ascents == 1


def test_bounded_phase_search_runs_every_ascent_on_c4():
    B, _, _ = mg.counterexample_c4()
    opts = mg.GapOptions()
    bounded = mg.max_phase_rho(B, opts, bound=mg.min_scaled_norm(B, opts)[0])
    full = mg.max_phase_rho(B, opts, bound=np.inf)
    assert bounded.ascents == full.ascents == opts.restarts
    assert bounded[0] == full[0]
    assert np.array_equal(bounded[1].angles, full[1].angles)
    assert bounded[2] == full[2]


def test_phase_search_bound_reached_at_identity_runs_no_ascent():
    # a normal matrix has rho(B) = ||B||, so U = Id already meets the bound
    v, U, conv = phase = mg.max_phase_rho(np.diag([1.0, -2.0, 0.5]))
    assert phase.ascents == 0
    assert v == pytest.approx(2.0, abs=1e-14)
    assert np.all(U.angles == 0.0) and conv


def test_gap_restarts_used_counts_ascents_run():
    # the singular-pair phases answer a complex 3x3 matrix with no ascent
    rng = np.random.default_rng(1)
    assert mg.gap(rand_complex(rng, 3)).restarts_used == 0
    B, _, _ = mg.counterexample_c4()
    opts = mg.GapOptions(restarts=16)
    assert mg.gap(B, opts).restarts_used == 16
    assert mg.gap([[2.0]]).restarts_used == 0


def test_gap_singular_pair_phases_reach_phase_maximum():
    # at a simple top singular value of the minimizing B_S the phases with
    # U B_S v = ||B_S|| v attain the maximum, which no ascent improves on
    rng = np.random.default_rng(21)
    complex_reps = [(B, mg.gap(B)) for B in (rand_complex(rng, 3) for _ in range(20))]
    real_reps = [(B, mg.gap(B)) for B in (rng.standard_normal((4, 4)) / 2.0 for _ in range(8))]
    assert all(rep.top_multiplicity == 1 for _, rep in complex_reps)
    real_reps = [(B, rep) for B, rep in real_reps if rep.top_multiplicity == 1]
    assert len(real_reps) >= 3
    for B, rep in complex_reps + real_reps:
        assert rep.restarts_used == 0 and rep.converged_U
        assert rep.max_rho >= mg.max_phase_rho(B, bound=np.inf)[0] * (1.0 - mg.BOUND_RTOL)


def test_gap_falls_back_to_phase_search_when_singular_pair_misses(monkeypatch):
    rng = np.random.default_rng(1)
    B = rand_complex(rng, 3)
    opts = mg.GapOptions()
    expected = mg.max_phase_rho(B, opts, bound=mg.min_scaled_norm(B, opts)[0])
    monkeypatch.setattr(mg, "_reconstruct_phases",
                        lambda BS, r, norm: mg.PhaseVector.identity(len(r)))
    rep = mg.gap(B, opts)
    assert rep.restarts_used == expected.ascents >= 1
    assert rep.max_rho == expected[0]
    assert np.array_equal(rep.argmax_U.angles, expected[1].angles)
    assert rep.converged_U == expected[2]


def test_gap_reports_phase_search_at_multiple_top_singular_value():
    # c4 has a gap, and a real m = 2 minimizer's top singular vector is no
    # common root: both take max_phase_rho's report as it stands
    rng = np.random.default_rng(13)
    real = next(A for A in (rng.standard_normal((3, 3)) / np.sqrt(3) for _ in range(60))
                if mg.min_scaled_norm(A)[2] == 2)
    opts = mg.GapOptions(restarts=16)
    for B in (mg.counterexample_c4()[0], real):
        rep = mg.gap(B, opts)
        phase = mg.max_phase_rho(B, opts, bound=rep.inf_norm)
        assert rep.top_multiplicity == 2
        assert rep.restarts_used == phase.ascents >= 1
        assert rep.max_rho == phase[0]
        assert np.array_equal(rep.argmax_U.angles, phase[1].angles)
        assert rep.converged_U == phase[2]


def test_gap_normal_matrix_zero():
    rng = np.random.default_rng(4)
    # unitary conjugate of a complex diagonal is normal, so norm equals radius
    Q, _ = np.linalg.qr(rand_complex(rng, 3))
    D = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    rep = mg.gap(Q @ D @ Q.conj().T)
    assert abs(rep.gap) < 1e-8


def test_gap_random_3x3_small():
    rng = np.random.default_rng(5)
    rep = mg.gap(rand_complex(rng, 3))
    assert rep.rel_gap < 1e-3
    assert rep.gap >= -1e-8


def test_gap_c4_counterexample():
    B, _, _ = mg.counterexample_c4()
    rep = mg.gap(B)
    assert rep.inf_norm == pytest.approx(1.0, abs=1e-6)
    assert 0.8 < rep.max_rho < 0.95
    assert rep.gap == pytest.approx(0.1, abs=0.02)


def test_lemma_identities_random():
    # rho(U S B S^-1) = rho(U B) and ||S U B S^-1|| = ||S B S^-1||
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        B = rand_complex(rng, n)
        S = mg.DiagonalScaling.from_s(np.exp(rng.uniform(-1, 1, n)))
        U = mg.PhaseVector.from_angles(rng.uniform(0, 2 * np.pi, n))
        lhs = mg.spectral_radius(mg.phase_apply(mg.scale(B, S), U))
        rhs = mg.spectral_radius(mg.phase_apply(B, U))
        assert abs(lhs - rhs) < 1e-10
        lhs2 = mg.op_norm(mg.scale(mg.phase_apply(B, U), S))
        rhs2 = mg.op_norm(mg.scale(B, S))
        assert abs(lhs2 - rhs2) < 1e-10


def test_scaling_objective_depends_on_ratios_only():
    rng = np.random.default_rng(7)
    B = rand_complex(rng, 4)
    s = np.exp(rng.uniform(-1, 1, 4))
    v1 = mg.op_norm(mg.ComplexMatrix(B * (s[:, None] / s[None, :])))
    s2 = 7.3 * s
    v2 = mg.op_norm(mg.ComplexMatrix(B * (s2[:, None] / s2[None, :])))
    assert abs(v1 - v2) < 1e-12


def test_feasible_point_bounds():
    rng = np.random.default_rng(8)
    for _ in range(5):
        B = rand_complex(rng, 3)
        v_min, _, _, _ = mg.min_scaled_norm(B)
        v_max, _, _ = mg.max_phase_rho(B)
        assert v_min <= mg.op_norm(B) + 1e-10
        assert v_max >= mg.spectral_radius(B) - 1e-10


def test_stationarity_at_reported_minimizer():
    rng = np.random.default_rng(9)
    for _ in range(5):
        B = rand_complex(rng, 3)
        v, S, mult, conv = mg.min_scaled_norm(B)
        if mult != 1 or not conv:
            continue
        BS = mg.scale(B, S).entries
        _, sv, Vh = np.linalg.svd(BS)
        r = Vh[0].conj()
        res = np.max(np.abs(np.abs(BS @ r) ** 2 - sv[0] ** 2 * np.abs(r) ** 2))
        assert res < 1e-8 * sv[0] ** 2


def test_dual_stationarity_scalar_cluster():
    # at m = 1 the test is max_j |Q_j| <= 1e-6 mu, relative to mu only
    for mu in (1.0, 1e-6):
        assert mg.dual_stationarity([np.array([[0.9e-6 * mu]]), np.array([[-0.9e-6 * mu]])], mu)[0]
        assert not mg.dual_stationarity([np.array([[2e-6 * mu]]), np.array([[-2e-6 * mu]])], mu)[0]


def test_dual_stationarity_c4_identity():
    B, _, _ = mg.counterexample_c4()
    V, forms = mg.top_cluster_forms(B.entries)
    ok, X = mg.dual_stationarity(forms, 1.0)
    assert V.shape[1] == 2 and ok
    assert np.max(np.abs(X - np.eye(2) / 2)) < 1e-10


def test_dual_stationarity_definite_form_fails():
    # a positive definite form annihilates no PSD X
    assert not mg.dual_stationarity([np.eye(2, dtype=complex), -np.eye(2, dtype=complex)], 1.0)[0]


def test_min_scaled_norm_converged_at_double_top_real_3x3():
    rng = np.random.default_rng(13)
    doubles = 0
    for _ in range(60):
        _, _, mult, conv = mg.min_scaled_norm(rng.standard_normal((3, 3)) / np.sqrt(3))
        if mult == 2:
            doubles += 1
            assert conv
    assert doubles >= 5


# ---------------------------------------------------------------------------
# graph reduction
# ---------------------------------------------------------------------------


def test_reduce_graph_full_matrix():
    rng = np.random.default_rng(10)
    bs = mg.reduce_graph(rand_complex(rng, 4))
    assert bs.is_irreducible
    assert bs.node_partition == [[0, 1, 2, 3]]


def test_reduce_graph_block_diagonal():
    A = np.zeros((4, 4))
    A[:2, :2] = 1.0
    A[2:, 2:] = 1.0
    bs = mg.reduce_graph(A)
    assert bs.component_blocks == [[0, 1], [2, 3]]
    assert not bs.is_irreducible


def test_reduce_graph_nilpotent_tree():
    bs = mg.reduce_graph([[0.0, 1.0], [0.0, 0.0]])
    assert bs.node_partition == [[0], [1]]
    assert bs.component_blocks == [[0, 1]]
    assert not bs.is_irreducible


def test_gap_reduced_block_diagonal_matches_blocks():
    rng = np.random.default_rng(11)
    B1 = rand_complex(rng, 2)
    B2 = rand_complex(rng, 3)
    A = np.zeros((5, 5), dtype=complex)
    A[:2, :2] = B1
    A[2:, 2:] = B2
    rep = mg.gap_reduced(A)
    r1 = mg.gap(B1)
    r2 = mg.gap(B2)
    assert rep.inf_norm == pytest.approx(max(r1.inf_norm, r2.inf_norm), abs=1e-8)
    assert rep.max_rho == pytest.approx(max(r1.max_rho, r2.max_rho), abs=1e-8)


def test_gap_reduced_triangular_is_diagonal_case():
    rep = mg.gap_reduced([[2.0, 11.0], [0.0, 3.0]])
    assert rep.inf_norm == pytest.approx(3.0, abs=1e-10)
    assert rep.max_rho == pytest.approx(3.0, abs=1e-10)
    assert abs(rep.gap) < 1e-10


def test_gap_reduced_irreducible_same_as_gap():
    rng = np.random.default_rng(12)
    B = rand_complex(rng, 3)
    assert mg.gap_reduced(B).inf_norm == pytest.approx(mg.gap(B).inf_norm, abs=1e-12)


# ---------------------------------------------------------------------------
# explicit examples
# ---------------------------------------------------------------------------


def test_counterexample_c4_construction():
    B, R, L = mg.counterexample_c4()
    assert np.max(np.abs(R.conj().T @ R - np.eye(2))) < 1e-15
    assert np.max(np.abs(L.conj().T @ L - np.eye(2))) < 1e-15
    ev = np.sort(np.linalg.eigvalsh(B.entries.conj().T @ B.entries))
    assert np.allclose(ev, [0, 0, 1, 1], atol=1e-12)
    assert mg.op_norm(B) == pytest.approx(1.0, abs=1e-12)


def test_c4_trace_identity_and_bound():
    assert mg.verify_c4_trace(mg.DiagonalScaling.identity(4)) == pytest.approx(2.0, abs=1e-14)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        S = mg.DiagonalScaling.from_s(np.exp(rng.uniform(-3, 3, 4)))
        assert mg.verify_c4_trace(S) >= 2.0 - 1e-10


def test_c4_trace_matches_direct_product():
    _, R, L = mg.counterexample_c4()
    rng = np.random.default_rng(14)
    for _ in range(50):
        s = np.exp(rng.uniform(-2, 2, 4))
        s[3] = 1.0
        Smat = np.diag(s)
        LS = Smat @ L
        RS = np.linalg.inv(Smat) @ R
        direct = float(np.trace((LS.conj().T @ LS) @ (RS.conj().T @ RS)).real)
        closed = mg.c4_trace_closed_form(s[0], s[1], s[2])
        assert abs(direct - closed) < 1e-12


def test_candidate_r6():
    B = mg.candidate_r6()
    assert B.entries[0, 0].real == pytest.approx(0.14753503)
    assert B.is_real
    rep = mg.gap_reduced(B)  # reported, no asserted sign
    assert np.isfinite(rep.gap)


def test_landscape_local_min_curve():
    B, curve = mg.landscape_local_min_2x2()
    assert curve(0.0) == pytest.approx(0.0, abs=1e-12)
    assert curve(np.pi) == pytest.approx(2.0, abs=1e-12)
    assert curve(np.pi / 2) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    th = np.linspace(0, 2 * np.pi, 721)
    assert np.max(np.abs(curve(th) - np.sqrt(2 * (1 - np.cos(th))))) < 1e-10


def test_block_local_max_properties():
    Btilde, _ = mg.landscape_local_min_2x2()
    Br = mg.block_local_max(Btilde, 1.0)
    assert mg.spectral_radius(Br) == pytest.approx(1.0, abs=1e-12)
    v, _, _ = mg.max_phase_rho(Br)
    assert v == pytest.approx(2.0, abs=1e-6)
    # local grid scan: small phase perturbations at theta_1 = 0 stay below r
    rng = np.random.default_rng(15)
    for _ in range(200):
        th = np.concatenate(([0.0], rng.uniform(-0.05, 0.05, 2)))
        rho = mg.spectral_radius(np.exp(1j * th)[:, None] * Br.entries)
        assert rho <= 1.0 + 1e-9


def test_block_local_max_precondition():
    Btilde, _ = mg.landscape_local_min_2x2()
    with pytest.raises(PreconditionError):
        mg.block_local_max(Btilde, 3.0)
    # shifted variant has rho = 0.5, so r below it must be rejected
    shifted = Btilde.entries + 0.5 * np.eye(2)
    assert mg.spectral_radius(shifted) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(PreconditionError):
        mg.block_local_max(shifted, 0.3)


def test_block_local_max_r_near_global():
    Btilde, _ = mg.landscape_local_min_2x2()
    Br = mg.block_local_max(Btilde, 1.95)
    v, _, _ = mg.max_phase_rho(Br)
    assert v == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------


def test_random_gap_stats_deterministic():
    a = mg.random_gap_stats(2, 5, "complex-gaussian", seed=42)
    b = mg.random_gap_stats(2, 5, "complex-gaussian", seed=42)
    assert a == b


def test_random_gap_stats_small_dims_no_gap():
    out = mg.random_gap_stats(2, 20, "complex-gaussian", seed=1)
    assert out["max_rel_gap"] < 1e-3
    out = mg.random_gap_stats(3, 10, "real-gaussian", seed=2)
    assert out["max_rel_gap"] < 1e-3


def test_random_gap_stats_counterexample_injection():
    out = mg.random_gap_stats(4, 3, "complex-gaussian", seed=3, include_counterexample=True)
    assert out["count"] == 4
    assert out["max_rel_gap"] > 0.05
