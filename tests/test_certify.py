"""Tests for the variational certification layer."""

import numpy as np
import pytest

from rollgap import certify as cf
from rollgap import matgap as mg
from rollgap.errors import InvalidInputError


def rand_complex(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def rand_sym(rng):
    a = rng.standard_normal((2, 2))
    return (a + a.T) / 2


def rand_herm(rng, field):
    a = rng.standard_normal((2, 2))
    if field == "complex":
        a = a + 1j * rng.standard_normal((2, 2))
    return (a + a.conj().T) / 2


def form_value(q, v):
    return float(np.real(v.conj() @ q @ v))


def criterion2_ensemble():
    """The 400 matrices of acceptance criterion 2, in its order."""
    rng = np.random.default_rng(20260811)
    for n in (2, 3):
        for _ in range(100):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            yield A / np.sqrt(2 * n)
    for n in (2, 3, 4, 5):
        for _ in range(50):
            yield rng.standard_normal((n, n)) / np.sqrt(n)


def sampled_least_residual(forms, seed=8, count=20_000):
    """Smallest max-residual ``max_j |v^* Q_j v|`` over random complex unit
    vectors: an upper bound on the least one, so never below a floor."""
    m = forms[0].shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
    v /= np.linalg.norm(v, axis=1)[:, None]
    values = np.einsum("pk,jkl,pl->pj", v.conj(), np.array(forms), v).real
    return float(np.min(np.max(np.abs(values), axis=1)))


def parseval_frame(rng, n, m, field):
    """An n x m equal-norm Parseval frame (orthonormal columns, every row of
    squared norm m/n), by alternating the polar factor with row
    normalization from a Gaussian start."""
    a = rng.standard_normal((n, m))
    if field == "complex":
        a = a + 1j * rng.standard_normal((n, m))
    for _ in range(5000):
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        a = u @ vh
        rows = np.linalg.norm(a, axis=1)
        if np.max(np.abs(rows * rows - m / n)) < 1e-14:
            return a
        a = a * (np.sqrt(m / n) / rows)[:, None]
    raise AssertionError("frame iteration did not converge")


def frame_matrix(seed, n, m, field):
    """B = W V^* from two equal-norm Parseval frames.  B^* B = V V^*, so S = I
    is a minimizer of the scaled norm (value 1) with an m-dimensional top
    cluster, range(V), and traceless forms 2 (w_j w_j^* - v_j v_j^*)."""
    rng = np.random.default_rng(seed)
    V = parseval_frame(rng, n, m, field)
    W = parseval_frame(rng, n, m, field)
    return W @ V.conj().T


@pytest.fixture
def optimizer_calls(monkeypatch):
    """Calls of the ``scipy.optimize`` solvers made while the test runs."""
    calls = []
    for name in ("minimize", "minimize_scalar", "least_squares"):
        fn = getattr(cf.scipy.optimize, name)
        monkeypatch.setattr(cf.scipy.optimize, name,
                            lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k))
    return calls


# ---------------------------------------------------------------------------
# variational forms
# ---------------------------------------------------------------------------


def test_variational_forms_c4_span_matches_reference():
    B, R, L = mg.counterexample_c4()
    F = cf.variational_forms(B, mg.DiagonalScaling.identity(4))
    assert F.m == 2
    # forms sum to zero on an exact top cluster
    assert np.max(np.abs(sum(F.forms))) < 1e-10
    # reference forms in the basis given by the columns of R:
    # entry (k, l) is 2 (conj(L_jk) L_jl - conj(R_jk) R_jl)
    ref = [
        np.array(
            [[2 * (np.conj(L[j, k]) * L[j, l] - np.conj(R[j, k]) * R[j, l])
              for l in range(2)] for k in range(2)]
        )
        for j in range(4)
    ]
    # the first three reference forms are proportional to the Pauli-like trio
    pauli = mg.pauli_like_forms()
    for q, p in zip(ref[:3], pauli):
        ratios = q[np.abs(p) > 0] / p[np.abs(p) > 0]
        assert np.allclose(ratios, ratios[0], atol=1e-12)
    assert np.allclose(ref[3], -(ref[0] + ref[1] + ref[2]), atol=1e-12)
    # our basis V differs from R by a unitary W; undo it and compare spans
    W = R.conj().T @ F.basis
    assert np.max(np.abs(W.conj().T @ W - np.eye(2))) < 1e-10
    back = [W @ q @ W.conj().T for q in F.forms]
    # each mapped form must lie in the real span of the reference forms
    basis_vecs = np.array(
        [np.concatenate([q.real.ravel(), q.imag.ravel()]) for q in ref[:3]]
    ).T
    for q in back:
        vec = np.concatenate([q.real.ravel(), q.imag.ravel()])
        coef, res, _, _ = np.linalg.lstsq(basis_vecs, vec, rcond=None)
        proj = basis_vecs @ coef
        assert np.linalg.norm(vec - proj) < 1e-10


def test_variational_forms_diagonal_matrix_scalar():
    F = cf.variational_forms(np.diag([3.0, 2.0, 1.0]), mg.DiagonalScaling.identity(3))
    assert F.m == 1
    assert all(q.shape == (1, 1) for q in F.forms)
    assert abs(sum(float(q[0, 0].real) for q in F.forms)) < 1e-10


def test_variational_forms_sum_zero_generic():
    rng = np.random.default_rng(0)
    B = rand_complex(rng, 3)
    v, S, mult, conv = mg.min_scaled_norm(B)
    F = cf.variational_forms(B, S)
    assert np.max(np.abs(sum(F.forms))) < 1e-8


# ---------------------------------------------------------------------------
# definite combinations
# ---------------------------------------------------------------------------


def test_definite_combination_identity_form():
    cert = cf.form_certificate([np.eye(2, dtype=complex)])
    assert cert.kind == "definite-combination"
    assert cert.min_eig == pytest.approx(1.0, abs=1e-6)


def test_definite_combination_pauli_none():
    assert cf.form_certificate(mg.pauli_like_forms()).kind == "undecided"


def test_definite_combination_second_form_works():
    forms = [np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex)]
    cert = cf.form_certificate(forms)
    assert cert.kind == "definite-combination"
    combo = cert.coeffs[0] * forms[0] + cert.coeffs[1] * forms[1]
    assert np.linalg.eigvalsh(combo)[0] >= cert.min_eig - 1e-12
    assert cert.min_eig > 0


def case1_form_sets(count, seed=1):
    """Seeded random form sets (m = 3, 4; one to five forms; real and
    complex) that the least-squares dual solve leaves open: its residual is
    consistent, ``X_0 = I/m + Y_0`` is not PSD, and the closed-form
    combination, definite exactly when ``lambda_max(Y_0) < |y|^2``, is not.
    Yields ``(forms, scale)`` with scale the largest form norm."""
    rng = np.random.default_rng(seed)
    found = 0
    while found < count:
        m = int(rng.integers(3, 5))
        count_forms = int(rng.integers(1, 6))
        complex_forms = bool(rng.integers(0, 2))
        forms = []
        for _ in range(count_forms):
            a = rng.standard_normal((m, m))
            if complex_forms:
                a = a + 1j * rng.standard_normal((m, m))
            forms.append((a + a.conj().T) / 2 + rng.standard_normal() * np.eye(m))
        scale = max(np.linalg.norm(q, 2) for q in forms)
        s = mg.dual_stationarity(forms, scale)
        Y0 = np.einsum("i,ikl->kl", s.y, s.basis)
        if (np.max(np.abs(s.residual)) <= mg.STATIONARY_RTOL * scale
                and np.linalg.eigvalsh(np.eye(m) / m + Y0)[0] < -mg.STATIONARY_RTOL
                and np.linalg.eigvalsh(Y0)[-1] >= s.y @ s.y):
            found += 1
            yield forms, scale


def test_case1_definite_without_search(optimizer_calls):
    # the fourth open set (five real forms on C^4) ends with a definite
    # combination: no optimizer runs, and the combination re-verifies
    forms, _ = list(case1_form_sets(4))[3]
    cert = cf.form_certificate(forms)
    assert not optimizer_calls
    assert cert.kind == "definite-combination"
    combo = np.einsum("j,jkl->kl", cert.coeffs, np.array(forms))
    assert 0 < cert.min_eig <= np.linalg.eigvalsh(combo)[0] + 1e-12


def test_case1_feasible_is_stationary():
    # X_0 is not PSD, yet the projected-gradient solve finds an annihilated
    # trace-one X >= 0
    forms, scale = next(case1_form_sets(1))
    stationary, X = mg.dual_stationarity(forms, scale)
    assert stationary
    assert np.linalg.eigvalsh(X)[0] >= -1e-12
    assert abs(np.trace(X) - 1.0) < 1e-12
    values = np.einsum("jkl,lk->j", np.array(forms), X).real
    assert np.max(np.abs(values)) <= mg.STATIONARY_RTOL * scale


def test_spectraplex_solve_cap_is_undecided(monkeypatch):
    # one iteration decides none of the first open sets, which certify then
    # reports with the residual of the last iterate
    monkeypatch.setattr(mg, "SPECTRAPLEX_MAX_ITER", 1)
    for forms, scale in case1_form_sets(3):
        cert = cf.form_certificate(forms)
        assert cert.kind == "undecided"
        assert cert.diagnostics["dual_residual"] > cf.CertifyOptions().pd_tol * scale


def test_case1_oracle():
    # every open set decides; each combination re-verifies, each stationary
    # X is an annihilated trace-one X >= 0, and then no sampled unit
    # combination is positive definite
    rng = np.random.default_rng(3)
    kinds = {"stationary": 0, "definite": 0}
    for forms, scale in case1_form_sets(100):
        Q = np.array(forms)
        s = mg.dual_stationarity(Q, scale)
        stationary, X = s
        if stationary:
            kinds["stationary"] += 1
            assert s.combination is None
            assert np.linalg.eigvalsh(X)[0] >= -1e-12 and abs(np.trace(X) - 1.0) < 1e-12
            values = np.einsum("jkl,lk->j", Q, X).real
            assert np.max(np.abs(values)) <= mg.STATIONARY_RTOL * scale
            c = rng.standard_normal((500, len(Q)))
            c /= np.linalg.norm(c, axis=1)[:, None]
            assert np.max(np.linalg.eigvalsh(np.einsum("pj,jkl->pkl", c, Q))[:, 0]) <= 0
        else:
            kinds["definite"] += 1
            c, min_eig = s.combination
            assert abs(np.linalg.norm(c) - 1.0) < 1e-12
            assert 0 < min_eig <= np.linalg.eigvalsh(np.einsum("j,jkl->kl", c, Q))[0] + 1e-12
    assert min(kinds.values()) > 0


# ---------------------------------------------------------------------------
# constructive 2x2 roots
# ---------------------------------------------------------------------------


def pair_root(q1, q2):
    """The common root of a pair on C^2, or None when the certificate is a
    definite combination (a pair always decides)."""
    cert = cf.form_certificate([q1, q2])
    assert cert.kind in ("common-root", "definite-combination")
    return cert.vector if cert.kind == "common-root" else None


def test_common_root_indefinite_pair():
    q1 = np.diag([1.0, -1.0]).astype(complex)
    q2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    v = pair_root(q1, q2)
    assert v is not None
    # direct substitution oracle: |x1| = |x2| and Re(conj(x1) x2) = 0
    assert abs(abs(v[0]) - abs(v[1])) < 1e-12
    assert abs(np.real(np.conj(v[0]) * v[1])) < 1e-12
    # proportional to (1, i) as a projective point
    w = v / v[0]
    assert np.allclose(w, [1.0, 1j], atol=1e-10) or np.allclose(w, [1.0, -1j], atol=1e-10)


def test_common_root_criterion_failure():
    q1 = np.diag([1.0, -4.0]).astype(complex)
    q2 = np.diag([8.0, -2.0]).astype(complex)
    assert pair_root(q1, q2) is None
    # brute-force oracle: some combination sigma q1 + q2 has positive determinant
    sigmas = np.linspace(-20, 20, 4001)
    dets = (sigmas + 8.0) * (-4.0 * sigmas - 2.0)
    assert np.any(dets > 0)


def test_common_root_zero_second_form():
    q1 = np.diag([1.0, -1.0]).astype(complex)
    v = pair_root(q1, np.zeros((2, 2)))
    assert v is not None
    assert abs(form_value(q1, v)) < 1e-12


def test_common_root_both_zero_degenerate():
    v = pair_root(np.zeros((2, 2)), np.zeros((2, 2)))
    assert np.allclose(v, [1.0, 0.0])


def test_common_root_semidefinite_first_form():
    # PSD rank one: null line is the second basis direction
    q1 = np.diag([1.0, 0.0]).astype(complex)
    q2 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    v = pair_root(q1, q2)
    assert v is not None
    assert abs(v[0]) < 1e-8
    # and with a second form that does not vanish on the line: no root
    q3 = np.diag([0.0, 1.0]).astype(complex)
    assert pair_root(q1, q3) is None


def test_common_root_definite_first_form():
    assert pair_root(np.eye(2), np.diag([1.0, -1.0])) is None


def test_common_root_congruence_mapped_back():
    # a root computed after congruence of both forms still annihilates the
    # original pair when mapped through the congruence
    rng = np.random.default_rng(1)
    for _ in range(50):
        q1 = rand_sym(rng).astype(complex)
        q2 = rand_sym(rng).astype(complex)
        v = pair_root(q1, q2)
        if v is None:
            continue
        P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        while abs(np.linalg.det(P)) < 0.1:
            P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        vt = pair_root(P.conj().T @ q1 @ P, P.conj().T @ q2 @ P)
        assert vt is not None
        w = P @ vt
        w /= np.linalg.norm(w)
        assert abs(form_value(q1, w)) < 1e-7
        assert abs(form_value(q2, w)) < 1e-7


# ---------------------------------------------------------------------------
# pair dichotomy
# ---------------------------------------------------------------------------


def test_dichotomy_exclusive_on_random_real_pairs():
    rng = np.random.default_rng(2)
    counts = {"definite-combination": 0, "common-root": 0, "undecided": 0}
    for _ in range(2000):
        q1 = rand_sym(rng).astype(complex)
        q2 = rand_sym(rng).astype(complex)
        cert = cf.form_certificate([q1, q2])
        counts[cert.kind] += 1
        if cert.kind == "definite-combination":
            combo = cert.coeffs[0] * q1 + cert.coeffs[1] * q2
            assert np.linalg.eigvalsh(combo)[0] >= cert.min_eig - 1e-12
            assert cert.min_eig > 0
        elif cert.kind == "common-root":
            v = cert.vector
            assert abs(np.linalg.norm(v) - 1.0) < 1e-10
            assert max(abs(form_value(q, v)) for q in (q1, q2)) <= 1e-7
    assert counts["undecided"] == 0
    assert counts["definite-combination"] > 0
    assert counts["common-root"] > 0


def test_dual_stationarity_exact_for_pairs():
    # trace-one PSD 2x2 matrices form a ball about I/2, so at m = 2 the
    # stationarity test fails exactly when the pair dichotomy finds a
    # definite combination
    rng = np.random.default_rng(12)
    counts = {True: 0, False: 0}
    for _ in range(300):
        pair = [rand_sym(rng).astype(complex) for _ in range(2)]
        ok, X = mg.dual_stationarity(pair, 1.0)
        assert ok == (cf.form_certificate(pair).kind != "definite-combination")
        counts[ok] += 1
        if ok:
            assert max(abs(np.trace(q @ X).real) for q in pair) < 1e-6
            assert np.linalg.eigvalsh(X)[0] > -1e-6
    assert min(counts.values()) > 0


# ---------------------------------------------------------------------------
# certify_minimizer
# ---------------------------------------------------------------------------


def test_certify_random_2x2_common_root_with_phases():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(8):
        B = rand_complex(rng, 2)
        _, S, _, conv = mg.min_scaled_norm(B)
        if not conv:
            continue
        cert = cf.certify_minimizer(B, S)
        assert cert.kind == "common-root"
        BS = mg.scale(B, S)
        rho = mg.spectral_radius(mg.phase_apply(BS, cert.phases))
        assert abs(rho - mg.op_norm(BS)) < 1e-8
        hits += 1
    assert hits >= 5


def test_certify_ginibre_c3_converged_common_root():
    # the first 50 inputs of the ginibre-c3 benchmark pool at seed 1
    rng = np.random.default_rng(1)
    for _ in range(50):
        B = rand_complex(rng, 3)
        _, S, _, conv = mg.min_scaled_norm(B)
        assert conv
        assert cf.certify_minimizer(B, S).kind == "common-root"


def test_certify_perturbed_argmin_definite_combination():
    rng = np.random.default_rng(6)
    for _ in range(5):
        B = rand_complex(rng, 3)
        v, S, mult, conv = mg.min_scaled_norm(B)
        assert conv and mult == 1
        off = mg.DiagonalScaling(S.logs + np.concatenate(([0.0], 1e-3 * rng.standard_normal(2))))
        F = cf.variational_forms(B, off)
        BS = mg.scale(B, off)
        assert not mg.dual_stationarity(F.forms, mg.op_norm(BS) ** 2)[0]
        cert = cf.certify_minimizer(B, off)
        assert cert.kind == "definite-combination"
        # re-verify from scratch: the combination is positive definite
        combo = sum(c * q for c, q in zip(cert.coeffs, F.forms))
        assert np.linalg.eigvalsh(combo)[0] > 0


def test_certify_scale_free():
    # the decision is relative to ||B_S||^2 only, so scaling B by 1e-3
    # changes no certificate kind, at the argmin or off it
    rng = np.random.default_rng(7)
    for _ in range(5):
        B = rand_complex(rng, 3)
        _, S, _, _ = mg.min_scaled_norm(B)
        off = mg.DiagonalScaling(S.logs + np.concatenate(([0.0], 1e-4 * rng.standard_normal(2))))
        for T in (S, off):
            kinds = [cf.certify_minimizer(c * B, T).kind for c in (1.0, 1e-3)]
            assert kinds[0] == kinds[1]
        assert cf.certify_minimizer(1e-3 * B, off).kind == "definite-combination"


def test_converged_flag_and_certificate_agree_on_criterion2():
    # converged_S and certify_minimizer run the same stationarity test: a
    # converged scaling never gets a definite combination, and at m = 1 the
    # flag holds exactly when the certificate is a common root.  Eight root
    # starts keep it fast; no assertion depends on how the root side ends
    opts = cf.CertifyOptions(root_starts=8)
    for B in criterion2_ensemble():
        _, S, mult, conv = mg.min_scaled_norm(B)
        if not conv and mult > 1:
            continue
        kind = cf.certify_minimizer(B, S, opts).kind
        assert not (conv and kind == "definite-combination")
        if mult == 1:
            assert conv == (kind == "common-root")


def test_certify_c4_undecided_with_floor():
    B, _, _ = mg.counterexample_c4()
    cert = cf.certify_minimizer(B, mg.DiagonalScaling.identity(4))
    assert cert.kind == "undecided"
    assert cert.diagnostics["root_residual_floor"] > 0.01


def test_certify_diagonal_basis_vector():
    cert = cf.certify_minimizer(np.diag([2.0, 1.0]), mg.DiagonalScaling.identity(2))
    assert cert.kind == "common-root"
    assert cert.vector.shape == (1,)


def test_certify_consistency_with_phase_search():
    rng = np.random.default_rng(4)
    for _ in range(4):
        B = rand_complex(rng, 3)
        _, S, _, conv = mg.min_scaled_norm(B)
        cert = cf.certify_minimizer(B, S)
        if cert.kind != "common-root":
            continue
        BS = mg.scale(B, S)
        v_max, _, _ = mg.max_phase_rho(BS)
        assert abs(v_max - mg.op_norm(BS)) < 1e-6


# ---------------------------------------------------------------------------
# five forms and dimension counts
# ---------------------------------------------------------------------------


def test_forms_r3_five_properties():
    forms = cf.forms_r3_five()
    assert cf.independent_count(forms) == 5
    # the forms pin X at I/3, at squared distance 2 (1/6)^2 + (1/3)^2 = 1/6
    # from the trace-one rank-two matrices; with sigma_min(A) = 1 the floor is
    # sqrt(1/6) / sqrt(5) = 1/sqrt(30)
    cert = cf.form_certificate(forms)
    assert cert.kind == "undecided"
    floor = cert.diagnostics["root_residual_floor"]
    assert abs(floor - 1.0 / np.sqrt(30.0)) < 1e-12
    assert floor > 0.01
    assert sampled_least_residual(forms) >= floor


def test_numeric_common_root_stops_at_tolerance(monkeypatch):
    # forms on C^3 with a planted common root: two real equations leave a
    # root set of dimension 3 on the unit sphere, so the first start already
    # reaches it
    rng = np.random.default_rng(12)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    forms = []
    for _ in range(2):
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = H + H.conj().T
        forms.append(H - np.real(v.conj() @ H @ v) * np.outer(v, v.conj()))
    starts = []
    solve = cf.scipy.optimize.least_squares
    monkeypatch.setattr(cf.scipy.optimize, "least_squares",
                        lambda *a, **k: starts.append(1) or solve(*a, **k))
    opts = cf.CertifyOptions(root_starts=16)
    root, res = cf.numeric_common_root(forms, opts, tol=1e-8)
    assert len(starts) == 1
    assert res <= 1e-8
    assert max(abs(np.real(root.conj() @ q @ root)) for q in forms) == res
    # without a tolerance every start runs
    starts.clear()
    _, res_all = cf.numeric_common_root(forms, opts)
    assert len(starts) == 16 and res_all <= res
    # no start meets the tolerance: the same best residual after every start
    starts.clear()
    five = cf.forms_r3_five()
    early = cf.numeric_common_root(five, opts, tol=1e-8)
    assert len(starts) == 16
    full = cf.numeric_common_root(five, opts)
    assert early[1] == full[1] and np.array_equal(early[0], full[0])


def test_certify_root_search_stops_at_tolerance(monkeypatch):
    # criterion 2's second real 3x3 matrix: a stationary m = 2 scaling with
    # three independent forms at rtol 1e-9, whose third singular value is
    # below the stationarity tolerance, so the root comes from the dual X
    # and no numeric start runs
    rng = np.random.default_rng(20260811)
    for n in (2, 3):
        for _ in range(100):
            rng.standard_normal((n, n))
            rng.standard_normal((n, n))
    for _ in range(50):
        rng.standard_normal((2, 2))
    rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) / np.sqrt(3)
    S = mg.min_scaled_norm(B)[1]
    starts = []
    solve = cf.scipy.optimize.least_squares
    monkeypatch.setattr(cf.scipy.optimize, "least_squares",
                        lambda *a, **k: starts.append(1) or solve(*a, **k))
    cert = cf.certify_minimizer(B, S)
    assert isinstance(cert, cf.CommonRoot)
    assert len(starts) == 0
    F = cf.variational_forms(mg.as_matrix(B), S)
    assert F.m == 2 and cf.independent_count(F.forms) == 3
    assert cert.residual <= cf.CertifyOptions().root_tol * F.max_norm()


def test_every_m2_minimizer_of_criterion2_decided_without_search(monkeypatch):
    # at m = 2 the dual system decides: a converged scaling gets a common
    # root whose phases close the gap, any other a definite combination, and
    # no optimizer runs
    calls = []
    for name in ("minimize", "minimize_scalar", "least_squares"):
        fn = getattr(cf.scipy.optimize, name)
        monkeypatch.setattr(cf.scipy.optimize, name,
                            lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k))
    kinds = {"common-root": 0, "definite-combination": 0}
    for B in criterion2_ensemble():
        _, S, _, conv = mg.min_scaled_norm(B)
        F = cf.variational_forms(B, S)
        if F.m != 2:
            continue
        calls.clear()
        cert = cf.certify_minimizer(B, S)
        assert not calls
        assert conv == (cert.kind == "common-root")
        kinds[cert.kind] += 1
        if conv:
            BS = mg.scale(B, S)
            rho = mg.spectral_radius(mg.phase_apply(BS, cert.phases))
            assert abs(rho - mg.op_norm(BS)) <= 1e-8 * mg.op_norm(BS)
        else:
            combo = sum(c * q for c, q in zip(cert.coeffs, F.forms))
            assert np.linalg.eigvalsh(combo)[0] > 0
    assert kinds == {"common-root": 26, "definite-combination": 52}


def test_pair_floor_of_pauli_forms():
    # the forms pin X at I/2; v^* sigma_i v is a unit vector of R^3, whose
    # largest coordinate is at least 1/sqrt(3), so the floor is attained
    cert = cf.form_certificate(mg.pauli_like_forms())
    assert cert.kind == "undecided"
    assert abs(cert.diagnostics["root_residual_floor"] - 1.0 / np.sqrt(3.0)) < 1e-12


def test_certify_c4_root_residual_floor(optimizer_calls):
    B, _, _ = mg.counterexample_c4()
    S = mg.DiagonalScaling.identity(4)
    floor = cf.certify_minimizer(B, S).diagnostics["root_residual_floor"]
    assert not optimizer_calls
    assert 0.0 < floor
    # the floor holds for every unit vector of the cluster
    assert sampled_least_residual(cf.variational_forms(B, S).forms) >= floor


@pytest.mark.parametrize("n, m, field", [(5, 3, "real"), (5, 4, "real"), (3, 3, "complex")])
def test_frame_root_from_face_reduction(optimizer_calls, n, m, field):
    # the dual X reduces to rank 1 (or 2 for real forms) with no optimizer,
    # and the root's phases close the gap
    for seed in range(3):
        B = frame_matrix(seed, n, m, field)
        S = mg.DiagonalScaling.identity(n)
        F = cf.variational_forms(B, S)
        assert F.m == m
        optimizer_calls.clear()
        cert = cf.certify_minimizer(B, S)
        assert not optimizer_calls
        assert cert.kind == "common-root"
        assert cert.residual <= cf.CertifyOptions().root_tol * F.max_norm()
        assert abs(mg.spectral_radius(mg.phase_apply(B, cert.phases)) - 1.0) <= 1e-8


def test_real_6x6_frame_floor_without_search(optimizer_calls):
    # five real forms on a three-dimensional cluster pin X at I/3, which has
    # rank 3: no root, and the floor comes with no optimizer call
    for seed in range(3):
        B = frame_matrix(seed, 6, 3, "real")
        S = mg.DiagonalScaling.identity(6)
        optimizer_calls.clear()
        cert = cf.certify_minimizer(B, S)
        assert not optimizer_calls
        assert cert.kind == "undecided"
        floor = cert.diagnostics["root_residual_floor"]
        assert 0.0 < floor <= sampled_least_residual(cf.variational_forms(B, S).forms)


def test_stalled_complex_4x4_frame_searches_for_root(optimizer_calls):
    # the face reduction stops at rank 2 with X not unique; the numeric root
    # search, seeded at X's top eigenvector, finds the root
    B = frame_matrix(0, 4, 3, "complex")
    cert = cf.certify_minimizer(B, mg.DiagonalScaling.identity(4))
    assert optimizer_calls
    assert cert.kind == "common-root"
    assert abs(mg.spectral_radius(mg.phase_apply(B, cert.phases)) - 1.0) <= 1e-8


def circle_lambda_min(q1, q2, phis):
    """lambda_min(cos(phi) q1 + sin(phi) q2) in closed form."""
    c = np.cos(phis)[:, None, None] * q1 + np.sin(phis)[:, None, None] * q2
    mean = (c[:, 0, 0].real + c[:, 1, 1].real) / 2.0
    return mean - np.hypot((c[:, 0, 0].real - c[:, 1, 1].real) / 2.0, np.abs(c[:, 0, 1]))


def test_pair_dichotomy_matches_circle_scan():
    # oracle independent of the dual system: a definite combination exists
    # exactly when lambda_min is positive somewhere on the coefficient circle,
    # scanned densely and then refined about its best grid point
    rng = np.random.default_rng(21)
    coarse = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    step = coarse[1]
    ambiguous = 0
    for field in ("real", "complex"):
        for _ in range(1000):
            q1, q2 = (rand_herm(rng, field) for _ in range(2))
            scale = max(np.linalg.norm(q1, 2), np.linalg.norm(q2, 2))
            lam = circle_lambda_min(q1, q2, coarse)
            fine = coarse[np.argmax(lam)] + np.linspace(-step, step, 4097)
            best = max(lam.max(), circle_lambda_min(q1, q2, fine).max())
            cert = cf.form_certificate([q1, q2])
            if cert.kind == "definite-combination":
                combo = cert.coeffs[0] * q1 + cert.coeffs[1] * q2
                assert cert.min_eig > 0 and np.linalg.eigvalsh(combo)[0] >= cert.min_eig - 1e-12
                assert cert.min_eig <= best + step * scale
            else:
                assert cert.kind == "common-root"
                assert max(abs(form_value(q, cert.vector)) for q in (q1, q2)) <= 1e-10 * scale
            if abs(best) <= 1e-6 * scale:
                ambiguous += 1
            else:
                assert (cert.kind == "definite-combination") == (best > 0)
    assert ambiguous <= 5


def test_pairs_decide_without_search(optimizer_calls):
    # two forms on C^2 leave the solve consistent; a solution outside the
    # PSD ball gives its definite combination directly, so no pair searches
    rng = np.random.default_rng(22)
    kinds = {"common-root": 0, "definite-combination": 0}
    for field in ("real", "complex"):
        for _ in range(300):
            cert = cf.form_certificate([rand_herm(rng, field) for _ in range(2)])
            assert not optimizer_calls
            kinds[cert.kind] += 1
    assert min(kinds.values()) > 0


def test_dimension_count_values():
    assert cf.dimension_count(3, 2, "complex") == 17
    assert 17 < 2 * 3 * 3
    assert cf.dimension_count(5, 3, "real") == 24
    assert 24 < 5 * 5
    # at n = 4, m = 2 the complex bound no longer drops below the ambient 2 n^2
    assert cf.dimension_count(4, 2, "complex") == 32
    assert cf.dimension_count(4, 2, "complex") >= 2 * 4 * 4


def test_dimension_count_invalid():
    with pytest.raises(InvalidInputError):
        cf.dimension_count(3, 4, "real")
    with pytest.raises(InvalidInputError):
        cf.dimension_count(3, 0, "complex")
    with pytest.raises(InvalidInputError):
        cf.dimension_count(3, 2, "quaternion")
