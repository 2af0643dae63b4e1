"""Tests for roll-wave profiles, characteristic data and stability index."""

import mpmath as mp
import numpy as np
import pytest

from rollgap import rollwave as rw
from rollgap.errors import (
    InvalidInputError,
    NoRollWaveError,
    NumericalError,
    StructuralAssumptionError,
)


@pytest.fixture(scope="module")
def profile():
    return rw.build_profile(3.0)


@pytest.fixture(scope="module")
def chardata(profile):
    return rw.characteristics(profile)


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------


def test_profile_basic_structure(profile):
    p = profile
    assert p.q == pytest.approx(1.0 / 3.0)
    assert p.c == pytest.approx(1.0 + 1.0 / 3.0)
    assert 0 < p.x_s < p.X
    assert p.h_plus < 1.0 < p.h_minus
    assert p.grid[0] == 0.0 and p.grid[-1] == pytest.approx(p.X)
    assert np.any(np.isclose(p.grid, p.x_s))
    assert np.all(np.diff(p.grid) > 0)


def test_profile_rankine_hugoniot(profile):
    res = profile.rankine_hugoniot_residual()
    assert np.max(np.abs(res)) < 1e-8


def _mp_profile(F, amplitude, xs):
    """Independent oracle at 30 digits: x_s, X and the heights at xs from
    mpmath quadrature of dx/dh = D(h)/N(h) in the un-cancelled form, with
    N = h - (c - q/h)^2 and D = h/F^2 - q^2/h^2, and root finding on x(h)."""
    with mp.workdps(30):
        F = mp.mpf(F)
        q = 1 / F
        c = 1 + q
        # h_min = x^2 with x the middle root of x^3 - c x^2 + q, N = 0 in sqrt(h)
        h_min = sorted(mp.re(r) for r in mp.polyroots([1, -c, 0, q]))[1] ** 2
        h_plus = 1 - amplitude * (1 - h_min)
        h_minus = mp.findroot(lambda h: h_plus * h * (h_plus + h) - 2, 2 - h_plus)

        def rate(h):
            # 0/0 only where a node rounds onto the sonic height; its
            # tanh-sinh weight is below the working precision
            if h == 1:
                return mp.mpf(0)
            with mp.workdps(60):
                return (h / F**2 - q**2 / h**2) / (h - (c - q / h) ** 2)

        def from_sonic(h):
            return mp.quad(rate, [1, h])

        x_s = -from_sonic(h_plus)
        X = x_s + from_sonic(h_minus)
        hs = [h_plus if x <= 0 else h_minus if x >= X else
              mp.findroot(lambda h: x_s + from_sonic(h) - x, (h_plus, h_minus),
                          solver="anderson")
              for x in (mp.mpf(float(v)) for v in xs)]
        return float(x_s), float(X), np.array([float(h) for h in hs])


def test_profile_against_independent_integration(profile):
    p = profile
    xs = np.linspace(0.0, p.X, 41)
    x_s, X, h = _mp_profile(3.0, 0.5, xs)
    assert p.x_s == pytest.approx(x_s, abs=1e-11)
    assert p.X == pytest.approx(X, abs=1e-11)
    assert np.max(np.abs(p.h_of_x(xs) - h)) < 1e-11


def test_near_onset_maximal_wave_matches_oracle():
    # next to the onset F = 2 and to the largest amplitude: h_plus - h_min is
    # ~7e-7, and its rounding bounds the agreement of x_s and X (X ~ 7.6)
    p = rw.build_profile(2.001, amplitude=0.999)
    xs = np.linspace(0.0, p.X, 11)
    x_s, X, h = _mp_profile(2.001, 0.999, xs)
    assert p.x_s == pytest.approx(x_s, rel=1e-11)
    assert p.X == pytest.approx(X, rel=1e-11)
    assert np.max(np.abs(p.h_of_x(xs) - h)) < 1e-11


CLOSED_FORM_FROUDE = (2.01, 2.1, 3.0, 10.0, 40.0, 1000.0)


@pytest.mark.parametrize("F", CLOSED_FORM_FROUDE)
def test_slope_is_the_uncancelled_ratio(F):
    p = rw.build_profile(F, n_grid=50)
    h = np.linspace(p.h_plus, p.h_minus, 201)
    h = h[np.abs(h - 1.0) >= 1e-3]
    with mp.workdps(30):
        q, c = 1 / mp.mpf(F), 1 + 1 / mp.mpf(F)
        ratio = np.array([float((v - (c - q / v) ** 2) / (v / mp.mpf(F) ** 2 - q**2 / v**2))
                          for v in map(mp.mpf, h)])
    np.testing.assert_allclose(p.slope(h), ratio, rtol=1e-13, atol=0.0)
    # the value behind criterion 7's alpha_2'(x_s) = (F - 2)/2
    assert p.slope(1.0) == pytest.approx(F * (F - 2.0) / 3.0, rel=1e-13)


@pytest.mark.parametrize("F", CLOSED_FORM_FROUDE)
def test_h_of_x_inverts_x_of_h(F):
    p = rw.build_profile(F, n_grid=50)
    assert p.h_of_x(0.0) == p.h_plus
    assert p.h_of_x(p.x_s) == 1.0
    assert p.h_of_x(p.X) == p.h_minus
    xs = np.linspace(0.0, p.X, 1001)
    assert np.max(np.abs(p.x_of_h(p.h_of_x(xs)) - xs)) < 1e-13 * p.X


@pytest.mark.parametrize("F", (2.0001, 2.01, 1e6))
def test_waves_next_to_the_largest_amplitude_build(F):
    # h_plus - h_min is 1e-6 (1 - h_min), down to ~1e-12 near F = 2: there
    # the spacing of the floats, not the pole, bounds the Newton steps
    p = rw.build_profile(F, amplitude=1.0 - 1e-6)
    assert p.h_of_x(0.0) == p.h_plus and p.h_of_x(p.X) == p.h_minus
    assert np.all(np.diff(p.h_of_x(np.linspace(0.0, p.X, 2001))) >= 0)


def test_profile_inversion_that_cannot_converge_raises(monkeypatch):
    slope = rw.RollWaveProfile.slope
    monkeypatch.setattr(rw.RollWaveProfile, "slope", lambda self, h: 3.0 * slope(self, h))
    with pytest.raises(NumericalError, match="Newton"):
        rw.build_profile(3.0)


def test_profile_momentum_jump_closure(profile):
    p = profile
    # h+ h- (h+ + h-) = 2 q^2 F^2 with h_s = 1
    assert p.h_plus * p.h_minus * (p.h_plus + p.h_minus) == pytest.approx(
        2.0 * p.q**2 * p.model.froude**2, abs=1e-12
    )


def test_profile_first_integral(profile):
    p = profile
    vals = p.h_samples * (p.U_samples - p.c)
    assert np.max(np.abs(vals + p.q)) < 1e-10


def test_profile_monotone_height(profile):
    assert np.all(np.diff(profile.h_samples) > 0)


def test_no_roll_wave_below_froude_two():
    with pytest.raises(NoRollWaveError):
        rw.build_profile(1.5)
    with pytest.raises(NoRollWaveError):
        rw.build_profile(2.0)
    # bisection-style check of the onset: slightly above two succeeds
    p = rw.build_profile(2.05)
    assert p.X > 0


def test_inadmissible_shock_pair_rejected():
    with pytest.raises(NoRollWaveError):
        rw.build_profile(3.0, h_plus=1.2)
    with pytest.raises(NoRollWaveError):
        rw.build_profile(3.0, h_plus=0.1)


def test_lax_inequalities(profile, chardata):
    cd = chardata
    assert np.all(cd.alpha1 < 0)
    assert cd.alpha2[0] < 0  # alpha_2(0+) < 0
    assert cd.alpha2[-1] > 0  # alpha_2(X-) > 0
    assert np.all(cd.alpha1 < cd.alpha2)


# ---------------------------------------------------------------------------
# characteristic data
# ---------------------------------------------------------------------------


def test_alpha_closed_form_matches_eigensolve(profile, chardata):
    p, cd = profile, chardata
    m = p.model
    for i in range(0, len(p.grid), 97):
        h = p.h_samples[i]
        U = p.U_samples[i]
        A0 = m.df0(h, U)
        A = m.df(h, U) - p.c * A0
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(A0, A)).real)
        assert ev[0] == pytest.approx(cd.alpha1[i], abs=1e-10)
        assert ev[1] == pytest.approx(cd.alpha2[i], abs=1e-10)


def test_eigenvector_identity(profile, chardata):
    p, cd = profile, chardata
    m = p.model
    for i in range(0, len(p.grid), 59):
        h = p.h_samples[i]
        U = p.U_samples[i]
        A0 = m.df0(h, U)
        M = np.linalg.solve(A0, m.df(h, U) - p.c * A0)
        for j, a in ((0, cd.alpha1[i]), (1, cd.alpha2[i])):
            col = cd.T[i][:, j]
            assert np.max(np.abs(M @ col - a * col)) < 1e-10 * max(1.0, abs(a))


def test_sonic_point_derivative(profile, chardata):
    p, cd = profile, chardata
    F = p.model.froude
    assert float(cd.fields.alpha2(p.x_s)) == pytest.approx(0.0, abs=1e-12)
    assert cd.alpha2_prime_xs == pytest.approx((F - 2.0) / 2.0, abs=1e-10)
    assert cd.alpha2_prime_xs > 0


def test_diagonalized_system_residual(profile, chardata):
    # substitute a smooth test function into the physical linear operator and
    # into its diagonalized form; agreement is limited only by the finite
    # differences used for the oracle, so the residual must shrink at
    # second order in the grid
    p, cd = profile, chardata
    m = p.model
    f = cd.fields

    def residual(npts):
        x = np.linspace(0.05 * p.X, 0.95 * p.X, npts)
        dx = x[1] - x[0]
        h = p.h_of_x(x)
        U = p.c - p.q / h
        w = np.stack([np.sin(2 * np.pi * x / p.X + 0.3),
                      np.cos(4 * np.pi * x / p.X)], axis=0)
        A = np.stack([m.df(h[i], U[i]) - p.c * m.df0(h[i], U[i])
                      for i in range(npts)])
        A0 = np.stack([m.df0(h[i], U[i]) for i in range(npts)])
        E = np.stack([m.dsource(h[i], U[i]) for i in range(npts)])
        Aw = np.einsum("ijk,ki->ji", A, w)
        dAw = np.gradient(Aw, dx, axis=1, edge_order=2)
        Ew = np.einsum("ijk,ki->ji", E, w)
        lhs_w = dAw - Ew  # steady part of the operator in w coordinates
        T = f.T_matrix(x)
        u = np.einsum("ijk,ki->ji", np.linalg.inv(T), w)
        du = np.gradient(u, dx, axis=1, edge_order=2)
        Mc = f.coupling_matrix(x)
        alpha = np.stack([f.alpha1(x), f.alpha2(x)], axis=0)
        lhs_u = alpha * du + np.einsum("ijk,ki->ji", Mc, u)
        # transform lhs_w through T^{-1} A0^{-1}
        rhs_u = np.einsum("ijk,ki->ji", np.linalg.inv(T) @ np.linalg.inv(A0), lhs_w)
        return np.max(np.abs(lhs_u - rhs_u))

    r1 = residual(400)
    r2 = residual(800)
    assert r2 < r1 / 2.5  # at least second-order collapse
    assert r2 < 1e-3


def test_translation_mode_is_steady_solution(profile, chardata):
    # A W' = R(W) pointwise along the smooth profile (first integral of the
    # traveling-wave equations), which the mode coordinates inherit
    p, cd = profile, chardata
    m = p.model
    x = np.linspace(0.01 * p.X, 0.99 * p.X, 50)
    h = p.h_of_x(x)
    U = p.c - p.q / h
    hp = np.array([cd.fields.hprime(float(xi)) for xi in x])
    Up = p.q * hp / h**2
    for i in range(len(x)):
        A = m.df(h[i], U[i]) - p.c * m.df0(h[i], U[i])
        res = A @ np.array([hp[i], Up[i]]) - m.source(h[i], U[i])
        assert np.max(np.abs(res)) < 1e-9 * max(1.0, abs(hp[i]))


# ---------------------------------------------------------------------------
# jump coefficients and stability index
# ---------------------------------------------------------------------------


def test_jump_a0_equals_C(profile, chardata):
    rep = rw.stability_index(profile, chardata)
    assert abs(rep.a0 - rep.C) < 1e-8
    assert abs(rep.a_from_solve - rep.C) < 1e-10


def test_jump_homogeneous_shift_velocity(profile, chardata):
    jc = rw.jump_coefficients(profile, chardata)
    # zero traces, zero shift, zero forcing: dy/dt = 0 termwise
    dydt = (jc.y_row_y * 0.0 + jc.y_row_u1_0 * 0.0 + jc.y_row_u2_0 * 0.0
            + jc.y_row_u2_X * 0.0 + jc.y_row_G @ np.zeros(2))
    assert dydt == 0.0


def test_jump_coefficients_eigenvector_rescaling(profile, chardata):
    # doubling the transverse eigenvector leaves a0 unchanged and halves the
    # couplings to the sonic traces in the u_1 equation
    f = chardata.fields
    at1_0 = f.AT_column(0.0, 1)
    at1_X = f.AT_column(profile.X, 1)
    at2_X = f.AT_column(profile.X, 2)
    jf0 = f.jump_f0()

    def det(u, v):
        return u[0] * v[1] - u[1] * v[0]

    a0 = det(at1_0, jf0) / det(at1_X, jf0)
    a0_scaled = det(2 * at1_0, jf0) / det(2 * at1_X, jf0)
    assert a0_scaled == pytest.approx(a0, abs=1e-14)
    b0 = -det(at2_X, jf0) / det(at1_X, jf0)
    b0_scaled = -det(at2_X, jf0) / det(2 * at1_X, jf0)
    assert b0_scaled == pytest.approx(b0 / 2.0, abs=1e-14)


def test_stability_index_below_one(profile, chardata):
    rep = rw.stability_index(profile, chardata)
    assert 0 < rep.index < 1


def test_stability_index_grid_consistency(profile, chardata):
    rep1 = rw.stability_index(profile, chardata)
    p2 = rw.build_profile(3.0, n_grid=1600)
    rep2 = rw.stability_index(p2, rw.characteristics(p2))
    assert abs(rep1.index - rep2.index) / rep2.index < 1e-6


def test_hf_abscissa_sign_identity(profile, chardata):
    rep = rw.stability_index(profile, chardata)
    assert (rep.hf_abscissa < 0) == (rep.index < 1)


def test_amplitude_family_indices():
    for amp in (0.25, 0.75):
        p = rw.build_profile(3.0, amplitude=amp, n_grid=400)
        rep = rw.stability_index(p, rw.characteristics(p))
        assert 0 < rep.index < 1


# ---------------------------------------------------------------------------
# Sobolev threshold
# ---------------------------------------------------------------------------


def test_gamma2_vanishes_at_sonic_point(profile, chardata):
    # exact identity of the Saint-Venant diagonalization: the sonic-point
    # value of gamma_2 is zero for every Froude number (it is invariant
    # under eigenvector rescaling since alpha_2(x_s) = 0), so the Sobolev
    # threshold sits exactly at one half
    assert abs(chardata.gamma2_xs) < 1e-9
    assert rw.hs_threshold(profile, chardata) == pytest.approx(0.5, abs=1e-9)
    for F in (2.5, 5.0):
        p = rw.build_profile(F, n_grid=300)
        cd = rw.characteristics(p)
        assert abs(cd.gamma2_xs) < 1e-9


def test_threshold_grid_independence(profile, chardata):
    t1 = rw.hs_threshold(profile, chardata)
    p2 = rw.build_profile(3.0, n_grid=1600)
    t2 = rw.hs_threshold(p2, rw.characteristics(p2))
    assert abs(t1 - t2) < 1e-8


def test_toy_sonic_threshold_formula():
    # local model d_s (x - x_s) u' = -(lambda + gamma_s) u: solvable at
    # derivative order k iff (Re lambda + gamma_s)/d_s > 1/2 - k
    assert rw.sonic_mode_solvable(0.0, 0.3, 0.5, k=1)
    assert not rw.sonic_mode_solvable(-0.6, 0.3, 0.5, k=1)
    assert rw.sonic_mode_solvable(-0.6, 0.3, 0.5, k=2)
    with pytest.raises(StructuralAssumptionError):
        rw.sonic_mode_solvable(0.0, 0.3, -0.5, k=1)


# ---------------------------------------------------------------------------
# damping weights
# ---------------------------------------------------------------------------


def test_damping_weights_positive_and_continuous(profile, chardata):
    eps = rw.default_epsilon(profile, chardata)
    w = rw.damping_weights(profile, chardata, eps, 2.0)
    assert np.all(w.omega1 > 0)
    assert np.all(w.omega2 > 0)
    # continuity across the sonic point
    d = 1e-6 * profile.X
    left = float(w.omega2_at(np.array([profile.x_s - d]))[0])
    right = float(w.omega2_at(np.array([profile.x_s + d]))[0])
    assert abs(left - right) < 1e-4 * abs(left)
    assert w.delta2 == pytest.approx(0.5 * chardata.alpha2_prime_xs + chardata.gamma2_xs)
    assert w.delta2 > 0


def test_eta1_zero_equals_one_minus_index_squared(profile, chardata):
    rep = rw.stability_index(profile, chardata)
    eps = rw.default_epsilon(profile, chardata)
    w = rw.damping_weights(profile, chardata, eps, 1.0)
    assert abs(w.eta1_zero - (1.0 - rep.index**2)) < 1e-8
    assert w.eta1 > 0
    assert w.advisory is None


def test_eta1_limit_small_epsilon(profile, chardata):
    w1 = rw.damping_weights(profile, chardata, 1e-6, 1.0)
    assert abs(w1.eta1 - w1.eta1_zero) < 1e-4


def test_delta1_identity(profile, chardata):
    # the transverse weight solves delta_1 = epsilon by construction; check
    # the quadrature-built weight against the defining relation through a
    # finite-difference log derivative
    eps = 0.5
    w = rw.damping_weights(profile, chardata, eps, 1.0)
    f = chardata.fields
    xs = np.linspace(0.1 * profile.X, 0.9 * profile.X, 7)
    d = 1e-6 * profile.X
    for x in xs:
        om = w.omega1_at(np.array([x - d, x, x + d]))
        omp = (np.log(om[2]) - np.log(om[0])) / (2 * d)
        a1 = float(f.alpha1(x))
        a1p = float(f.alpha1_prime(x))
        g1 = float(f.gamma1(x))
        delta1 = 0.5 * a1p + g1 - 0.5 * a1 * omp
        assert delta1 == pytest.approx(eps, abs=1e-5)
        # and exactly, using the analytic log-derivative the weight encodes
        omp_exact = (a1p + 2.0 * (g1 - eps)) / a1
        assert 0.5 * a1p + g1 - 0.5 * a1 * omp_exact == pytest.approx(eps, abs=1e-12)


# a wave of the F = 5 family near its largest amplitude, and a short wave
# (period 0.018) near the largest amplitude at F = 40
EXTRA_WAVES = ((5.0, 0.9), (40.0, 0.95))


def test_default_epsilon_halves_eta1(profile, chardata):
    eps = rw.default_epsilon(profile, chardata)
    w2 = rw.damping_weights(profile, chardata, 2.0 * eps, 1.0)
    assert w2.eta1 == pytest.approx(0.5 * w2.eta1_zero, rel=1e-6)
    for F, amp in EXTRA_WAVES:
        p = rw.build_profile(F, amplitude=amp)
        cd = rw.characteristics(p)
        eps = rw.default_epsilon(p, cd)
        w2 = rw.damping_weights(p, cd, 2.0 * eps, 1.0)
        assert w2.eta1 == pytest.approx(0.5 * w2.eta1_zero, rel=1e-6)


@pytest.mark.parametrize("F, amp", EXTRA_WAVES)
def test_off_grid_weights_match_grid_values(F, amp):
    # a weight asked for at a grid point is the grid value, however few
    # points are asked for, and both ends agree with the closed forms
    p = rw.build_profile(F, amplitude=amp)
    cd = rw.characteristics(p)
    eps = rw.default_epsilon(p, cd)
    w = rw.damping_weights(p, cd, eps, rw.default_C0(p, cd, eps))
    for i in (-1, len(p.grid) // 3):
        x = np.array([p.grid[i]])
        assert float(w.omega1_at(x)[0]) == pytest.approx(w.omega1[i], rel=1e-10)
        assert float(w.omega2_at(x)[0]) == pytest.approx(w.omega2[i], rel=1e-10)
    rep = rw.stability_index(p, cd)
    assert w.omega1[0] == pytest.approx(abs(cd.alpha1[0]), rel=1e-14)
    assert w.omega1[-1] == pytest.approx(
        abs(cd.alpha1[-1]) * (1.0 - w.eta1) / rep.a0**2, rel=1e-10)
    assert w.omega2[0] == w.C0


def test_jump_system_solved_once_per_wave(monkeypatch):
    from rollgap import dampsim, genbal

    solves = []
    solve = rw.jump_coefficients
    monkeypatch.setattr(rw, "jump_coefficients",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    p = rw.build_profile(3.0, n_grid=400)
    cd = rw.characteristics(p)
    rep = rw.stability_index(p, cd)
    assert rw.stability_index(p, cd) is rep
    eps = rw.default_epsilon(p, cd)
    c0 = rw.default_C0(p, cd, eps)
    w = rw.damping_weights(p, cd, eps, c0)
    genbal.from_sv_profile(p, cd)
    dampsim.UpwindSimulator(dampsim.SimConfig(profile=p, cd=cd, weights=w, N=64))
    assert len(solves) == 1


def test_default_c0_margin_rule(profile, chardata):
    eps = rw.default_epsilon(profile, chardata)
    c0 = rw.default_C0(profile, chardata, eps)
    assert c0 >= 1.0
    assert c0 == 2.0 ** round(np.log2(c0))
    # margin condition holds at the returned value and fails at c0/16 unless
    # already saturated at the floor
    jc = rw.jump_coefficients(profile, chardata)
    w = rw.damping_weights(profile, chardata, eps, 1.0)
    f = chardata.fields
    good = min(abs(float(f.alpha2(0.0))),
               abs(float(f.alpha2(profile.X)))
               * float(w.omega2_at(np.array([profile.X]))[0]))
    bad = (abs(float(f.alpha1(profile.X)))
           * float(w.omega1_at(np.array([profile.X]))[0])
           * (jc.b0**2 + jc.c0**2))
    assert c0 * good >= 4.0 * bad


def test_default_c0_rejects_vanishing_absorption(profile, chardata, monkeypatch):
    eps = rw.default_epsilon(profile, chardata)
    monkeypatch.setattr(chardata.fields, "alpha2",
                        lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericalError):
        rw.default_C0(profile, chardata, eps)


def test_too_large_epsilon_advisory(profile, chardata):
    w = rw.damping_weights(profile, chardata, 50.0, 1.0)
    assert w.eta1 <= 0
    assert w.advisory is not None


def test_weight_input_validation(profile, chardata):
    with pytest.raises(InvalidInputError):
        rw.damping_weights(profile, chardata, -1.0, 1.0)
    with pytest.raises(InvalidInputError):
        rw.damping_weights(profile, chardata, 1.0, 0.0)
