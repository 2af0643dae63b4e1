"""Tests for the discrete linearized simulator and decay measurement."""

import numpy as np
import pytest
import scipy.sparse

from rollgap import dampsim as ds
from rollgap import rollwave as rw
from rollgap.errors import ConfigurationError, HyperbolicityError, NumericalError


@pytest.fixture(scope="module")
def setup_f3():
    p = rw.build_profile(3.0, n_grid=400)
    cd = rw.characteristics(p)
    eps = rw.default_epsilon(p, cd)
    w = rw.damping_weights(p, cd, eps, 1.0)
    return p, cd, w


def smooth_random(xc, X, seed, modes=8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, modes))
    b = rng.standard_normal((2, modes))
    out = np.zeros((2, len(xc)))
    for m in range(modes):
        for c in range(2):
            out[c] += (a[c, m] * np.cos(2 * np.pi * (m + 1) * xc / X)
                       + b[c, m] * np.sin(2 * np.pi * (m + 1) * xc / X)) / (m + 1)
    return out


# ---------------------------------------------------------------------------
# compensator
# ---------------------------------------------------------------------------


class _StubFields:
    """Artificial characteristic fields for compensator identities."""

    def __init__(self, rng, n):
        self._a1 = -1.0 - rng.uniform(0.1, 1.0, n)
        self._a2 = rng.uniform(0.2, 1.0, n)
        self._b1 = rng.standard_normal(n)
        self._b2 = rng.standard_normal(n)

    def alpha1(self, x):
        return self._a1

    def alpha2(self, x):
        return self._a2

    def beta1(self, x):
        return self._b1

    def beta2(self, x):
        return self._b2

    # the same fields through the heights, which the compensator reads
    def h(self, x):
        return x

    def alpha1_h(self, h):
        return self._a1

    def alpha2_h(self, h):
        return self._a2

    def coupling_matrix_h(self, h):
        M = np.zeros(self._b1.shape + (2, 2))
        M[:, 0, 1] = self._b1
        M[:, 1, 0] = self._b2
        return M


class _StubCD:
    def __init__(self, rng, n):
        self.grid = np.linspace(0, 1, n)
        self.fields = _StubFields(rng, n)


def test_kawashima_skew_and_cancellation():
    rng = np.random.default_rng(0)
    cd = _StubCD(rng, 40)
    K = ds.kawashima_K(cd)
    assert np.max(np.abs(K + K.transpose(0, 2, 1))) == 0.0
    f = cd.fields
    x = cd.grid
    for i in range(40):
        A = np.diag([f.alpha1(x)[i], f.alpha2(x)[i]])
        comm = K[i] @ A - A @ K[i]
        coupling = np.array([[0.0, f.beta1(x)[i]], [f.beta2(x)[i], 0.0]])
        sym = 0.5 * (coupling + coupling.T)
        assert np.max(np.abs(comm - sym)) < 1e-10


def test_kawashima_zero_coupling():
    rng = np.random.default_rng(1)
    cd = _StubCD(rng, 10)
    cd.fields._b1[:] = 0.0
    cd.fields._b2[:] = 0.0
    K = ds.kawashima_K(cd)
    assert np.max(np.abs(K)) == 0.0


def test_kawashima_hyperbolicity_guard():
    rng = np.random.default_rng(2)
    cd = _StubCD(rng, 10)
    cd.fields._a2[3] = cd.fields._a1[3]
    with pytest.raises(HyperbolicityError):
        ds.kawashima_K(cd)


def test_kawashima_on_profile(setup_f3):
    p, cd, w = setup_f3
    K = ds.kawashima_K(cd, w)
    assert K.shape == (len(cd.grid), 2, 2)
    assert np.max(np.abs(K + K.transpose(0, 2, 1))) == 0.0


def test_simulator_weights_evaluated_once(setup_f3, monkeypatch):
    # set-up evaluates both weights at the inner faces with one quadrature
    # and the profile once at the faces, once at the centres and once at
    # that quadrature's nodes; its compensator entry is kawashima_K's at the
    # inner faces, bit for bit
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, compensator_amplitude=0.7)
    integrals_at = type(cd).integrals_at
    h_of_x = type(p).h_of_x
    calls, heights = [], []
    monkeypatch.setattr(type(cd), "integrals_at",
                        lambda self, xs: calls.append(1) or integrals_at(self, xs))
    monkeypatch.setattr(type(p), "h_of_x",
                        lambda self, x: heights.append(np.size(x)) or h_of_x(self, x))
    sim = ds.setup(cfg)
    assert len(calls) == 1
    assert len(heights) == 3 and heights[:2] == [65, 64]
    K = ds.kawashima_K(cd, w, 0.7, sim.faces[1:-1])
    assert np.array_equal(sim.k_f, K[..., 0, 1])


# ---------------------------------------------------------------------------
# scheme sanity
# ---------------------------------------------------------------------------


def _advect_periodic(n, t_end):
    """Constant-speed periodic advection with the production upwind stencil."""
    x = (np.arange(n) + 0.5) / n
    dx = np.full(n, 1.0 / n)
    u = np.exp(np.sin(2 * np.pi * x))
    speed = -0.7
    speeds_f = np.full(n + 1, speed)
    dt = 0.4 * (1.0 / n) / abs(speed)
    steps = int(round(t_end / dt))
    dt = t_end / steps

    rows, cols, vals, w_left, w_right = ds.upwind_stencil(speeds_f, dx)
    # periodic wrap: the last cell feeds the left inflow, the first the right
    L = scipy.sparse.csr_array(
        (np.concatenate([vals, [w_left, w_right]]),
         (np.concatenate([rows, [0, n - 1]]), np.concatenate([cols, [n - 1, 0]]))),
        shape=(n, n))

    def rhs(v):
        return L @ v

    for _ in range(steps):
        k1 = rhs(u)
        a = u + dt * k1
        k2 = rhs(a)
        b = 0.75 * u + 0.25 * (a + dt * k2)
        k3 = rhs(b)
        u = u / 3.0 + 2.0 / 3.0 * (b + dt * k3)
    exact = np.exp(np.sin(2 * np.pi * (x - speed * t_end)))
    return np.max(np.abs(u - exact))


def test_constant_advection_first_order():
    e1 = _advect_periodic(100, 0.5)
    e2 = _advect_periodic(200, 0.5)
    assert e2 < e1 / 1.6  # first-order convergence
    assert e1 < 0.5


def _three_stage_step(sim, t, z):
    """The SSP-RK3 stages of dz/dt = L z + f(t), one after another."""
    L, f, dt = sim.L, sim.forcing, sim.dt
    a = z + dt * (L @ z + f(t))
    b = 0.75 * z + 0.25 * (a + dt * (L @ a + f(t + dt)))
    return z / 3.0 + 2.0 / 3.0 * (b + dt * (L @ b + f(t + 0.5 * dt)))


def _one_step_at_a_time(step):
    """An ``advance`` that applies ``step`` once per time step."""
    def advance(sim, t, z, m):
        for _ in range(m):
            z = step(sim, t, z)
            t += sim.dt
        return z
    return advance


def _configs(p):
    """Real, Floquet-complex and forced configurations of one wave."""
    def forcing_F(x, t):
        return np.stack([0.2 * np.sin(2 * np.pi * x / p.X + t),
                         np.full_like(x, 0.1 * np.cos(3.0 * t))])

    return [{}, {"floquet_xi": 0.7},
            {"forcing_F": forcing_F,
             "forcing_G": lambda t: np.array([0.3 * np.cos(t), -0.2 * t])}]


def test_assembled_step_is_ssp_rk3(setup_f3, monkeypatch):
    # the assembled step is the three-stage scheme up to rounding: real,
    # complex (Floquet) and forced with time-dependent F and G
    p, cd, w = setup_f3
    N = 64
    for extra, dtype in zip(_configs(p), (np.float64, np.complex128, np.complex128)):
        sim = ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=N, **extra))
        assert sim.dtype == dtype
        u0 = smooth_random(sim.centers, p.X, 11)
        z = ref = np.concatenate([u0[0], u0[1], [0.2]]).astype(dtype)
        t = 0.0
        for _ in range(100):
            z = sim.step(t, z)
            ref = _three_stage_step(sim, t, ref)
            t += sim.dt
        assert np.linalg.norm(z - ref) < 1e-12 * np.linalg.norm(ref)

    # the deflated run starts from (I - P) z0, so the decay fit of the block
    # steps matches the three stages applied one step at a time
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=60.0)
    sim = ds.setup(cfg)
    u0 = ds.random_initial_data(sim.centers, p.X, 3)
    got = ds.measure_decay(ds.deflated_run(cfg, u0, sim=sim))
    monkeypatch.setattr(ds.UpwindSimulator, "advance", _one_step_at_a_time(_three_stage_step))
    ref = ds.measure_decay(ds.deflated_run(cfg, u0, sim=sim))
    assert abs(got.theta_fit - ref.theta_fit) < 1e-9 * ref.theta_fit
    assert abs(got.slaving_constant - ref.slaving_constant) < 1e-9 * ref.slaving_constant


def test_advance_is_repeated_step(setup_f3):
    # block steps with the block map equal one step at a time, for whole
    # blocks, remainders and both: the dense block over a snapshot interval
    # at N = 256 (2N+1 = DENSE_BLOCK_MAX), the sparse M^STEP_BLOCK - I at
    # N = 257, each real and Floquet, and the forced configuration (no block)
    p, cd, w = setup_f3
    cases = [(N, extra, kind) for N, kind in ((256, np.ndarray), (257, scipy.sparse.sparray))
             for extra in ({}, {"floquet_xi": 0.7})]
    for N, extra, kind in cases + [(64, _configs(p)[2], None)]:
        sim = ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=N, **extra))
        k = sim.block_steps
        if kind is np.ndarray:  # one snapshot interval of run
            n_steps = int(np.ceil(sim.cfg.t_end / sim.dt))
            assert k == n_steps // sim.cfg.n_outputs > ds.STEP_BLOCK
        else:
            assert k == ds.STEP_BLOCK
        u0 = smooth_random(sim.centers, p.X, 13)
        z0 = np.concatenate([u0[0], u0[1], [0.2]]).astype(sim.dtype)
        t0 = 0.5
        for m in (1, k - 1, k, k + 1, 2 * k + 3):
            ref = _one_step_at_a_time(ds.UpwindSimulator.step)(sim, t0, z0, m)
            got = sim.advance(t0, z0, m)
            assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)
        if kind is None:
            assert sim.block is None
        else:
            assert isinstance(sim.block, kind) and sim.block.dtype == sim.dtype


def test_block_is_formed_on_first_advance(setup_f3):
    # set-up forms no block; an advance shorter than a block forms none
    # either, and the first one that spans a block forms it once
    p, cd, w = setup_f3
    for N in (64, 256, 257):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=60.0)
        sim = ds.setup(cfg)
        assert sim.block is None
        z = np.ones(2 * N + 1)
        sim.advance(0.0, z, sim.block_steps - 1)
        assert sim.block is None
        sim.advance(0.0, z, sim.block_steps)
        block = sim.block
        assert block.shape == (2 * N + 1, 2 * N + 1)
        ds.run(cfg, np.ones((2, N)), sim=sim)
        assert sim.block is block


def test_dense_block_from_sparse_squarings(setup_f3, monkeypatch):
    # the first squarings of a dense block stay sparse; the block equals the
    # one powered dense from the start, real and Floquet
    p, cd, w = setup_f3
    products = []
    matmul = scipy.sparse.csr_array.__matmul__
    monkeypatch.setattr(scipy.sparse.csr_array, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    for N, extra in ((64, {}), (128, {}), (256, {}), (128, {"floquet_xi": 0.7})):
        sim = ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=60.0, **extra))
        del products[:]
        B = ds._power_minus_identity(sim.increment, sim.block_steps, dense=True)
        assert products
        ref = ds._power_minus_identity(sim.increment.toarray(), sim.block_steps)
        assert isinstance(B, np.ndarray) and B.dtype == sim.dtype
        assert np.max(np.abs(B - ref)) < 1e-14 * np.max(np.abs(ref))


def test_run_times_accumulate_dt_step_by_step(setup_f3):
    # snapshot times are the sums t += dt of a step-by-step loop, bit for bit
    p, cd, w = setup_f3
    for N, t_end, n_outputs in ((64, 7.3, 40), (64, 1.0, 1000), (128, 3.0, 7)):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=t_end,
                           n_outputs=n_outputs)
        sim = ds.setup(cfg)
        traj = ds.run(cfg, smooth_random(sim.centers, p.X, 2), sim=sim)
        n_steps = int(np.ceil(t_end / sim.dt))
        out_every = max(1, n_steps // n_outputs)
        t, ref = 0.0, [0.0]
        for k in range(n_steps):
            t += sim.dt
            if (k + 1) % out_every == 0 or k == n_steps - 1:
                ref.append(t)
        assert traj.times.tolist() == ref


def test_blowup_time_matches_step_by_step(setup_f3, monkeypatch):
    # an inflated index blows the run up at the same snapshot either way
    p, cd, w = setup_f3
    factor = 3.0 / rw.stability_index(p, cd).index
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=40.0,
                       a0_factor=factor, n_outputs=100)
    sim = ds.setup(cfg)
    u0 = smooth_random(sim.centers, p.X, 7)
    got = ds.run(cfg, u0, sim=sim)
    # the growing modes lie outside the slow family, so no decay gap
    # separates it and there is nothing to deflate
    with pytest.raises(NumericalError, match="no decay gap"):
        ds.deflated_run(cfg, u0, sim=sim)
    monkeypatch.setattr(ds.UpwindSimulator, "advance",
                        _one_step_at_a_time(ds.UpwindSimulator.step))
    ref = ds.run(cfg, u0, sim=sim)
    assert got.blew_up and ref.blew_up
    assert got.blowup_time == ref.blowup_time < cfg.t_end
    assert got.times.tolist() == ref.times.tolist()
    assert np.max(np.abs(got.L2 - ref.L2) / ref.L2) < 1e-12


def test_norms_measure_every_snapshot_in_one_call(setup_f3):
    # states along the leading axis give each state's own norms
    p, cd, w = setup_f3
    sim = ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=64, floquet_xi=0.7))
    rng = np.random.default_rng(4)
    U1, U2 = rng.standard_normal((2, 5, 64)) + 1j * rng.standard_normal((2, 5, 64))
    y = rng.standard_normal(5)
    batch = np.array(sim.norms(U1, U2, y))
    single = np.array([sim.norms(a, b, c) for a, b, c in zip(U1, U2, y)]).T
    assert batch.shape == (3, 5)
    assert np.allclose(batch, single, rtol=1e-14, atol=0.0)


def test_zero_data_zero_trajectory(setup_f3):
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=1.0)
    traj = ds.run(cfg, np.zeros((2, 64)))
    assert traj.L2.max() == 0.0
    assert traj.energy.max() == 0.0
    assert np.all(traj.y == 0.0)


def test_linearity(setup_f3):
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=0.5)
    sim = ds.setup(cfg)
    u0a = smooth_random(sim.centers, p.X, 3)
    u0b = smooth_random(sim.centers, p.X, 4)
    ta = ds.run(cfg, u0a, 0.3, sim=sim)
    tb = ds.run(cfg, u0b, -0.1, sim=sim)
    tc = ds.run(cfg, 2.0 * u0a - 0.5 * u0b, 2.0 * 0.3 - 0.5 * (-0.1), sim=sim)
    za = np.concatenate([ta.states[-1].u1, ta.states[-1].u2, [ta.states[-1].y]])
    zb = np.concatenate([tb.states[-1].u1, tb.states[-1].u2, [tb.states[-1].y]])
    zc = np.concatenate([tc.states[-1].u1, tc.states[-1].u2, [tc.states[-1].y]])
    scale = np.max(np.abs(zc)) or 1.0
    assert np.max(np.abs(zc - (2.0 * za - 0.5 * zb))) < 1e-12 * max(1.0, scale)


def test_floquet_phase_periodicity(setup_f3):
    p, cd, w = setup_f3
    xi = 0.7
    sims = []
    for shift in (0.0, 2.0 * np.pi / p.X):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=0.5,
                           floquet_xi=xi + shift)
        sim = ds.setup(cfg)
        u0 = smooth_random(sim.centers, p.X, 5)
        sims.append(ds.run(cfg, u0 + 0j, 0.1 + 0j, sim=sim))
    za = np.concatenate([sims[0].states[-1].u1, sims[0].states[-1].u2])
    zb = np.concatenate([sims[1].states[-1].u1, sims[1].states[-1].u2])
    assert np.max(np.abs(za - zb)) < 1e-12 * max(1.0, np.max(np.abs(za)))


def test_self_convergence_first_order(setup_f3):
    p, cd, w = setup_f3

    def final_state(N):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=0.5)
        sim = ds.setup(cfg)
        u0 = np.stack([np.sin(2 * np.pi * sim.centers / p.X),
                       np.cos(2 * np.pi * sim.centers / p.X)])
        traj = ds.run(cfg, u0, 0.0, sim=sim)
        return sim.centers, traj.states[-1].u1

    x_ref, u_ref = final_state(512)
    errs = []
    for N in (64, 128):
        x, u = final_state(N)
        errs.append(np.max(np.abs(u - np.interp(x, x_ref, u_ref))))
    assert errs[1] < errs[0] / 1.5
    assert errs[1] < 0.2


def test_config_validation(setup_f3):
    p, cd, w = setup_f3
    with pytest.raises(ConfigurationError):
        ds.SimConfig(profile=p, cd=cd, weights=w, N=32)
    with pytest.raises(ConfigurationError):
        ds.SimConfig(profile=p, cd=cd, weights=w, N=64, cfl=1.5)
    with pytest.raises(ConfigurationError):
        ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=-1.0)
    with pytest.raises(ConfigurationError):
        ds.SimConfig(profile=p, cd=cd, weights=w, N=64, n_outputs=0)


# ---------------------------------------------------------------------------
# decay and growth
# ---------------------------------------------------------------------------


def test_stable_profile_decay(setup_f3):
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=256, t_end=60.0,
                       n_outputs=300)
    sim = ds.setup(cfg)
    u0 = smooth_random(sim.centers, p.X, 42)
    traj = ds.deflated_run(cfg, u0)
    rep = ds.measure_decay(traj)
    assert rep.theta_fit > 0
    assert rep.r_squared > 0.99
    assert rep.deflated
    assert np.isfinite(rep.slaving_constant)
    # energy decays monotonically after the transient
    tail = traj.energy[traj.times > 0.3 * traj.times[-1]]
    assert np.all(np.diff(tail) < 1e-12 + 1e-6 * tail[:-1])


def test_theta_against_hf_abscissa(setup_f3):
    p, cd, w = setup_f3
    rep_idx = rw.stability_index(p, cd)
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=256, t_end=60.0)
    sim = ds.setup(cfg)
    u0 = smooth_random(sim.centers, p.X, 11)
    rep = ds.measure_decay(ds.deflated_run(cfg, u0))
    target = -2.0 * rep_idx.hf_abscissa
    assert rep.theta_fit > 0 and target > 0
    assert 1.0 / 30.0 < rep.theta_fit / target < 30.0


def test_sonic_only_data_decays(setup_f3):
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=256, t_end=60.0)
    sim = ds.setup(cfg)
    u0 = np.zeros((2, 256))
    u0[1] = np.sin(2 * np.pi * sim.centers / p.X) + 0.3
    traj = ds.deflated_run(cfg, u0)
    rep = ds.measure_decay(traj)
    assert rep.theta_fit > 0
    assert rep.r_squared > 0.99


def test_real_deflation_stays_real(setup_f3):
    # at xi = 0 with no forcing the dynamics is real, and so is every
    # recorded and deflated state
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=10.0, n_outputs=60)
    sim = ds.setup(cfg)
    assert sim.dtype == np.float64
    traj = ds.deflated_run(cfg, smooth_random(sim.centers, p.X, 5), sim=sim)
    assert traj.deflation_rank > 0
    assert traj.y.dtype == np.float64
    for s in traj.states:
        assert s.u1.dtype == np.float64 and s.u2.dtype == np.float64
        assert isinstance(s.y, np.float64)


def _energies(sim, Z):
    N = sim.cfg.N
    return np.array([sim.norms(z[:N], z[N:2 * N], z[2 * N])[2] for z in Z])


@pytest.mark.parametrize("forced", [False, True])
def test_deflation_is_a_trajectory_of_the_scheme(setup_f3, forced):
    # P commutes with the SSP-RK3 step, so deflating a trajectory is the same
    # as running the scheme from (I - P) z0.  A forced run deflates to that
    # run plus its deflated response to the forcing from zero data.  An
    # oblique projector is needed: an orthogonal one onto the right
    # eigenvectors does not commute with L and fails both comparisons.
    p, cd, w = setup_f3
    N = 64
    base = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=10.0, n_outputs=50)
    sim = ds.setup(base)
    u0 = smooth_random(sim.centers, p.X, 21)
    y0 = 0.2
    _, _, V, Wh = ds.slow_family(sim)
    z0 = np.concatenate([u0[0], u0[1], [y0]])
    z0 = z0 - (V @ (Wh @ z0)).real
    ref = ds.run(base, np.stack([z0[:N], z0[N:2 * N]]), z0[2 * N], sim=sim).Z
    if forced:
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=10.0, n_outputs=50,
                           forcing_G=lambda t: np.array([0.3 * np.cos(t), -0.2]))
        fsim = ds.setup(cfg)
        got = (ds.deflated_run(cfg, u0, y0, sim=fsim).Z
               - ds.deflated_run(cfg, np.zeros((2, N)), sim=fsim).Z)
    else:
        traj = ds.deflated_run(base, u0, y0, sim=sim)
        assert traj.deflation_rank == 3
        got = traj.Z
    e_ref = _energies(sim, ref)
    assert np.max(np.abs(_energies(sim, got) - e_ref) / e_ref) < 1e-8


def test_theta_is_twice_the_spectral_gap(setup_f3):
    # the energy is quadratic in the state, so it decays at twice the gap
    p, cd, w = setup_f3
    for N in (64, 128, 256):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=60.0)
        sim = ds.setup(cfg)
        traj = ds.deflated_run(cfg, ds.random_initial_data(sim.centers, p.X, 3), sim=sim)
        rep = ds.measure_decay(traj)
        assert traj.deflation_rank == 3
        assert rep.spectral_gap == traj.spectral_gap and traj.spectral_gap > 0
        assert 0.9 <= rep.theta_fit / (2.0 * rep.spectral_gap) <= 1.15
    assert ds.measure_decay(ds.run(cfg, np.ones((2, N)), sim=sim)).spectral_gap is None


def test_unstable_slow_eigenvalue_is_a_discretization_artefact(setup_f3):
    # the slow cluster holds one real eigenvalue with a positive real part;
    # it shrinks under grid refinement
    p, cd, w = setup_f3
    growth = []
    for N in (64, 128, 256):
        sim = ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=N))
        lam = ds.slow_family(sim)[0]
        assert np.sum(lam.real > 0) == 1
        growth.append(lam.real.max())
    assert growth[1] < 0.8 * growth[0] and growth[2] < 0.8 * growth[1]


def test_no_gap_no_slow_family(setup_f3, monkeypatch):
    p, cd, w = setup_f3
    sim = ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=64))
    monkeypatch.setattr(ds, "SLOW_GAP_RATIO", 1e3)
    with pytest.raises(NumericalError):
        ds.slow_family(sim)


def test_growing_spectrum_has_no_slow_family(setup_f3):
    # with the index inflated to 3 the first eigenvalue of L outside the
    # slow cluster grows: its -Re would be a negative spectral gap
    p, cd, w = setup_f3
    factor = 3.0 / rw.stability_index(p, cd).index
    sim = ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=64, a0_factor=factor))
    with pytest.raises(NumericalError, match="no decay gap separates the slow family"):
        ds.slow_family(sim)
    # the same check passes on the physical index
    assert ds.slow_family(ds.setup(ds.SimConfig(profile=p, cd=cd, weights=w, N=64)))[1] > 0


def test_synthetic_instability_grows(setup_f3):
    p, cd, w = setup_f3
    rep_idx = rw.stability_index(p, cd)
    factor = 1.5 / rep_idx.index
    assert factor * rep_idx.index > 1.0
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=128, t_end=20.0,
                       a0_factor=factor)
    sim = ds.setup(cfg)
    u0 = smooth_random(sim.centers, p.X, 7)
    traj = ds.run(cfg, u0, sim=sim)
    assert traj.energy[-1] > 50.0 * traj.energy[0]


def test_one_period_map_growth_oracle(setup_f3):
    # dominant one-period multiplier exceeds 1 exactly in the inflated case
    p, cd, w = setup_f3

    def dominant_growth(a0_factor, periods=30):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=1.0,
                           a0_factor=a0_factor)
        sim = ds.setup(cfg)
        rng = np.random.default_rng(8)
        u1 = rng.standard_normal(64)
        u2 = rng.standard_normal(64)
        z = np.concatenate([u1, u2, [0.1]])
        steps = int(np.ceil(p.X / sim.dt))
        growths = []
        for k in range(periods):
            t = 0.0
            for _ in range(steps):
                z = sim.step(t, z)
                t += sim.dt
            norm = np.sqrt(np.sum(z**2))
            growths.append(norm)
            z = z / norm
        return np.median(growths[-10:])

    rep_idx = rw.stability_index(p, cd)
    assert dominant_growth(2.0 / rep_idx.index) > 1.05
    # the baseline dynamics has its slow cluster at modulus about one
    assert dominant_growth(1.0) < 1.05


def test_bounded_forcing_bounded_energy(setup_f3):
    p, cd, w = setup_f3

    def forcing(x, t):
        return np.stack([0.05 * np.sin(2 * np.pi * x / p.X) * np.cos(t),
                         0.05 * np.cos(2 * np.pi * x / p.X) * np.sin(1.3 * t)])

    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=128, t_end=40.0,
                       forcing_F=forcing)
    traj = ds.run(cfg, np.zeros((2, 128)))
    assert not traj.blew_up
    assert np.all(np.isfinite(traj.energy))
    # the response saturates: the late maximum does not exceed the global one
    late = traj.energy[traj.times > 0.5 * traj.times[-1]]
    assert late.max() <= 1.05 * traj.energy.max()
    assert traj.energy.max() < 1e6


def test_shock_forcing_drives_shift(setup_f3):
    # constant forcing_G from the zero state: after one step the shift is
    # dt * (y_row_G . g) to first order, and the boundary trace reaches only
    # the cells next to the right face
    p, cd, w = setup_f3
    jc = rw.jump_coefficients(p, cd)
    g = np.array([0.3, -0.7])
    rel = []
    for N in (64, 128):
        cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=N, t_end=1.0,
                           forcing_G=lambda t: g)
        sim = ds.setup(cfg)
        z = sim.step(0.0, np.zeros(2 * N + 1))
        target = sim.dt * (jc.y_row_G @ g)
        rel.append(abs(z[2 * N] - target) / abs(target))
        assert np.all(z[:N - 3] == 0.0)
        assert np.all(z[N:2 * N - 2] == 0.0)
        assert np.any(z[N - 3:N] != 0.0)
    assert rel[0] < 2e-3 and rel[1] < 1e-3
    assert rel[1] < 0.6 * rel[0]  # the remainder is O(dt^2)


def test_energy_norm_equivalence(setup_f3):
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=128, t_end=1.0)
    sim = ds.setup(cfg)
    lo, hi = sim.equivalence
    assert lo > 0 and hi > lo
    rng = np.random.default_rng(9)
    for _ in range(20):
        u1 = rng.standard_normal(128)
        u2 = rng.standard_normal(128)
        l2, h1, en = sim.norms(u1, u2, 0.0)
        assert en >= 0.5 * lo * h1**2
        assert en <= 2.0 * hi * h1**2


def test_trajectory_records_shift(setup_f3):
    p, cd, w = setup_f3
    cfg = ds.SimConfig(profile=p, cd=cd, weights=w, N=64, t_end=1.0)
    sim = ds.setup(cfg)
    u0 = smooth_random(sim.centers, p.X, 12)
    traj = ds.run(cfg, u0, 0.0, sim=sim)
    assert np.any(np.abs(traj.y) > 0)  # traces drive the shift
    assert len(traj.states) == len(traj.times)
