"""Discrete verification of the exponential energy damping estimate.

The linearized roll-wave dynamics on one periodic cell,

    d_t u_1 + alpha_1 d_x u_1 = -gamma_1 u_1 - beta_1 u_2 + f_1,
    d_t u_2 + alpha_2 d_x u_2 = -beta_2 u_1 - gamma_2 u_2 + f_2,

is closed by a single boundary condition for the transverse mode (its
characteristics enter the cell at the right end) and by the shift equation
for the shock location; the sonic mode leaves the cell at both ends and
needs no boundary data.  A first-order upwind finite-volume scheme in the
conservative form ``d_t u + d_x(alpha u) = (alpha' - gamma) u - beta u' + f``
is used, with the sonic height placed on a cell interface so that the sonic
flux vanishes identically and the upwind direction flips there: no
information crosses the sonic interface, matching the characteristic
picture.  The semi-discrete system is linear: on the state z = (u_1, u_2, y)
of length 2N+1 it reads dz/dt = L z + f(t), with L one sparse operator
assembled when the simulator is built (upwind divergence, reaction and
coupling diagonals, the boundary trace entering through the inflow face of
u_1, the shift row) and f the affine term of the forcings.  Time stepping
is strong-stability-preserving third-order Runge-Kutta under a CFL bound on
the largest speed.  For a linear system one such step with h = dt is the
map z' = M z + (h/6)(I + hL)^2 f(t) + (h/6)(I + hL) f(t + h)
+ (2h/3) f(t + h/2), M = I + hL + (hL)^2/2 + (hL)^3/6, so the simulator
assembles M - I and the three forcing polynomials once.  Without forcing it
advances the state with one block map B = M^k - I, formed by binary powering
on the first advance that applies it (never for a simulator that only
provides a grid): k steps are one matrix-vector product with B, and the
remainder of an interval that k does not divide is taken one step at a
time.  On states of at most ``DENSE_BLOCK_MAX`` = 513 entries (N <= 256) B is
dense and k is the run's snapshot interval, so a run costs one BLAS matvec
per snapshot; M^k - I is full there anyway.  On larger states forming a
dense power costs as much as the stepping it saves or more, so B is the
sparse M^8 - I (``STEP_BLOCK``).  A forced step samples the forcing, so
forced runs apply the one-step map step by step.

The monitored energy is

    E(u) = 1/2 <D du, du> + <du, K u> + 1/2 C0' ||u||^2,

with D the diagonal of the damping weights and K the skew compensator that
cancels the beta cross couplings.  At the co-periodic phase the exact system
carries a small invariant family (the translation of the wave and, through
mass conservation, one generalized direction, plus possible sonic-resonance
remnants); the energy estimate slaves these to the L^2 and shift norms
rather than damping them.  In the discrete operator the family is the
cluster of eigenvalues of L nearest 0, separated from the rest of the
spectrum by a jump in modulus, so decay-rate measurements first remove it
with the spectral projector P of L onto that cluster.  P commutes with L and
so with M, the polynomial of L that steps the state: a deflated run starts
from (I - P) z0 and projects its recorded states once more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (ConfigurationError, HyperbolicityError, InvalidInputError,
                     NumericalError)
from .rollwave import (
    CharacteristicData,
    DampingWeights,
    RollWaveProfile,
)

__all__ = [
    "SimConfig",
    "SimState",
    "SimTrajectory",
    "DecayReport",
    "kawashima_K",
    "setup",
    "UpwindSimulator",
    "run",
    "slow_family",
    "deflated_run",
    "measure_decay",
    "upwind_stencil",
]


# ---------------------------------------------------------------------------
# compensator
# ---------------------------------------------------------------------------


def kawashima_K(cd: CharacteristicData, weights: DampingWeights | None = None,
                amplitude: float = 1.0, x=None, speed_tol: float = 1e-10):
    """Skew compensator cancelling the weighted beta cross terms.

    With K = [[0, k], [-k, 0]] the commutator with diag(alpha_1, alpha_2) is
    the symmetric off-diagonal matrix ``k (alpha_2 - alpha_1) [[0,1],[1,0]]``;
    choosing ``k = (beta_1 Omega_1 + beta_2 Omega_2) / (2 (alpha_2 -
    alpha_1))`` (times the amplitude) makes it match the symmetric part of
    the weighted coupling.  Returns an (npts, 2, 2) array of skew matrices.
    """
    xs = cd.grid if x is None else np.asarray(x, dtype=float)
    h = np.atleast_1d(cd.fields.h(xs))
    w1, w2 = (1.0, 1.0) if weights is None else weights.weights_at(xs, h)
    k = _compensator_k(cd.fields, h, w1, w2, amplitude, speed_tol)
    K = np.zeros(k.shape + (2, 2))
    K[..., 0, 1] = k
    K[..., 1, 0] = -k
    return K


def _compensator_k(f, h, w1, w2, amplitude, speed_tol=1e-10):
    """The entry k of :func:`kawashima_K` at the profile heights h (a 1-d
    array) from the weights there; ``f`` holds the characteristic fields."""
    gaps = f.alpha2_h(h) - f.alpha1_h(h)
    if np.any(np.abs(gaps) < speed_tol):
        raise HyperbolicityError("characteristic speeds too close for a compensator")
    M = f.coupling_matrix_h(h)
    return amplitude * (M[..., 0, 1] * w1 + M[..., 1, 0] * w2) / (2.0 * gaps)


def upwind_stencil(speeds_f, dx):
    """First-order upwind discretization of ``-d_x(speed u)`` on one row of cells.

    ``speeds_f`` holds the N+1 interface speeds; the donor of each interface
    is the cell upstream of it.  Returns ``(rows, cols, vals, w_left,
    w_right)``: the COO triplets of the N x N operator with zero inflow, and
    the weights with which an inflow value at the left or right boundary face
    enters the first or last row (0 at a face that carries outflow).
    """
    s = np.asarray(speeds_f, dtype=float)
    n = s.shape[0] - 1
    faces = np.arange(n + 1)
    donor = np.where(s > 0, faces - 1, faces)  # -1 and n stand for inflow
    # face f bounds cells f - 1 and f
    rows = np.concatenate([faces[:-1], faces[1:] - 1])
    cols = np.concatenate([donor[:-1], donor[1:]])
    vals = np.concatenate([s[:-1] / dx, -s[1:] / dx])
    inside = (cols >= 0) & (cols < n)
    return (rows[inside], cols[inside], vals[inside],
            vals[cols < 0].sum(), vals[cols == n].sum())


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass
class SimConfig:
    """Inputs for one simulation on a single periodic cell.

    ``floquet_xi`` applies the phase ``exp(i xi X)`` to traces referenced
    across the shock (0 keeps the dynamics real).  ``a0_factor`` synthetically
    inflates the boundary reflection coefficient; values pushing the
    effective index above one manufacture an instability for validation.
    Forcings are optional callables ``forcing_F(x, t) -> (2, len(x))`` in the
    physical w-coordinates and ``forcing_G(t) -> (2,)`` at the shock.
    """

    profile: RollWaveProfile
    cd: CharacteristicData
    weights: DampingWeights
    N: int = 256
    cfl: float = 0.45
    t_end: float = 10.0
    floquet_xi: float = 0.0
    a0_factor: float = 1.0
    n_outputs: int = 400
    compensator_amplitude: float = 1.0
    forcing_F: Optional[Callable] = None
    forcing_G: Optional[Callable] = None

    def __post_init__(self):
        if self.N < 64:
            raise ConfigurationError("need at least 64 cells")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigurationError("CFL number must lie in (0, 1)")
        if self.t_end <= 0:
            raise ConfigurationError("t_end must be positive")
        if self.n_outputs < 1:
            raise ConfigurationError("need at least one output")


@dataclass(frozen=True)
class SimState:
    """Snapshot of the discrete state, in the simulator dtype, with its norms."""

    t: float
    u1: np.ndarray
    u2: np.ndarray
    y: float | complex
    L2_norm: float
    H1_norm: float
    energy: float


@dataclass
class SimTrajectory:
    """Snapshots of a run: row j of Z is the state (u1, u2, y) at times[j]."""

    times: np.ndarray
    L2: np.ndarray
    H1: np.ndarray
    energy: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    blew_up: bool
    blowup_time: float | None
    config: SimConfig
    equivalence: tuple
    deflation_rank: int = 0
    spectral_gap: float | None = None

    @property
    def states(self):
        """One :class:`SimState` per snapshot; its vectors are views of Z."""
        N = self.config.N
        return [SimState(t=t, u1=z[:N], u2=z[N:2 * N], y=c, L2_norm=l, H1_norm=h, energy=e)
                for t, z, c, l, h, e in zip(self.times, self.Z, self.y, self.L2, self.H1,
                                            self.energy)]


@dataclass(frozen=True)
class DecayReport:
    """Exponential fit of the energy decay and the slaving constant.

    ``theta_fit`` is minus the slope of log energy over the post-transient
    window; ``slaving_constant`` is the smallest C with
    ``H1(t)^2 <= C exp(-theta t) H1(0)^2 + C sup_{tau<=t} (L2^2 + |y|^2)``
    along the trajectory.  ``spectral_gap`` is the deflated trajectory's
    discrete spectral gap (None without deflation); an energy quadratic in
    the state decays at about twice it.
    """

    theta_fit: float
    r_squared: float
    slaving_constant: float
    eta1_used: float
    epsilon_used: float
    deflated: bool
    spectral_gap: float | None = None

    def to_dict(self):
        return {
            "theta_fit": float(self.theta_fit),
            "r_squared": float(self.r_squared),
            "slaving_constant": float(self.slaving_constant),
            "eta1_used": float(self.eta1_used),
            "epsilon_used": float(self.epsilon_used),
            "deflated": bool(self.deflated),
            "spectral_gap": (None if self.spectral_gap is None
                             else float(self.spectral_gap)),
        }


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------

STEP_BLOCK = 8  # steps in the sparse block map M^k - I of large unforced states
# Largest state 2N+1 (N = 256) whose block map is the dense M^k - I over a
# whole snapshot interval.  Above it forming the dense power costs about as
# much as the stepping it replaces or more: at t_end = 60, N = 512 takes
# 0.56 s to form and 0.16 s of products against 0.62 s of sparse stepping,
# N = 1024 7.2 s to form against 2.7 s (one BLAS thread)
DENSE_BLOCK_MAX = 513
# Fill at which the powers forming a dense block map switch from sparse to
# dense products.  At N = 256, t_end = 60 the block then forms in 63 ms
# instead of 85 ms powered dense from the start (one BLAS thread); 0.05 and
# 0.2 took 64 and 84 ms
DENSE_FILL = 0.1


def _power_minus_identity(P, k, dense=False):
    """M^k - I from the sparse P = M - I by binary powering with the identity
    kept out: a squaring is (M^j)^2 - I = 2P + P^2 and a product of two
    powers is M^i M^j - I = S + P + S P.  With ``dense`` the result is a
    dense array: the powers stay sparse until one is ``DENSE_FILL`` full,
    and from there on the products are dense."""
    S = None
    while True:
        if dense and scipy.sparse.issparse(P) and P.nnz > DENSE_FILL * P.shape[0] ** 2:
            P = P.toarray()
        if k & 1:
            S = P if S is None else S + P + S @ P
        k >>= 1
        if not k:
            return S.toarray() if dense and scipy.sparse.issparse(S) else S
        P = 2.0 * P + P @ P


def _snapshot_interval(cfg, dt):
    """``(n_steps, out_every)``: the steps of a run to ``cfg.t_end`` and the
    steps between two of its snapshots."""
    n_steps = int(np.ceil(cfg.t_end / dt))
    return n_steps, max(1, n_steps // cfg.n_outputs)


class UpwindSimulator:
    """Discrete operator bundle for one cell; see the module docstring."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        p = cfg.profile
        f = cfg.cd.fields
        N = cfg.N

        # sonic point on a cell interface
        n_left = min(max(int(round(N * p.x_s / p.X)), 2), N - 2)
        faces = np.concatenate([
            np.linspace(0.0, p.x_s, n_left + 1),
            np.linspace(p.x_s, p.X, N - n_left + 1)[1:],
        ])
        self.faces = faces
        self.centers = 0.5 * (faces[:-1] + faces[1:])
        self.dx = np.diff(faces)
        self.i_sonic = n_left

        # the profile is evaluated once on each point set; every field
        # below is a closed form in the heights
        h_f = np.asarray(p.h_of_x(faces))
        h = np.asarray(p.h_of_x(self.centers))
        self.a1_f = f.alpha1_h(h_f)
        self.a2_f = f.alpha2_h(h_f)
        self.a2_f[self.i_sonic] = 0.0  # exact sonic interface
        Mc = f.coupling_matrix_h(h)
        slope = p.slope(h)
        c1 = f.dalpha1_dh(h) * slope - Mc[:, 0, 0]
        c2 = f.dalpha2_dh(h) * slope - Mc[:, 1, 1]
        b1, b2 = Mc[:, 0, 1], Mc[:, 1, 0]

        jc = cfg.cd.stability  # the wave's one boundary solve
        forced = cfg.forcing_F is not None or cfg.forcing_G is not None
        is_real = abs(cfg.floquet_xi) < 1e-300 and not forced
        self.dtype = np.float64 if is_real else np.complex128
        # Floquet phase of traces referenced across the shock
        ph = 1.0 if is_real else np.exp(1j * cfg.floquet_xi * p.X)

        # one sparse map from (z, F_1, F_2, G) to dz/dt, z = (u1, u2, y): its
        # first 2N+1 columns are L and the rest give f(t).  The incoming u1
        # trace at the right face is the boundary-trace row times that face's
        # inflow weight.  F, in the physical w-coordinates, reaches the modes
        # through the rows of T^{-1} A0^{-1}, with
        # T^{-1} = [[-1/(2phi), 1/2], [1/(2phi), 1/2]] and
        # A0^{-1} = [[1, 0], [-U/h, 1/h]]
        U = p.c - p.q / h
        phi = p.model.froude * np.sqrt(h)
        n = 2 * N + 1
        cells, iy, iF, iG = np.arange(N), 2 * N, n, n + 2 * N
        r1, k1, v1, _, w_in = upwind_stencil(self.a1_f, self.dx)
        r2, k2, v2, _, _ = upwind_stencil(self.a2_f, self.dx)
        blocks = [
            (r1, k1, v1), (N + r2, N + k2, v2),
            (cells, cells, c1), (cells, N + cells, -b1),
            (N + cells, cells, -b2), (N + cells, N + cells, c2),
            ([N - 1] * 6, [0, 2 * N - 1, N, iy, iG, iG + 1],
             w_in * np.r_[cfg.a0_factor * jc.a0 * ph, jc.b0, jc.c0 * ph,
                          jc.e0 * ph, ph * np.asarray(jc.d0)]),
            ([iy] * 6, [iy, 0, N, 2 * N - 1, iG, iG + 1],
             np.r_[jc.y_row_y, jc.y_row_u1_0, jc.y_row_u2_0,
                   jc.y_row_u2_X * np.conj(ph), jc.y_row_G]),
            (cells, iF + cells, -1.0 / (2.0 * phi) - U / (2.0 * h)),
            (cells, iF + N + cells, 0.5 / h),
            (N + cells, iF + cells, 1.0 / (2.0 * phi) - U / (2.0 * h)),
            (N + cells, iF + N + cells, 0.5 / h),
        ]
        rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
        A = scipy.sparse.csr_array((vals.astype(self.dtype), (rows, cols)),
                                   shape=(n, iG + 2))
        self.L = A[:, :n]
        self.forcing_map = A[:, n:] if forced else None

        speed = max(np.max(np.abs(self.a1_f)), np.max(np.abs(self.a2_f)))
        self.dt = cfg.cfl * np.min(self.dx) / speed

        # the SSP-RK3 step as one map z' = z + increment @ (z, f-values at
        # t, t + h, t + h/2); see the module docstring.  The identity stays
        # out of the stored matrix: rounding 1 + (M - I)_ii perturbs every
        # step the same way, and that bias builds up along the slow family
        # that deflation later subtracts (at N = 1024, theta_fit moved off
        # the three-stage value by 1.3e-3 relative with M stored, 4e-5 with
        # M - I)
        dt = self.dt
        hL = dt * self.L
        eye = scipy.sparse.eye_array(n, dtype=self.dtype, format="csr")
        inc = hL @ (eye + hL @ (0.5 * eye + hL / 6.0))
        if forced:
            G1 = (dt / 6.0) * ((eye + hL) @ self.forcing_map)
            inc = scipy.sparse.hstack(
                [inc, G1 + hL @ G1, G1, (2.0 * dt / 3.0) * self.forcing_map])
        self.increment = inc.tocsr()
        # the block map B = M^k - I of unforced runs (see advance): dense
        # over one snapshot interval on small states, else the sparse
        # M^STEP_BLOCK - I.  An interval of at most STEP_BLOCK steps keeps
        # the sparse map too: at N = 256 one dense product costs as much as
        # about 7 single steps (52 against 7.5 us)
        interval = _snapshot_interval(cfg, dt)[1]
        self._dense_block = n <= DENSE_BLOCK_MAX and interval > STEP_BLOCK
        self.block_steps = interval if self._dense_block else STEP_BLOCK
        self.block = None  # formed by the first advance that needs it

        # energy pieces at interior interfaces
        inner = faces[1:-1]
        self.ddx = np.diff(self.centers)
        self.om1_f, self.om2_f = cfg.weights.weights_at(inner, h_f[1:-1])
        self.k_f = _compensator_k(f, h_f[1:-1], self.om1_f, self.om2_f,
                                  cfg.compensator_amplitude)
        om_min = float(min(self.om1_f.min(), self.om2_f.min()))
        k_max = float(np.max(np.abs(self.k_f)))
        self.c0prime_threshold = k_max * k_max / om_min
        self.c0prime = 2.0 * self.c0prime_threshold + 1.0
        # equivalence constants of E with the broken H1 norm squared
        lo = np.linalg.eigvalsh(np.array([
            [0.5 * om_min, -0.5 * k_max],
            [-0.5 * k_max, 0.5 * self.c0prime],
        ]))[0]
        om_max = float(max(self.om1_f.max(), self.om2_f.max()))
        hi = np.linalg.eigvalsh(np.array([
            [0.5 * om_max, 0.5 * k_max],
            [0.5 * k_max, 0.5 * self.c0prime],
        ]))[1]
        self.equivalence = (float(lo), float(hi))

    # -- time stepping -------------------------------------------------------

    def _forcing_values(self, t):
        """The raw forcings (F_1, F_2, G) at time t, one vector."""
        cfg = self.cfg
        F = (np.zeros((2, cfg.N)) if cfg.forcing_F is None
             else np.asarray(cfg.forcing_F(self.centers, t)))
        g = np.zeros(2) if cfg.forcing_G is None else np.asarray(cfg.forcing_G(t))
        return np.concatenate([F.ravel(), g])

    def forcing(self, t):
        """The affine term f(t) of dz/dt = L z + f(t); 0 without forcings."""
        if self.forcing_map is None:
            return 0.0
        return self.forcing_map @ self._forcing_values(t)

    def step(self, t, z):
        """One SSP-RK3 step of the state z = (u1, u2, y): one sparse matvec."""
        if self.forcing_map is None:
            return z + self.increment @ z
        fv = self._forcing_values
        return z + self.increment @ np.concatenate(
            [z, fv(t), fv(t + self.dt), fv(t + 0.5 * self.dt)])

    def advance(self, t, z, m):
        """``m`` SSP-RK3 steps of the state z from time t.

        Without forcing this is ``m // block_steps`` products with the block
        map ``block`` = M^k - I, k = ``block_steps``, and the remaining
        ``m % block_steps`` steps one :meth:`step` at a time.  On states of
        at most ``DENSE_BLOCK_MAX`` entries the block is dense and spans one
        snapshot interval of ``run``, so a run makes one BLAS matvec per
        snapshot; on larger states it is the sparse M^STEP_BLOCK - I.  The
        block is formed by the first call that applies it.  A forced step
        samples the forcing, so with forcing all ``m`` steps are
        :meth:`step` calls.
        """
        blocks, rest = ((0, m) if self.forcing_map is not None
                        else divmod(m, self.block_steps))
        if blocks:
            if self.block is None:
                self.block = _power_minus_identity(self.increment, self.block_steps,
                                                   dense=self._dense_block)
            for _ in range(blocks):
                z = z + self.block @ z
        # t stays behind after the blocks: only forced steps read it
        for _ in range(rest):
            z = self.step(t, z)
            t += self.dt
        return z

    # -- norms and energy -----------------------------------------------------

    def _l2sq(self, u1, u2):
        return (np.abs(u1) ** 2 + np.abs(u2) ** 2) @ self.dx

    def norms(self, u1, u2, y):
        """L2 norm, broken H1 norm and energy of the states (u1, u2, y).

        Cell values run along the last axis; leading axes index states, so
        one call measures a whole trajectory.  Each sum over the cells is a
        product with a vector of interface widths.
        """
        l2sq = self._l2sq(u1, u2)
        d1 = np.diff(u1, axis=-1) / self.ddx
        d2 = np.diff(u2, axis=-1) / self.ddx
        cross = ((np.conj(d1) * (u2[..., 1:] + u2[..., :-1])
                  - np.conj(d2) * (u1[..., 1:] + u1[..., :-1])).real
                 @ (0.5 * self.k_f * self.ddx))
        # squared moduli in place of the differences: fewer snapshot-sized
        # arrays are alive at once
        d1, d2 = np.abs(d1) ** 2, np.abs(d2) ** 2
        dsq = (d1 + d2) @ self.ddx
        energy = (0.5 * (d1 @ (self.om1_f * self.ddx) + d2 @ (self.om2_f * self.ddx))
                  + cross + 0.5 * self.c0prime * l2sq)
        return np.sqrt(l2sq), np.sqrt(l2sq + dsq), energy


def setup(cfg: SimConfig) -> UpwindSimulator:
    """Build the discrete operator bundle for a configuration."""
    return UpwindSimulator(cfg)


def run(cfg: SimConfig, u0, y0=0.0, sim: UpwindSimulator | None = None) -> SimTrajectory:
    """Evolve initial data and record norms, energy and shift.

    ``u0`` is a (2, N) array of mode values at cell centers.  A snapshot is
    recorded every ``n_steps // n_outputs`` steps and after the last one;
    ``sim.advance`` carries the state from one snapshot to the next.
    Blow-up (an L2 norm above 1e12 at a snapshot) stops the run and is
    flagged with the failure time.
    """
    sim = sim or UpwindSimulator(cfg)
    N = cfg.N
    n_steps, out_every = _snapshot_interval(cfg, sim.dt)
    ends = np.append(np.arange(0, n_steps, out_every), n_steps)
    # cumsum adds dt one step at a time, as a step-by-step loop would
    times = np.cumsum(np.r_[0.0, np.full(n_steps, sim.dt)])[ends]
    Z = np.empty((ends.size, 2 * N + 1), dtype=sim.dtype)
    Z[0] = _initial_state(cfg, u0, y0)
    blowup_time = None
    for j in range(1, ends.size):
        Z[j] = sim.advance(times[j - 1], Z[j - 1], ends[j] - ends[j - 1])
        l2 = np.sqrt(sim._l2sq(Z[j, :N], Z[j, N:2 * N]))
        if not np.isfinite(l2) or l2 > 1e12:
            blowup_time = times[j]
            break
    return _snapshots(cfg, sim, times[:j + 1], Z[:j + 1], blowup_time)


def _initial_state(cfg, u0, y0):
    """The state z = (u1, u2, y) of (2, N) mode values and a shift."""
    u0 = np.asarray(u0)
    if u0.shape != (2, cfg.N):
        raise InvalidInputError(f"initial data must have shape (2, {cfg.N})")
    return np.concatenate([u0[0], u0[1], [y0]])


def _snapshots(cfg, sim: UpwindSimulator, times, Z, blowup_time=None) -> SimTrajectory:
    """The trajectory of the states Z (one per row) at ``times``, measured
    by one call of ``sim.norms``."""
    N = cfg.N
    y = Z[:, 2 * N]
    L2, H1, energy = sim.norms(Z[:, :N], Z[:, N:2 * N], y)
    return SimTrajectory(
        times=times, L2=L2, H1=H1, energy=energy, y=y, Z=Z,
        blew_up=blowup_time is not None, blowup_time=blowup_time, config=cfg,
        equivalence=sim.equivalence,
    )


# ---------------------------------------------------------------------------
# slow-mode deflation and decay measurement
# ---------------------------------------------------------------------------

SLOW_EIGS = 6  # eigenvalues of L nearest 0 searched for the slow cluster
SLOW_GAP_RATIO = 10.0  # smallest modulus jump that separates a slow cluster


def random_initial_data(centers, X, seed, modes: int = 8):
    """Seeded smooth random field: a few Fourier modes with decaying weights.

    Grid-scale white noise would only exercise the numerical dissipation of
    the upwind scheme; decay measurements want resolvable content.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, modes))
    b = rng.standard_normal((2, modes))
    out = np.zeros((2, len(centers)))
    for m in range(modes):
        for c in range(2):
            out[c] += (a[c, m] * np.cos(2 * np.pi * (m + 1) * centers / X)
                       + b[c, m] * np.sin(2 * np.pi * (m + 1) * centers / X)) / (m + 1)
    return out


def slow_family(sim: UpwindSimulator):
    """Spectral projector of L onto its cluster of eigenvalues near 0.

    The ``SLOW_EIGS`` eigenvalues of L nearest 0 and the left eigenvectors
    of the same cluster come from shift-invert ARPACK on L and L^H.  The
    slow cluster is every eigenvalue before the largest jump in modulus;
    conjugate eigenvalues have equal moduli, so the cut never splits a pair.
    Returns ``(eigenvalues, spectral_gap, V, Wh)``: the cluster, -Re of the
    first eigenvalue outside it, and the factors of the projector
    ``P = V @ Wh`` with ``Wh = (W^H V)^{-1} W^H``.  A jump below
    ``SLOW_GAP_RATIO`` raises ``NumericalError``: no gap then separates a
    slow family.  So does a first eigenvalue outside the cluster with a
    nonnegative real part: the rest of the spectrum then does not decay, and
    ``spectral_gap`` would name a growth rate.
    """
    L = sim.L
    v0 = np.ones(L.shape[0], dtype=sim.dtype)  # a fixed start keeps runs repeatable
    lam, V = scipy.sparse.linalg.eigs(L, k=SLOW_EIGS, sigma=0, v0=v0)
    mu, W = scipy.sparse.linalg.eigs(L.conj().T, k=SLOW_EIGS, sigma=0, v0=v0)
    order = np.argsort(np.abs(lam))
    modulus = np.abs(lam[order])
    jumps = modulus[1:] / modulus[:-1]
    rank = int(np.argmax(jumps)) + 1
    if jumps[rank - 1] < SLOW_GAP_RATIO:
        raise NumericalError(
            f"no gap separates a slow family: the largest modulus jump among the "
            f"{SLOW_EIGS} eigenvalues of L nearest 0 is {jumps[rank - 1]:.3g}")
    gap = float(-lam[order[rank]].real)
    if gap <= 0:
        raise NumericalError(
            f"no decay gap separates the slow family: the first eigenvalue of L "
            f"outside it has real part {-gap:.3g}")
    V = V[:, order[:rank]]
    Wt = W[:, np.argsort(np.abs(mu))[:rank]].conj().T
    return lam[order[:rank]], gap, V, np.linalg.solve(Wt @ V, Wt)


def deflated_run(cfg: SimConfig, u0, y0=0.0, sim: UpwindSimulator | None = None):
    """Trajectory with the slow invariant family projected out.

    At the co-periodic phase the exact dynamics keeps a low-dimensional
    family (wave translation, the mass-conservation direction it pairs with,
    and sonic-resonance remnants) that the damping estimate slaves to low
    norms instead of damping.  With P the spectral projector of L onto its
    slow cluster (``slow_family``), the run starts from ``(I - P) z0`` and
    every recorded state z is measured as ``(I - P) z``.  P commutes with L
    and so with the SSP-RK3 step, so this is a trajectory of the scheme
    and, for forced runs, one driven by ``(I - P) f``; the second projection
    removes the slow components that rounding feeds in along the way.  The
    returned trajectory reports the cluster size as ``deflation_rank`` and
    its discrete ``spectral_gap``; a run that blows up is returned as it
    stands, flagged.
    """
    sim = sim or UpwindSimulator(cfg)
    _, gap, V, Wh = slow_family(sim)

    def deflate(Z):
        # states z = (u1, u2, y), one per row.  The slow cluster of a real L
        # is closed under conjugation, so P is real in exact arithmetic: its
        # imaginary part is rounding, and real dynamics stays in float64
        PZ = (Z @ Wh.T) @ V.T
        return Z - (PZ.real if sim.dtype == np.float64 else PZ)

    N = cfg.N
    z0 = deflate(_initial_state(cfg, u0, y0))
    traj = run(cfg, np.stack([z0[:N], z0[N:2 * N]]), z0[2 * N], sim=sim)
    if not traj.blew_up:
        traj = _snapshots(cfg, sim, traj.times, deflate(traj.Z))
    traj.deflation_rank = V.shape[1]
    traj.spectral_gap = gap
    return traj


def measure_decay(traj: SimTrajectory, discard_fraction: float = 0.2,
                  fit_end_fraction: float = 0.7) -> DecayReport:
    """Least-squares exponential fit of the energy over the trajectory.

    The fit window runs from ``discard_fraction`` to ``fit_end_fraction``
    of the horizon; its first part is treated as transient.  The slaving
    constant is evaluated with the fitted rate against the running supremum
    of the squared low norms.  A deflated trajectory's ``spectral_gap`` is
    copied into the report.
    """
    t = traj.times
    E = traj.energy
    mask = (t >= discard_fraction * t[-1]) & (t <= fit_end_fraction * t[-1])
    tt = t[mask]
    ee = E[mask]
    pos = ee > 0
    tt, ee = tt[pos], ee[pos]
    if tt.size < 4:
        raise InvalidInputError("trajectory too short for a decay fit")
    logs = np.log(ee)
    A = np.column_stack([tt, np.ones_like(tt)])
    coef, res, *_ = np.linalg.lstsq(A, logs, rcond=None)
    theta = -float(coef[0])
    pred = A @ coef
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    # slaving constant along the whole trajectory
    h1sq = traj.H1**2
    low = traj.L2**2 + np.abs(traj.y) ** 2
    run_sup = np.maximum.accumulate(low)
    denom = np.exp(-max(theta, 0.0) * traj.times) * h1sq[0] + run_sup
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 0, h1sq / denom, 0.0)
    slaving = float(np.max(ratios))

    w = traj.config.weights
    return DecayReport(
        theta_fit=theta, r_squared=float(r2), slaving_constant=slaving,
        eta1_used=float(w.eta1), epsilon_used=float(w.epsilon),
        deflated=traj.deflation_rank > 0,
        # trajectories built without a spectrum carry no gap
        spectral_gap=getattr(traj, "spectral_gap", None),
    )
