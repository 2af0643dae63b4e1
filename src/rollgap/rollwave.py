"""Inviscid Saint-Venant roll waves and their high-frequency stability data.

The nondimensional Saint-Venant system for inclined shallow-water flow,

    d_t(h, hU) + d_x(hU, hU^2 + h^2/(2 F^2)) = (0, h - |U| U),

with Froude number F, carries periodic traveling waves consisting of one
smooth monotone piece per period terminated by a Lax shock.  In the wave
frame the mass equation integrates to ``h (c - U) = q`` and the momentum
equation reduces to the scalar profile equation

    h'(x) = (h - (c - q/h)^2) / (h / F^2 - q^2 / h^2),

whose numerator and denominator vanish together at the sonic height
``h_s = (q^2 F^2)^{1/3}``.  Regularity at the sonic point pins ``c`` and
``q``; with the normalization ``h_s = 1`` used throughout this module,
``q = 1/F`` and ``c = 1 + 1/F``, and smooth profiles exist exactly for
``F > 2``.  The remaining freedom is the wave amplitude, exposed through the
downstream shock height ``h_plus``; the upstream height follows from the
momentum jump condition ``h_+ h_- (h_+ + h_-) = 2 q^2 F^2``.  At ``h_s = 1``
the factor ``h - 1`` cancels from the numerator and the denominator, and the
profile is a closed form (see :class:`RollWaveProfile`).

Linearizing about the wave and diagonalizing by the eigenvectors of
``A_0^{-1} A`` produces two scalar transport modes with speeds

    alpha_1 = U - c - sqrt(h)/F  < 0       (transverse mode),
    alpha_2 = U - c + sqrt(h)/F            (sonic mode, one simple zero),

zeroth-order coefficients gamma_j and couplings beta_j.  The module computes
the boundary coefficients obtained by eliminating the shock-shift velocity
from the linearized jump conditions, the high-frequency stability index

    I = exp(int_0^X gamma_1 / alpha_1) * C,

the Sobolev threshold of the sonic mode, and the damping weights entering
the energy functional of the discrete simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidInputError,
    NoRollWaveError,
    NumericalError,
    LopatinskyDegenerateError,
    StructuralAssumptionError,
    RollgapError,
)

__all__ = [
    "SVModel",
    "RollWaveProfile",
    "CharacteristicData",
    "JumpCoefficients",
    "StabilityIndexReport",
    "DampingWeights",
    "NoDampingWeightsError",
    "build_profile",
    "characteristics",
    "jump_coefficients",
    "stability_index",
    "hs_threshold",
    "sonic_mode_solvable",
    "damping_weights",
    "default_epsilon",
    "default_C0",
]

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(7)


class NoDampingWeightsError(RollgapError):
    """Raised when the high-frequency index is at or above one, so no choice
    of weights yields boundary dissipation."""


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SVModel:
    """Saint-Venant fluxes, source, and their Jacobians at a state (h, U)."""

    froude: float

    def f0(self, h, U):
        return np.array([h, h * U])

    def f(self, h, U):
        return np.array([h * U, h * U * U + h * h / (2.0 * self.froude**2)])

    def source(self, h, U):
        return np.array([0.0, h - abs(U) * U])

    def df0(self, h, U):
        return np.array([[1.0, 0.0], [U, h]])

    def df(self, h, U):
        return np.array([[U, h], [U * U + h / self.froude**2, 2.0 * h * U]])

    def dsource(self, h, U):
        if U < 0:
            raise InvalidInputError("profiles handled here have U > 0 throughout")
        return np.array([[0.0, 0.0], [1.0, -2.0 * U]])


# ---------------------------------------------------------------------------
# profile construction
# ---------------------------------------------------------------------------


def _min_admissible_height(F, c, q):
    """Smaller positive root of h - (c - q/h)^2 = 0 besides the sonic height.

    In x = sqrt(h) the equation is x^3 - c x^2 + q = 0; the middle root gives
    the height below which the profile slope would change sign again.
    """
    disc = np.sqrt((c - 1.0) ** 2 + 4.0 * q)
    x = ((c - 1.0) + disc) / 2.0
    return x * x


# heights at which x(h) is tabulated for the starting guess of h_of_x
_INVERSE_NODES = 32
# Newton on x(h) = x stops one step after its steps fall below this share of
# h - h_min, the distance to the pole of x(h), plus two units in the last
# place of h: near h_min the spacing of the floats is the finer bound
_NEWTON_STEP_RTOL = 1e-9
_NEWTON_MAX_STEPS = 50


def _log_ratio(ratio, ratio_minus_one):
    """log(ratio) from whichever argument is accurate: log1p of ratio - 1,
    except where the ratio is below 1/2, as at heights near h_min, where
    ratio - 1 has lost the ratio's leading digits."""
    return np.where(ratio_minus_one < -0.5, np.log(ratio), np.log1p(ratio_minus_one))


class RollWaveProfile:
    """One periodic cell of a roll wave, shock at the cell ends.

    Height increases from ``h_plus`` at 0+ through the sonic height at
    ``x_s`` to ``h_minus`` at X-; the sampled grid always contains 0, x_s and
    X.  At h_s = 1 the sonic factor h - 1 cancels from the profile equation:

        dh/dx = F^2 (h - r_1)(h - r_2) / (h^2 + h + 1),

    with r_1 = h_min > r_2 = q^2/r_1 the roots of h^2 + (1 - c^2) h + q^2
    (:meth:`slope`).  Its inverse dx/dh integrates by partial fractions
    (:meth:`x_of_h`), and :meth:`h_of_x` inverts that monotone closed form by
    Newton's method.
    """

    def __init__(self, model, c, q, h_min, h_plus, h_minus):
        self.model = model
        self.c = c
        self.q = q
        self.h_s = 1.0
        self.h_plus = h_plus
        self.h_minus = h_minus
        self._F2 = model.froude**2
        self._r1 = h_min
        self._r2 = q * q / h_min
        # r_1 - r_2, the square root of the discriminant (c^2 - 1)^2 - 4 q^2
        d = q * np.sqrt(q * (4.0 + q))
        self._A = (c * c * h_min + 1.0 - q * q) / d
        # factors of the two ratios in x(h) and of their excess over 1
        self._k1 = d / (1.0 - h_min)
        self._k2 = 1.0 / (1.0 - self._r2)
        self._k3 = (1.0 - self._r2) / (1.0 - h_min)
        self.x_s = -float(self._from_sonic(h_plus))
        self.X = float(self.x_of_h(h_minus))
        # x(h) at heights spaced geometrically in h - h_min, where x(h) has
        # its logarithmic pole, with the sonic height among them
        h = h_min + (h_plus - h_min) * ((h_minus - h_min) / (h_plus - h_min)) ** np.linspace(
            0.0, 1.0, _INVERSE_NODES)
        h[0], h[-1] = h_plus, h_minus
        self._table_h = np.unique(np.append(h, 1.0))
        self._table_x = self.x_of_h(self._table_h)
        self.grid = None
        self.h_samples = None
        self.U_samples = None

    def slope(self, h):
        """dh/dx at the heights h."""
        return self._F2 * (h - self._r1) * (h - self._r2) / (h * (h + 1.0) + 1.0)

    def _from_sonic(self, h):
        """x(h) - x_s in closed form.

        dx/dh = (1 + c^2 / (h - r_2) + A d / ((h - r_1)(h - r_2))) / F^2 with
        d = r_1 - r_2 and A = (c^2 r_1 + 1 - q^2)/d, so with s = h - 1

            F^2 (x - x_s) = s + c^2 log1p(s / (1 - r_2))
                            + A log1p(d s / ((1 - r_1)(h - r_2))).

        This is the partial-fraction sum over 1/(h - r_1) and 1/(h - r_2)
        with its two logarithms combined; each term has the sign of s, so
        the sum does not cancel.  The logarithms are those of
        (h - r_2)/(1 - r_2) and (h - r_1)(1 - r_2)/((1 - r_1)(h - r_2)),
        each taken by :func:`_log_ratio`.
        """
        s = h - 1.0
        r2 = self._r2
        return (s + self.c * self.c * _log_ratio(self._k2 * (h - r2), self._k2 * s)
                + self._A * _log_ratio(self._k3 * (h - self._r1) / (h - r2),
                                       self._k1 * s / (h - r2))) / self._F2

    def x_of_h(self, h):
        """The position on the cell of the heights h in [h_plus, h_minus]."""
        return self.x_s + self._from_sonic(h)

    def h_of_x(self, x):
        """The height at the points x of [0, X] (clipped to it).

        Newton's method on x(h) = x, from linear interpolation in a table of
        x(h), with each iterate clipped to [h_plus, h_minus].  It stops one
        step after every step is below ``_NEWTON_STEP_RTOL`` (h - h_min) plus
        two units in the last place of h, or at once when every step is zero
        (as where x is a table point), and raises :class:`NumericalError` if
        that takes more than ``_NEWTON_MAX_STEPS`` steps.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(np.clip(x, 0.0, self.X))
        h = np.interp(x, self._table_x, self._table_h)
        last = False
        for _ in range(_NEWTON_MAX_STEPS):
            step = (self.x_of_h(h) - x) * self.slope(h)
            h = np.clip(h - step, self.h_plus, self.h_minus)
            if last or not step.any():
                return float(h[0]) if scalar else h
            last = bool(np.all(np.abs(step) <= _NEWTON_STEP_RTOL * (h - self._r1)
                               + 2.0 * np.spacing(h)))
        raise NumericalError(
            f"profile inversion did not converge in {_NEWTON_MAX_STEPS} Newton steps")

    def rankine_hugoniot_residual(self):
        """Jump of f - c f0 across the shock between h_minus and h_plus.

        This checks the jump closure of the shock pair that ``build_profile``
        chose; the end heights are the pair itself, not integrated values.
        """
        m = self.model
        res = np.zeros(2)
        for sgn, h in ((1.0, self.h_plus), (-1.0, self.h_minus)):
            U = self.c - self.q / h
            res += sgn * (m.f(h, U) - self.c * m.f0(h, U))
        return res


def build_profile(F, normalization="h_s", h_plus=None, amplitude=0.5, n_grid=800):
    """Construct a roll-wave profile at Froude number F with h_s = 1.

    ``h_plus`` in (h_min, 1) selects the member of the one-parameter wave
    family (equivalently the period); when omitted, ``amplitude`` in (0, 1)
    interpolates between the zero-amplitude sonic wave and the maximal one.
    Raises :class:`NoRollWaveError` for F <= 2 (the slope through the sonic
    point would not be positive) or for an inadmissible shock pair.
    """
    if normalization != "h_s":
        raise InvalidInputError("only the h_s = 1 normalization is implemented")
    if not np.isfinite(F) or F <= 0:
        raise InvalidInputError("Froude number must be positive")
    if F <= 2.0:
        raise NoRollWaveError(
            f"no single-shock periodic wave at F = {F}: need F > 2 for a "
            "positive slope through the sonic point"
        )
    q = 1.0 / F
    c = 1.0 + 1.0 / F
    h_min = _min_admissible_height(F, c, q)
    if h_plus is None:
        if not 0.0 < amplitude < 1.0:
            raise InvalidInputError("amplitude must lie in (0, 1)")
        h_plus = 1.0 - amplitude * (1.0 - h_min)
    if not h_min < h_plus < 1.0:
        raise NoRollWaveError(
            f"no admissible shock pair: h_plus must lie in ({h_min:.6g}, 1)"
        )
    # momentum jump condition: h+ h- (h+ + h-) = 2 q^2 F^2  (= 2 at h_s = 1)
    rhs = 2.0 * q * q * F * F
    h_minus = (-h_plus**2 + np.sqrt(h_plus**4 + 4.0 * rhs * h_plus)) / (2.0 * h_plus)

    profile = RollWaveProfile(model=SVModel(float(F)), c=c, q=q, h_min=h_min,
                              h_plus=h_plus, h_minus=h_minus)
    x_s, X = profile.x_s, profile.X
    if not (np.isfinite(X) and X > 0 and x_s > 0):
        raise NumericalError("profile cell length is not finite and positive")

    n_left = max(2, int(round(n_grid * x_s / X)))
    n_right = max(2, n_grid - n_left)
    profile.grid = np.concatenate([
        np.linspace(0.0, x_s, n_left + 1),
        np.linspace(x_s, X, n_right + 1)[1:],
    ])
    profile.h_samples = profile.h_of_x(profile.grid)
    profile.U_samples = c - q / profile.h_samples

    res = profile.rankine_hugoniot_residual()
    if np.max(np.abs(res)) > 1e-8:
        raise NumericalError(
            f"Rankine-Hugoniot residual {np.max(np.abs(res)):.3e} exceeds 1e-8"
        )
    if np.any(np.diff(profile.h_samples) <= 0):
        raise NumericalError("profile height is not strictly increasing")
    return profile


# ---------------------------------------------------------------------------
# characteristic fields
# ---------------------------------------------------------------------------


class SVCharacteristicFields:
    """Closed-form characteristic quantities along a profile.

    Everything is an explicit function of the height, with x entering through
    the profile evaluator; derivatives in x use the exact chain rule with the
    profile slope, so no grid differencing is involved.
    """

    def __init__(self, profile: RollWaveProfile):
        self.profile = profile
        F = profile.model.froude
        self._F = F
        self._c = profile.c
        self._q = profile.q

    # -- pointwise in h ----------------------------------------------------

    def _u(self, h):
        return self._c - self._q / h

    def alpha1_h(self, h):
        return -self._q / h - np.sqrt(h) / self._F

    def alpha2_h(self, h):
        return -self._q / h + np.sqrt(h) / self._F

    def dalpha1_dh(self, h):
        return self._q / h**2 - 1.0 / (2.0 * self._F * np.sqrt(h))

    def dalpha2_dh(self, h):
        return self._q / h**2 + 1.0 / (2.0 * self._F * np.sqrt(h))

    # -- pointwise in x ----------------------------------------------------

    def h(self, x):
        return self.profile.h_of_x(x)

    def hprime(self, x):
        return self.profile.slope(np.asarray(self.profile.h_of_x(x)))

    def alpha1(self, x):
        return self.alpha1_h(np.asarray(self.profile.h_of_x(x)))

    def alpha2(self, x):
        return self.alpha2_h(np.asarray(self.profile.h_of_x(x)))

    def alpha1_prime(self, x):
        h = np.asarray(self.profile.h_of_x(x))
        return self.dalpha1_dh(h) * self.profile.slope(h)

    def alpha2_prime(self, x):
        h = np.asarray(self.profile.h_of_x(x))
        return self.dalpha2_dh(h) * self.profile.slope(h)

    def T_matrix(self, x):
        """Eigenvector matrix, columns (-F sqrt(h), 1) and (F sqrt(h), 1)."""
        h = np.atleast_1d(np.asarray(self.profile.h_of_x(x)))
        phi = self._F * np.sqrt(h)
        T = np.zeros(h.shape + (2, 2))
        T[..., 0, 0] = -phi
        T[..., 0, 1] = phi
        T[..., 1, 0] = 1.0
        T[..., 1, 1] = 1.0
        return T

    def coupling_matrix(self, x):
        """The zeroth-order matrix M with diag (gamma_1, gamma_2) and
        off-diagonal (beta_1; beta_2), from T^{-1} A0^{-1} ((A T)' - E T)."""
        return self.coupling_matrix_h(np.atleast_1d(self.profile.h_of_x(x)))

    def coupling_matrix_h(self, h):
        """:meth:`coupling_matrix` at given heights (a 1-d array)."""
        F, c, q = self._F, self._c, self._q
        U = c - q / h
        hp = self.profile.slope(h)
        sq = np.sqrt(h)
        phi = F * sq
        dU = q / h**2
        dphi = F / (2.0 * sq)
        a1 = -q / h - sq / F
        a2 = -q / h + sq / F
        da1 = self.dalpha1_dh(h)
        da2 = self.dalpha2_dh(h)

        # A0 T columns and their h-derivatives
        a0t1 = np.stack([-phi, h - U * phi], axis=-1)
        a0t2 = np.stack([phi, h + U * phi], axis=-1)
        da0t1 = np.stack([-dphi, 1.0 - (dU * phi + U * dphi)], axis=-1)
        da0t2 = np.stack([dphi, 1.0 + dU * phi + U * dphi], axis=-1)

        # d(A T_j)/dx with A T_j = alpha_j A0 T_j
        dat1 = (da1[..., None] * a0t1 + a1[..., None] * da0t1) * hp[..., None]
        dat2 = (da2[..., None] * a0t2 + a2[..., None] * da0t2) * hp[..., None]

        # E T with E = [[0, 0], [1, -2U]]
        et = np.zeros(h.shape + (2, 2))
        et[..., 1, 0] = -phi - 2.0 * U
        et[..., 1, 1] = phi - 2.0 * U

        rhs = np.zeros(h.shape + (2, 2))
        rhs[..., :, 0] = dat1 - et[..., :, 0]
        rhs[..., :, 1] = dat2 - et[..., :, 1]

        # A0^{-1} = [[1, 0], [-U/h, 1/h]]
        a0inv = np.zeros(h.shape + (2, 2))
        a0inv[..., 0, 0] = 1.0
        a0inv[..., 1, 0] = -U / h
        a0inv[..., 1, 1] = 1.0 / h

        # T^{-1} = [[-1/(2 phi), 1/2], [1/(2 phi), 1/2]]
        tinv = np.zeros(h.shape + (2, 2))
        tinv[..., 0, 0] = -1.0 / (2.0 * phi)
        tinv[..., 0, 1] = 0.5
        tinv[..., 1, 0] = 1.0 / (2.0 * phi)
        tinv[..., 1, 1] = 0.5

        return tinv @ a0inv @ rhs

    def _coupling_entry(self, x, r, c):
        out = self.coupling_matrix(x)[..., r, c]
        return float(out[0]) if np.ndim(x) == 0 else out

    def gamma1(self, x):
        return self._coupling_entry(x, 0, 0)

    def gamma2(self, x):
        return self._coupling_entry(x, 1, 1)

    def beta1(self, x):
        return self._coupling_entry(x, 0, 1)

    def beta2(self, x):
        return self._coupling_entry(x, 1, 0)

    def AT_column(self, x, mode):
        """(A T_mode)(x) = alpha_mode * A0 T_mode as a 2-vector."""
        h = float(self.profile.h_of_x(x))
        U = self._c - self._q / h
        phi = self._F * np.sqrt(h)
        if mode == 1:
            a = self.alpha1_h(h)
            vec = np.array([-phi, h - U * phi])
        elif mode == 2:
            a = self.alpha2_h(h)
            vec = np.array([phi, h + U * phi])
        else:
            raise InvalidInputError("mode must be 1 or 2")
        return a * vec

    def jump_f0(self):
        """[f0] across the shock, downstream state minus upstream state."""
        m = self.profile.model
        hr = float(self.profile.h_of_x(0.0))
        hl = float(self.profile.h_of_x(self.profile.X))
        return m.f0(hr, self._u(hr)) - m.f0(hl, self._u(hl))

    def jump_source(self):
        m = self.profile.model
        hr = float(self.profile.h_of_x(0.0))
        hl = float(self.profile.h_of_x(self.profile.X))
        return m.source(hr, self._u(hr)) - m.source(hl, self._u(hl))


@dataclass
class CharacteristicData:
    """Characteristic quantities sampled on the profile grid.

    ``T[i]`` diagonalizes ``A0^{-1} A`` at grid point i; the sonic-point
    derivatives are the exact chain-rule values, not grid differences.
    ``fields`` evaluates every quantity at arbitrary x for quadrature and for
    the simulator.

    The wave's integrals and its boundary solve are computed once, on first
    use, and shared by every caller: ``integrals`` holds the cumulative
    transit exponent, transit time and sonic weight exponent on the grid
    (composite 7-point Gauss quadrature over the grid cells), and
    ``stability`` the jump coefficients and the high-frequency index.
    """

    grid: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    T: np.ndarray
    alpha1_prime_xs: float
    alpha2_prime_xs: float
    gamma2_xs: float
    fields: SVCharacteristicFields

    def _integrands(self, x):
        """``gamma_1/alpha_1``, ``1/|alpha_1|`` and the sonic weight rate
        ``(alpha_2' - alpha_2'(x_s) + 2 (gamma_2 - gamma_2(x_s))) / alpha_2``
        at the points x, stacked, from one evaluation of the profile.

        The sonic rate is 0/0 only at x_s itself, which the quadrature meets
        only as the end of a zero-length cell; there its value is set to 0.
        """
        f = self.fields
        h = np.atleast_1d(f.h(x))
        a1 = f.alpha1_h(h)
        a2 = f.alpha2_h(h)
        M = f.coupling_matrix_h(h)
        rate = (f.dalpha2_dh(h) * f.profile.slope(h) - self.alpha2_prime_xs
                + 2.0 * (M[..., 1, 1] - self.gamma2_xs))
        sonic = np.divide(rate, a2, out=np.zeros_like(a2), where=a2 != 0)
        return np.stack([M[..., 0, 0] / a1, 1.0 / np.abs(a1), sonic])

    @cached_property
    def integrals(self) -> np.ndarray:
        """Cumulative integrals of :meth:`_integrands` from 0 to each grid
        point, shape (3, len(grid))."""
        return _cumulative_gauss(self._integrands, self.grid)

    def integrals_at(self, xs) -> np.ndarray:
        """:attr:`integrals` at arbitrary points: the value at the grid point
        to the left of each x plus one Gauss cell from there to x."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        i = np.clip(np.searchsorted(self.grid, xs, side="right") - 1,
                    0, self.grid.size - 1)
        return self.integrals[:, i] + _gauss_cells(self._integrands, self.grid[i], xs)

    @cached_property
    def stability(self) -> StabilityIndexReport:
        """The jump solve and the high-frequency index of the wave."""
        f = self.fields
        p = f.profile
        jc = jump_coefficients(p, self)
        sol = np.linalg.solve(np.column_stack([f.AT_column(p.X, 1), f.jump_f0()]),
                              f.AT_column(0.0, 1))
        transit, inv_speed = (float(v) for v in self.integrals[:2, -1])
        index = float(np.exp(transit) * jc.a0)
        hf = float(np.log(abs(index)) / inv_speed) if index != 0 else -np.inf
        return StabilityIndexReport(
            **vars(jc), C=jc.a0, transit_integral=transit, index=index,
            hf_abscissa=hf, a_from_solve=float(sol[0]),
            inv_speed_integral=inv_speed,
        )


def characteristics(p: RollWaveProfile) -> CharacteristicData:
    """Diagonalize the linearized system along the profile.

    The speeds come out in closed form, ``alpha_{1,2} = U - c -/+ sqrt(h)/F``,
    with ``alpha_1 < alpha_2`` everywhere, ``alpha_1 < 0`` on the whole cell
    and ``alpha_2`` crossing zero transversally at the sonic point.
    """
    fields = SVCharacteristicFields(p)
    x, h = p.grid, p.h_samples
    Mc = fields.coupling_matrix_h(h)
    a2p = float(fields.alpha2_prime(p.x_s))
    if not a2p > 0:
        raise StructuralAssumptionError("alpha_2 must cross zero with positive slope")
    return CharacteristicData(
        grid=x,
        alpha1=fields.alpha1_h(h),
        alpha2=fields.alpha2_h(h),
        gamma1=Mc[..., 0, 0],
        gamma2=Mc[..., 1, 1],
        beta1=Mc[..., 0, 1],
        beta2=Mc[..., 1, 0],
        T=fields.T_matrix(x),
        alpha1_prime_xs=float(fields.alpha1_prime(p.x_s)),
        alpha2_prime_xs=a2p,
        gamma2_xs=float(fields.gamma2(p.x_s)),
        fields=fields,
    )


# ---------------------------------------------------------------------------
# jump coefficients and stability index
# ---------------------------------------------------------------------------


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class JumpCoefficients:
    """Boundary condition for the transverse mode and shift dynamics.

    The incoming trace satisfies

        u_1(X-) = a0 u_1(X+) + b0 u_2(X-) + c0 u_2(X+) + d0 . G + e0 y(X),

    and the shift velocity is recovered as

        dy/dt = y_row_y * y + y_row_u1_0 u_1(0+) + y_row_u2_0 u_2(0+)
                + y_row_u2_X u_2(0-) + y_row_G . G,

    where traces on the far side of a shock carry the Floquet phase (applied
    by the simulator, not baked in here).  ``a0`` equals the determinant
    ratio C of the stability index by the Cramer formula.
    """

    a0: float
    b0: float
    c0: float
    d0: np.ndarray
    e0: float
    lopatinsky_det: float
    y_row_u1_0: float
    y_row_u2_0: float
    y_row_u2_X: float
    y_row_y: float
    y_row_G: np.ndarray


def jump_coefficients(p: RollWaveProfile, cd: CharacteristicData,
                      det_tol: float = 1e-12) -> JumpCoefficients:
    """Solve the linearized jump conditions for the incoming trace and dy/dt.

    The two unknowns at a shock are the incoming transverse trace u_1(X-) and
    the shift velocity; everything else is outgoing.  Solvability is exactly
    the nonvanishing of det[(A T_1)(X-), [f0]].
    """
    fields = cd.fields
    at1_0 = fields.AT_column(0.0, 1)
    at1_X = fields.AT_column(p.X, 1)
    at2_0 = fields.AT_column(0.0, 2)
    at2_X = fields.AT_column(p.X, 2)
    jf0 = fields.jump_f0()
    jR = fields.jump_source()

    DX = _det2(at1_X, jf0)
    scale = max(np.max(np.abs(at1_X)) * np.max(np.abs(jf0)), 1e-300)
    if abs(DX) < det_tol * scale:
        raise LopatinskyDegenerateError("boundary system is numerically singular")

    a0 = _det2(at1_0, jf0) / DX
    b0 = -_det2(at2_X, jf0) / DX
    c0 = _det2(at2_0, jf0) / DX
    d0 = np.array([-jf0[1], jf0[0]]) / DX  # row applied to G: -det(G, [f0])/DX
    e0 = -_det2(jR, jf0) / DX

    return JumpCoefficients(
        a0=float(a0), b0=float(b0), c0=float(c0), d0=d0, e0=float(e0),
        lopatinsky_det=float(DX),
        y_row_u1_0=float(-_det2(at1_X, at1_0) / DX),
        y_row_u2_0=float(-_det2(at1_X, at2_0) / DX),
        y_row_u2_X=float(_det2(at1_X, at2_X) / DX),
        y_row_y=float(_det2(at1_X, jR) / DX),
        y_row_G=np.array([-at1_X[1], at1_X[0]]) / DX,
    )


def _gauss_cells(f, a, b):
    """Seven-point Gauss integrals of f over the cells [a_i, b_i].  f maps a
    1-d array of points to one value per point, or to a stack of them."""
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    nodes = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    return np.sum(half[:, None] * _GAUSS_WEIGHTS[None, :] * vals, axis=-1)


def _cumulative_gauss(f, xs):
    """Cumulative integral of f from 0 to each entry of the sorted array xs."""
    xs = np.atleast_1d(xs)
    return np.cumsum(_gauss_cells(f, np.concatenate([[0.0], xs[:-1]]), xs), axis=-1)


@dataclass(frozen=True)
class StabilityIndexReport(JumpCoefficients):
    """High-frequency stability data for one profile, with the jump
    coefficients it is built from.

    ``C`` is the boundary determinant ratio (equal to ``a0``),
    ``transit_integral`` is ``int_0^X gamma_1/alpha_1``, and
    ``index = exp(transit_integral) * C``.
    ``hf_abscissa = log(index) / int_0^X |alpha_1|^{-1}`` is the real-part
    asymptote of the high-frequency spectrum: negative exactly when the
    index is below one.  ``a_from_solve`` re-derives C by solving the linear
    system instead of the determinant ratio.
    """

    C: float
    transit_integral: float
    index: float
    hf_abscissa: float
    a_from_solve: float
    inv_speed_integral: float

    def to_dict(self):
        return {
            "C": float(self.C),
            "transit_integral": float(self.transit_integral),
            "index": float(self.index),
            "hf_abscissa": float(self.hf_abscissa),
            "a0": float(self.a0),
            "b0": float(self.b0),
            "c0": float(self.c0),
            "d0": [float(v) for v in self.d0],
            "e0": float(self.e0),
            "lopatinsky_det": float(self.lopatinsky_det),
        }


def stability_index(p: RollWaveProfile, cd: CharacteristicData) -> StabilityIndexReport:
    """The high-frequency stability index and boundary coefficients of the
    wave; computed once per ``CharacteristicData`` (see ``cd.stability``)."""
    return cd.stability


def hs_threshold(p: RollWaveProfile, cd: CharacteristicData) -> float:
    """Sobolev threshold of the sonic mode: slaving holds for s above
    ``1/2 - gamma_2(x_s) / alpha_2'(x_s)``."""
    if cd.alpha2_prime_xs <= 0:
        raise StructuralAssumptionError("alpha_2'(x_s) must be positive")
    return 0.5 - cd.gamma2_xs / cd.alpha2_prime_xs


def sonic_mode_solvable(lam_re: float, gamma_s: float, d_s: float, k: float) -> bool:
    """Solvability of the local model d_s (x - x_s) u' = -(lambda + gamma_s) u
    at derivative order k: requires (Re lambda + gamma_s)/d_s > 1/2 - k."""
    if d_s <= 0:
        raise StructuralAssumptionError("outgoing sonic mode needs d_s > 0")
    return (lam_re + gamma_s) / d_s > 0.5 - k


# ---------------------------------------------------------------------------
# damping weights
# ---------------------------------------------------------------------------


@dataclass
class DampingWeights:
    """Energy weights for both modes on one periodic cell.

    ``omega1`` realizes a constant interior dissipation rate
    ``delta_1 = epsilon`` for the transverse mode; ``omega2`` freezes the
    sonic-mode rate at its sonic-point value ``delta_2``.  ``eta1`` is the
    boundary dissipation margin of the transverse mode; its zero-epsilon
    limit equals ``1 - index^2``, so positivity at small epsilon is the
    energy-side face of high-frequency spectral stability.
    ``weights_at`` evaluates both weights off the grid from one quadrature;
    ``omega1_at`` and ``omega2_at`` take one of them.
    """

    epsilon: float
    C0: float
    grid: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    delta1: float
    delta2: float
    eta1: float
    eta1_zero: float
    advisory: str | None
    _cd: CharacteristicData

    def weights_at(self, xs, h=None):
        """``(omega1, omega2)`` at the points xs from one
        ``cd.integrals_at`` call; ``h``, the profile heights at xs if the
        caller has them, saves evaluating the profile there again."""
        f = self._cd.fields
        G, T, S2 = self._cd.integrals_at(xs)
        a1 = f.alpha1(xs) if h is None else f.alpha1_h(h)
        return (np.abs(a1) * np.exp(2.0 * G + 2.0 * self.epsilon * T),
                self.C0 * np.exp(S2))

    def omega1_at(self, xs):
        return self.weights_at(xs)[0]

    def omega2_at(self, xs):
        return self.weights_at(xs)[1]


def damping_weights(p: RollWaveProfile, cd: CharacteristicData,
                    epsilon: float, C0: float) -> DampingWeights:
    """Build the mode weights for the damping energy at given margins.

    With ``G`` and ``T`` the cumulative ``int gamma_1/alpha_1`` and
    ``int 1/|alpha_1|`` of ``cd.integrals`` (``alpha_1 < 0``),
    ``Omega_1 = |alpha_1| exp(2 G + 2 epsilon T)`` and
    ``Omega_2 = C0 exp(S_2)`` with ``S_2`` the cumulative sonic exponent, so
    every weight and ``eta1 = 1 - index^2 exp(2 epsilon T(X))`` come from
    the wave's one quadrature.  Needs the high-frequency index below one;
    too large an epsilon makes the transverse boundary margin ``eta1``
    nonpositive even then, which is reported through the ``advisory`` field
    rather than an error.
    """
    if epsilon <= 0 or C0 <= 0:
        raise InvalidInputError("epsilon and C0 must be positive")
    rep = cd.stability
    if abs(rep.index) >= 1.0:
        raise NoDampingWeightsError(
            f"high-frequency index {rep.index:.6g} is not below one"
        )
    G, T, S2 = cd.integrals
    I2 = rep.index**2
    eta1 = float(1.0 - I2 * np.exp(2.0 * epsilon * rep.inv_speed_integral))
    return DampingWeights(
        epsilon=float(epsilon), C0=float(C0), grid=p.grid,
        omega1=np.abs(cd.alpha1) * np.exp(2.0 * G + 2.0 * epsilon * T),
        omega2=C0 * np.exp(S2),
        delta1=float(epsilon),
        delta2=float(0.5 * cd.alpha2_prime_xs + cd.gamma2_xs),
        eta1=eta1, eta1_zero=float(1.0 - I2),
        advisory=None if eta1 > 0 else (
            "eta1 is nonpositive at this epsilon although the index is below "
            "one; decrease epsilon"),
        _cd=cd,
    )


def default_epsilon(p: RollWaveProfile, cd: CharacteristicData) -> float:
    """Half the epsilon at which eta1 drops to half its zero-epsilon value."""
    rep = cd.stability
    if abs(rep.index) >= 1.0:
        raise NoDampingWeightsError("no damping margin: index is not below one")
    I2 = rep.index**2
    eps_star = np.log((1.0 + I2) / (2.0 * I2)) / (2.0 * rep.inv_speed_integral)
    return float(eps_star / 2.0)


def default_C0(p: RollWaveProfile, cd: CharacteristicData, epsilon: float,
               margin: float = 4.0) -> float:
    """Double C0 until the sonic boundary absorption dominates.

    Both sonic boundary terms carry a good sign with strength proportional
    to C0; they must absorb the transverse boundary cross terms produced by
    the sonic traces in the boundary condition, whose size is set by the
    transverse end weight and the coefficients b0, c0.  The end weights are
    the grid values of the unit-C0 weights at 0 and X.  Raises
    ``NumericalError`` unless the absorption per unit C0 is positive and
    finite and the cross term is finite.
    """
    w1 = damping_weights(p, cd, epsilon, 1.0)
    rep = cd.stability
    f = cd.fields
    good_unit = min(
        abs(float(f.alpha2(0.0))),  # Omega2(0+)/C0 = 1
        abs(float(f.alpha2(p.X))) * float(w1.omega2[-1]),
    )
    bad = abs(float(f.alpha1(p.X))) * float(w1.omega1[-1]) * (rep.b0**2 + rep.c0**2)
    # with these bounds the doubling ends, at the latest when C0 overflows
    if not (np.isfinite(good_unit) and good_unit > 0 and np.isfinite(bad)):
        raise NumericalError(
            f"no C0 absorbs the boundary cross terms: absorption per unit C0 "
            f"{good_unit!r}, cross term {bad!r}")
    C0 = 1.0
    while C0 * good_unit < margin * bad:
        C0 *= 2.0
    return C0
