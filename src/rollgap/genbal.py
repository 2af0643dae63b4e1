"""General hyperbolic balance-law layer: boundary matrix and conditions.

For an n x n system with m transverse modes of positive speed, n - 1 - m of
negative speed and one sonic mode, the high-frequency behaviour of the
linearized problem about a single-shock periodic wave is governed by the
(n-1) x (n-1) boundary-coupling matrix

    B = diag(exp(-g_+), exp(g_-)) C,

where C solves the Lopatinsky system expressing outgoing mode traces in
terms of incoming ones and ``g_j = int_0^X gamma_j / alpha_j`` are the
per-mode zeroth-order transit integrals.  Two scalar conditions matter:

* spectral:   ``max_U rho(U B) < 1``  (high-frequency spectral gap), and
* energetic:  ``inf_S ||S B S^{-1}|| < 1``  (existence of damping weights),

the second implying the first always, and the two being equivalent for
systems of size up to six (boundary matrices up to 5 x 5, real).  Frequency
sweeps enter through ``B_{lambda, xi}``, the boundary matrix dressed with
the transit phases of ``lambda = a + i zeta`` and the Floquet phase; under
rational independence of the transit times the dressed family at fixed ``a``
is dense in the phase orbit of ``B_{a, 0}``, which is what the sampler
probes (density cannot be decided numerically and is reported as an
assumption).

Mode data is supplied by the user (or reduced from a Saint-Venant profile);
no model-specific profile construction beyond Saint-Venant lives here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import matgap
from .errors import InvalidInputError, RegularityThresholdError
from .matgap import DiagonalScaling, GapOptions

__all__ = [
    "GeneralModeData",
    "BoundaryMatrix",
    "ModeWeight",
    "GeneralWeights",
    "load_mode_data",
    "from_sv_profile",
    "build_B",
    "hf_rat",
    "hf_sat",
    "sample_ulem",
    "general_weights",
]


@dataclass(frozen=True)
class GeneralModeData:
    """Per-mode reductions of an n x n balance law at a periodic wave.

    ``tau[j] = int_0^X 1/alpha_j`` and ``g[j] = int_0^X gamma_j/alpha_j`` for
    the n-1 transverse modes, ordered positive-speed first; ``coupling`` is
    the Lopatinsky solve matrix C; the sonic pair carries ``alpha'(x_s)`` and
    ``gamma(x_s)`` of the remaining mode.
    """

    n: int
    m: int
    tau: np.ndarray
    g: np.ndarray
    coupling: np.ndarray
    sonic_alpha_prime: float
    sonic_gamma: float

    def __post_init__(self):
        k = self.n - 1
        if self.n < 2:
            raise InvalidInputError("system size must be at least 2")
        if not 0 <= self.m <= k:
            raise InvalidInputError("mode split m must satisfy 0 <= m <= n-1")
        if self.tau.shape != (k,) or self.g.shape != (k,):
            raise InvalidInputError("tau and g must have length n-1")
        if self.coupling.shape != (k, k):
            raise InvalidInputError("coupling matrix must be (n-1) x (n-1)")
        if not (np.all(np.isfinite(self.tau)) and np.all(np.isfinite(self.g))
                and np.all(np.isfinite(self.coupling))):
            raise InvalidInputError("mode data must be finite")
        if np.any(self.tau[: self.m] <= 0) or np.any(self.tau[self.m:] >= 0):
            raise InvalidInputError(
                "transit times must be positive for the first m modes and "
                "negative for the rest"
            )


@dataclass(frozen=True)
class BoundaryMatrix:
    B: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.B)):
            raise InvalidInputError("boundary matrix must be finite")


def load_mode_data(source) -> GeneralModeData:
    """Read mode data from a JSON document (path, file object, or dict)."""
    try:
        if isinstance(source, dict):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"mode data JSON does not parse: {exc}") from exc
    try:
        return GeneralModeData(
            n=int(doc["n"]),
            m=int(doc["m"]),
            tau=np.asarray(doc["tau"], dtype=float),
            g=np.asarray(doc["g"], dtype=float),
            coupling=np.asarray(doc["C"], dtype=float),
            sonic_alpha_prime=float(doc["sonic"]["alpha_prime"]),
            sonic_gamma=float(doc["sonic"]["gamma"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad mode data document: {exc}") from exc


def from_sv_profile(profile, cd) -> GeneralModeData:
    """Reduce a Saint-Venant profile to general mode data (n = 2, m = 0)."""
    rep = cd.stability
    return GeneralModeData(
        n=2,
        m=0,
        tau=np.array([-rep.inv_speed_integral]),
        g=np.array([rep.transit_integral]),
        coupling=np.array([[rep.a0]]),
        sonic_alpha_prime=cd.alpha2_prime_xs,
        sonic_gamma=cd.gamma2_xs,
    )


def build_B(d: GeneralModeData) -> BoundaryMatrix:
    """Dress the Lopatinsky matrix with the zeroth-order transit factors."""
    k = d.n - 1
    diag = np.empty(k)
    diag[: d.m] = np.exp(-d.g[: d.m])
    diag[d.m:] = np.exp(d.g[d.m:])
    return BoundaryMatrix(B=diag[:, None] * d.coupling)


def _as_B(B):
    return B.B if isinstance(B, BoundaryMatrix) else np.asarray(B)


def hf_rat(B, opts: GapOptions | None = None) -> float:
    """Spectral-side condition value: ``max_U rho(U B)`` (stable iff < 1),
    the ``max_rho`` of :func:`rollgap.matgap.gap`."""
    return matgap.gap(_as_B(B), opts).max_rho


def hf_sat(B, opts: GapOptions | None = None) -> float:
    """Energy-side condition value: ``inf_S ||S B S^{-1}||`` (weights exist
    iff < 1)."""
    value, _, _, _ = matgap.min_scaled_norm(_as_B(B), opts)
    return value


def sample_ulem(d: GeneralModeData, B=None, a_grid=(0.0, 0.5, 1.0, 2.0, 5.0, 20.0),
                zeta_count: int = 400, xi_count: int = 64, seed: int = 0,
                opts: GapOptions | None = None):
    """Frequency sampling of the dressed boundary matrices.

    For each abscissa ``a`` the sampler compares ``max_U rho(U B_{a,0})``
    with the minimum of ``|det(B_{a + i zeta, xi} - Id)|`` over sampled
    imaginary parts and Floquet phases.  The dressed phases are dense in the
    diagonal-unitary orbit exactly under rational independence of the
    transit times, which is an assumption recorded in the report, not a
    decidable fact; accordingly the heuristic determinant floor is reported,
    never asserted.
    """
    Bmat = _as_B(build_B(d) if B is None else B)
    k = d.n - 1
    rng = np.random.default_rng(seed)
    signs = np.where(np.arange(k) < d.m, -1.0, 1.0)  # phase orientation per group
    report = {"a_grid": list(a_grid), "assumes_rational_independence": True,
              "per_a": []}
    overall_min = np.inf
    overall_rho = -np.inf
    for a in a_grid:
        moduli = np.empty(k)
        moduli[: d.m] = np.exp(-a * d.tau[: d.m])
        moduli[d.m:] = np.exp(a * d.tau[d.m:])
        Ba0 = moduli[:, None] * Bmat
        rho_a = matgap.gap(Ba0, opts).max_rho
        zetas = rng.uniform(0.0, 200.0 * 2.0 * np.pi / max(np.min(np.abs(d.tau)), 1e-12),
                            size=zeta_count)
        phis = np.linspace(0.0, 2.0 * np.pi, xi_count, endpoint=False)
        # phases theta_j = sign_j * (phi + zeta tau_j) with the group-wise
        # orientation of the Floquet factor
        th = signs[None, None, :] * (phis[None, :, None]
                                     + zetas[:, None, None] * d.tau[None, None, :])
        U = np.exp(1j * th)
        stack = U[..., :, None] * Ba0[None, None, :, :]
        dets = np.abs(np.linalg.det(stack - np.eye(k)[None, None]))
        min_det = float(dets.min())
        report["per_a"].append({
            "a": float(a),
            "max_rho": float(rho_a),
            "min_det": min_det,
            "heuristic_floor": float(0.5 * max(1.0 - rho_a, 0.0) ** k),
        })
        overall_min = min(overall_min, min_det)
        overall_rho = max(overall_rho, rho_a)
    report["min_det"] = float(overall_min)
    report["max_rho_over_grid"] = float(overall_rho)
    report["spectral_condition_holds"] = bool(overall_rho < 1.0)
    return report


@dataclass(frozen=True)
class ModeWeight:
    """Symbolic damping weight for one transverse mode:
    ``Omega(x) = sigma |alpha(x)|^{power} exp(int_0^x 2 gamma/alpha)``."""

    mode: int
    sigma: float
    power: int
    transit_g: float


@dataclass(frozen=True)
class GeneralWeights:
    k: int
    weights: list
    boundary_form_min_eig: float
    scaled_norm: float

    @property
    def boundary_dissipative(self):
        return self.boundary_form_min_eig > 0


def general_weights(d: GeneralModeData, S: DiagonalScaling, k: int) -> GeneralWeights:
    """Per-mode weight descriptors at derivative order k with scaling S.

    Requires k above the sonic regularity threshold
    ``1/2 - gamma_s(x_s)/alpha_s'(x_s)``.  The weight prefactors are
    ``sigma = S^2 diag(exp(-2 g_+), Id)`` so the boundary quadratic form
    becomes ``S^2 - B^T S^2 B``, positive definite exactly when
    ``||S B S^{-1}|| < 1``.
    """
    if d.sonic_alpha_prime <= 0:
        raise InvalidInputError("sonic data requires alpha'(x_s) > 0")
    threshold = 0.5 - d.sonic_gamma / d.sonic_alpha_prime
    if not k > threshold:
        raise RegularityThresholdError(
            f"derivative order {k} is at or below the sonic threshold {threshold:.6g}"
        )
    kk = d.n - 1
    if S.n != kk:
        raise InvalidInputError("scaling size must be n - 1")
    s2 = S.s**2
    sigmas = np.empty(kk)
    sigmas[: d.m] = s2[: d.m] * np.exp(-2.0 * d.g[: d.m])
    sigmas[d.m:] = s2[d.m:]
    weights = [
        ModeWeight(mode=j + 1, sigma=float(sigmas[j]), power=2 * k - 1,
                   transit_g=float(d.g[j]))
        for j in range(kk)
    ]
    Bmat = build_B(d).B
    form = np.diag(s2) - Bmat.T @ np.diag(s2) @ Bmat
    min_eig = float(np.linalg.eigvalsh(0.5 * (form + form.T))[0])
    Smat = np.diag(S.s)
    scaled_norm = float(np.linalg.norm(Smat @ Bmat @ np.linalg.inv(Smat), 2))
    return GeneralWeights(
        k=k, weights=weights, boundary_form_min_eig=min_eig,
        scaled_norm=scaled_norm,
    )
