"""Variational certification of candidate scaling minimizers.

At a minimizer of ``S -> ||S B S^{-1}||`` the first variation of the top
singular-value cluster along a scaling direction is governed by n Hermitian
forms on the cluster subspace, the restrictions of ``2 (B^* E_j B - ||B||^2
E_j)`` with E_j the coordinate projectors.  Two mutually exclusive
certificates can emerge:

* a *definite combination* ``sum_j c_j Q_j`` (positive definite after an
  overall sign), which exhibits a strict descent/ascent direction and rules
  out a local minimum, or
* a *common root*, a nonzero cluster vector annihilating every form, which
  reconstructs a diagonal phase multiplier U with ``rho(U B_S) = ||B_S||``
  and therefore certifies that the gap closes at this scaling.

On C^2 the trace-one X >= 0 are the ball ``I/2 + y.sigma``, ``|y| <= 1/2``
(sigma the Pauli matrices), so the duality test behind ``converged_S``,
:func:`rollgap.matgap.dual_stationarity`, is exact there, and one
least-squares solve of its system gives the verdict and the certificate: a
definite combination read off the residual or the solution, or a common root
v with ``v v^*`` the annihilated X moved to the sphere.  Two forms, or any
number of real-symmetric ones, always decide.  Only three independent
complex forms that hold X strictly inside the ball (the mechanism behind the
4x4 gap matrix) evade both; then the solve also gives a proven floor on the
root residual of every unit vector.  Clusters of dimension three or more run
the same test and then the numeric searches, which report ``Undecided``
with diagnostics when neither succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import matgap
from .errors import InvalidInputError
from .matgap import ComplexMatrix, DiagonalScaling, PhaseVector, as_matrix

__all__ = [
    "HermitianFormSet",
    "DefiniteCombination",
    "CommonRoot",
    "Undecided",
    "CertifyOptions",
    "variational_forms",
    "definite_combination_search",
    "common_root_2d",
    "form_pair_dichotomy",
    "numeric_common_root",
    "certify_minimizer",
    "forms_r3_five",
    "dimension_count",
    "independent_count",
]


@dataclass(frozen=True)
class HermitianFormSet:
    """Restrictions of the scaling first-variation forms to the top singular
    subspace.

    ``forms[j]`` is the m x m Hermitian matrix of the j-th coordinate form in
    the orthonormal ``basis`` (n x m) of the subspace.  The forms always sum
    to zero when the subspace is an exact top cluster, since the full-space
    matrices telescope.
    """

    m: int
    forms: list
    basis: np.ndarray

    def max_norm(self):
        return max((float(np.linalg.norm(q, 2)) for q in self.forms), default=0.0)


@dataclass(frozen=True)
class DefiniteCombination:
    """Certificate: sum_j coeffs[j] Q_j is positive definite with smallest
    eigenvalue ``min_eig > 0`` (negative definite combinations are reported
    through the negated coefficient vector)."""

    coeffs: np.ndarray
    min_eig: float

    kind = "definite-combination"

    def to_dict(self):
        return {
            "kind": self.kind,
            "coeffs": [float(c) for c in self.coeffs],
            "min_eig": float(self.min_eig),
        }


@dataclass(frozen=True)
class CommonRoot:
    """Certificate: the unit vector annihilates every form up to
    ``residual``.  When produced by :func:`certify_minimizer` the
    reconstructed phase multiplier with ``rho(U B_S) = ||B_S||`` is
    attached."""

    vector: np.ndarray
    residual: float
    phases: PhaseVector | None = None

    kind = "common-root"

    def to_dict(self):
        out = {
            "kind": self.kind,
            "vector": [[float(v.real), float(v.imag)] for v in self.vector],
            "residual": float(self.residual),
        }
        if self.phases is not None:
            out["phase_angles"] = [float(a) for a in self.phases.angles]
        return out


@dataclass(frozen=True)
class Undecided:
    """Neither search succeeded; diagnostics carry the best values found."""

    diagnostics: dict

    kind = "undecided"

    def to_dict(self):
        return {"kind": self.kind, "diagnostics": dict(self.diagnostics)}


@dataclass
class CertifyOptions:
    pd_tol: float = 1e-8
    root_tol: float = 1e-8
    def_starts: int = 64
    root_starts: int = 128
    seed: int = 0


def _hermitize(q):
    q = np.asarray(q, dtype=complex)
    return 0.5 * (q + q.conj().T)


def variational_forms(B, S: DiagonalScaling) -> HermitianFormSet:
    """Build the restricted first-variation forms of the scaled norm at S.

    The top cluster of ``B_S^* B_S`` (eigenvalues within
    ``matgap.CLUSTER_RTOL`` relative of the maximum) spans the subspace; each
    coordinate form is ``Q_j = V^* (2 (B_S^* E_j B_S - ||B_S||^2 E_j)) V``
    with V the orthonormal cluster basis (see
    :func:`rollgap.matgap.top_cluster_forms`).
    """
    M = as_matrix(B)
    V, forms = matgap.top_cluster_forms(matgap.scale(M, S).entries)
    return HermitianFormSet(m=V.shape[1], forms=forms, basis=V)


def independent_count(forms, rtol: float = 1e-9) -> int:
    """Rank of the form collection in the real vector space of Hermitian
    matrices (Frobenius inner product)."""
    rows = []
    for q in forms:
        q = _hermitize(q)
        rows.append(np.concatenate([q.real.ravel(), q.imag.ravel()]))
    A = np.array(rows)
    if A.size == 0:
        return 0
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def _lambda_min(q):
    return float(np.linalg.eigvalsh(q)[0])


def definite_combination_search(F, opts: CertifyOptions | None = None):
    """Search for a real combination of the forms that is definite.

    Maximizes ``lambda_min(sum c_j Q_j)`` over the unit sphere of real
    coefficient vectors by multi-start ascent (the sphere contains -c, so
    negative definite combinations are found through the same sweep).
    Returns ``(coeffs, min_eig)`` when the best value clears ``pd_tol``
    scaled by the largest form norm, else ``None``.
    """
    opts = opts or CertifyOptions()
    forms = F.forms if isinstance(F, HermitianFormSet) else [_hermitize(q) for q in F]
    nf = len(forms)
    if nf == 0:
        return None
    scale = max((float(np.linalg.norm(q, 2)) for q in forms), default=0.0)
    if scale == 0.0:
        return None
    threshold = opts.pd_tol * scale

    def neg_lmin(c):
        nc = np.linalg.norm(c)
        if nc == 0.0:
            return 0.0
        combo = sum(cj * q for cj, q in zip(c / nc, forms))
        return -_lambda_min(combo)

    rng = np.random.default_rng(opts.seed)
    starts = []
    for j in range(nf):
        e = np.zeros(nf)
        e[j] = 1.0
        starts.append(e)
        starts.append(-e)
    while len(starts) < opts.def_starts:
        starts.append(rng.standard_normal(nf))

    best_val = -np.inf
    best_c = None
    for c0 in starts:
        res = scipy.optimize.minimize(neg_lmin, c0, method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
        if -res.fun > best_val:
            best_val = -res.fun
            best_c = res.x / np.linalg.norm(res.x)
    if best_val > threshold:
        combo = sum(cj * q for cj, q in zip(best_c, forms))
        return best_c, _lambda_min(combo)
    return None


# X = I/2 + sum_i y_i sigma_i is the general trace-one Hermitian 2x2 matrix;
# its eigenvalues are 1/2 +- |y|, so X >= 0 is the ball |y| <= 1/2
_PAULI = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])


def _pair_certificate(forms, scale, rtol):
    """Decide forms on C^2 from the dual system of
    :func:`rollgap.matgap.dual_stationarity`.

    ``<Q_j, X> = 0`` reads ``A y = b`` with ``A[j, i] = tr(Q_j sigma_i)`` and
    ``b_j = -tr(Q_j)/2``.  Its least-squares solution nearest I/2, rank
    counted at ``rtol * scale``, gives every outcome:

    * a residual r above ``rtol * scale``: ``-sum r_j Q_j = |r|^2 I``, up to
      the dropped singular values, is definite;
    * ``|y| > 1/2 + rtol``: the c with ``A^T c = y`` makes ``-sum c_j Q_j =
      |y|^2 I - y.sigma/2`` definite with lambda_min ``|y| (|y| - 1/2)``;
    * otherwise some X >= 0 is annihilated.  Moving y along a null direction
      of A to ``|y| = 1/2`` makes ``X = v v^*``, and v is a common root, with
      its residual ``max_j |v^* Q_j v|`` attached;
    * with no null direction and ``|y| < 1/2`` no such move exists: every
      unit v, whose ``v v^*`` is ``I/2 + w.sigma`` with ``|w| = 1/2``, has
      form values ``A (w - y) - r``, so ``sigma_min(A) (1/2 - |y|) /
      sqrt(n)`` is a proven floor on its residual, returned as ``Undecided``.
    """
    Q = np.asarray(forms)
    A = np.einsum("jkl,ilk->ji", Q, _PAULI).real
    b = -np.trace(Q, axis1=1, axis2=2).real / 2.0
    U, sv, Vt = np.linalg.svd(A)
    k = int(np.sum(sv > rtol * scale))
    y = Vt[:k].T @ (U[:, :k].T @ b / sv[:k])
    r = b - A @ y
    ny = float(np.linalg.norm(y))
    inconsistent = np.max(np.abs(r)) > rtol * scale
    if inconsistent or ny > 0.5 + rtol:
        c = -r if inconsistent else -U[:, :k] @ (Vt[:k] @ y / sv[:k])
        c = c / np.linalg.norm(c)
        return DefiniteCombination(coeffs=c, min_eig=_lambda_min(np.einsum("j,jkl->kl", c, Q)))
    # within rounding of the sphere, sliding would turn the rounding of |y|
    # into a root error of its square root
    inside = ny < 0.5 - 1e-12
    if k == 3 and inside:
        floor = float(sv[2] * (0.5 - ny) / np.sqrt(len(Q)))
        return Undecided(diagnostics={"root_residual_floor": floor})
    if inside:
        y = y + np.sqrt(0.25 - ny * ny) * Vt[k]
    else:
        y = y / (2.0 * ny)
    v = np.linalg.eigh(np.eye(2) / 2 + np.einsum("i,ikl->kl", y, _PAULI))[1][:, 1]
    return CommonRoot(vector=v, residual=max(abs(float(np.real(v.conj() @ q @ v))) for q in Q))


def common_root_2d(q1, q2, opts: CertifyOptions | None = None):
    """A common root of two Hermitian forms on C^2 (a unit vector), or
    ``None`` when a real combination is definite; see
    :func:`form_pair_dichotomy`."""
    cert = form_pair_dichotomy(q1, q2, opts)
    return cert.vector if isinstance(cert, CommonRoot) else None


def form_pair_dichotomy(q1, q2, opts: CertifyOptions | None = None):
    """Certificate for a pair of Hermitian forms on C^2.

    Exactly one of the two certificates exists for every pair, and one
    least-squares solve finds it: a unit definite combination, or a common
    root whose ``v v^*`` is the annihilated trace-one X >= 0.  Tolerances are
    ``pd_tol`` times the larger form norm.
    """
    opts = opts or CertifyOptions()
    q1 = _hermitize(q1)
    q2 = _hermitize(q2)
    if q1.shape != (2, 2) or q2.shape != (2, 2):
        raise InvalidInputError("the pair dichotomy expects 2x2 Hermitian forms")
    scale = max(float(np.linalg.norm(q1, 2)), float(np.linalg.norm(q2, 2)))
    return _pair_certificate([q1, q2], scale, opts.pd_tol)


def numeric_common_root(forms, opts: CertifyOptions | None = None, tol: float = 0.0):
    """Multi-start least-squares search for a joint root of Hermitian forms.

    Minimizes the vector of form values over the unit sphere of C^m and
    returns ``(vector, residual)`` with ``residual = max_j |v^* Q_j v|`` at
    the best point found; no root formula exists beyond two dimensions, so
    the result is a numerical floor rather than a proof of absence.  The
    starts end at the first point whose residual is at most the absolute
    tolerance ``tol``; at the default 0 that is an exact root, which no later
    start could improve on, so the result is that of all ``root_starts``.
    """
    opts = opts or CertifyOptions()
    forms = [_hermitize(q) for q in forms]
    m = forms[0].shape[0]
    rng = np.random.default_rng(opts.seed)

    def to_c(x):
        v = x[:m] + 1j * x[m:]
        nv = np.linalg.norm(v)
        return v / nv if nv > 0 else np.eye(m, dtype=complex)[:, 0]

    def residuals(x):
        v = to_c(x)
        return np.array([float(np.real(v.conj() @ q @ v)) for q in forms])

    best_v = None
    best_res = np.inf
    for k in range(opts.root_starts):
        if k == 0:
            x0 = np.concatenate([np.ones(m), np.zeros(m)])
        else:
            x0 = rng.standard_normal(2 * m)
        sol = scipy.optimize.least_squares(residuals, x0, method="trf",
                                           xtol=1e-15, ftol=1e-15, gtol=1e-15)
        r = float(np.max(np.abs(residuals(sol.x))))
        if r < best_res:
            best_res = r
            best_v = to_c(sol.x)
            if best_res <= tol:
                break
    return best_v, best_res


def _reconstruct_phases(BS, r):
    """Diagonal phases with U (B_S r) = ||B_S|| r, valid at a common root."""
    norm = matgap.op_norm(ComplexMatrix(BS))
    Br = BS @ r
    n = BS.shape[0]
    u = np.ones(n, dtype=complex)
    for j in range(n):
        if abs(Br[j]) > 1e-14 * max(norm, 1.0):
            u[j] = norm * r[j] / Br[j]
            u[j] /= abs(u[j])
    return PhaseVector.from_angles(np.angle(u))


def certify_minimizer(B, S: DiagonalScaling, opts: CertifyOptions | None = None):
    """Certify a candidate scaling via the restricted variational forms.

    The certificate decides with the stationarity test behind ``converged_S``
    (:func:`rollgap.matgap.dual_stationarity`, tolerance ``STATIONARY_RTOL``
    times ``||B_S||^2``).  One-dimensional clusters always decide: the root,
    or the largest scalar form as the definite combination.  Two-dimensional
    clusters decide from that test's least-squares system alone
    (:func:`_pair_certificate`); only three independent forms holding X
    strictly inside the PSD ball leave the root open, and then the numeric
    root search runs and an ``Undecided`` carries the proven
    ``root_residual_floor``.  Larger clusters run the test and then the
    numeric searches, and may return ``Undecided`` with diagnostics, the
    expected outcome on the genuine gap examples.
    """
    opts = opts or CertifyOptions()
    M = as_matrix(B)
    F = variational_forms(M, S)
    BS = matgap.scale(M, S).entries
    mu = matgap.op_norm(ComplexMatrix(BS)) ** 2

    def rooted(root, residual):
        return CommonRoot(vector=root, residual=residual,
                          phases=_reconstruct_phases(BS, F.basis @ root))

    diagnostics = {}
    if F.m == 2:
        cert = _pair_certificate(F.forms, mu, matgap.STATIONARY_RTOL)
        if isinstance(cert, CommonRoot):
            return rooted(cert.vector, cert.residual)
        if isinstance(cert, DefiniteCombination):
            return cert
        stationary, diagnostics = True, cert.diagnostics
    else:
        stationary, _ = matgap.dual_stationarity(F.forms, mu)

    if F.m == 1:
        vals = np.array([float(q[0, 0].real) for q in F.forms])
        residual = float(np.max(np.abs(vals)))
        if stationary:
            return rooted(np.array([1.0 + 0j]), residual)
        j = int(np.argmax(np.abs(vals)))
        coeffs = np.zeros(len(vals))
        coeffs[j] = np.sign(vals[j])
        return DefiniteCombination(coeffs=coeffs, min_eig=residual)

    if not stationary:
        found = definite_combination_search(F, opts)
        if found is not None:
            return DefiniteCombination(coeffs=found[0], min_eig=found[1])
    scale_norm = F.max_norm()
    tol = opts.root_tol * max(scale_norm, 1e-300)
    v, residual = numeric_common_root(F.forms, opts, tol)
    if residual <= tol:
        return rooted(v, residual)
    return Undecided(diagnostics={
        "m": F.m,
        "independent_forms": independent_count(F.forms),
        "best_root_residual": residual,
        "root_tolerance": opts.root_tol * max(scale_norm, 0.0),
        **diagnostics,
    })


def forms_r3_five():
    """Five real quadratic forms on C^3 with no definite real combination and
    no nonzero common complex root (the maximal such count, since real
    symmetric forms on dimension 3 span a 6-dimensional space)."""
    return [
        np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, 0, 1.0], [0, 0, 0], [1.0, 0, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]], dtype=complex),
    ]


def dimension_count(n: int, m: int, fieldname: str) -> int:
    """Orbit-dimension bound for matrices whose top singular value has
    multiplicity m, including the scaling directions.

    Complex: ``2 n^2 + n - m^2``;  real: ``n^2 + n - m (m + 1) / 2``.  The
    bound drops below the ambient dimension exactly in the regimes where
    multiple top singular values are non-generic along scaling orbits.
    """
    if m < 1 or m > n:
        raise InvalidInputError("multiplicity m must satisfy 1 <= m <= n")
    if fieldname == "complex":
        return 2 * n * n + n - m * m
    if fieldname == "real":
        return n * n + n - (m * (m + 1)) // 2
    raise InvalidInputError(f"unknown field {fieldname!r}")
