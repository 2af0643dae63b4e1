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

Both are read off one dual solve, :func:`rollgap.matgap.dual_stationarity`,
which decides the alternative exactly: either some trace-one X >= 0 is
annihilated by every form, or some real combination is definite.  An
annihilated X is reduced face by face (the rank bound of Barvinok and
Pataki): stepping X along the null directions of the forms compressed to its
range lowers its rank, and rank one, or two for real forms, is a common
root.  When the system pins X at one point of higher rank, no root exists,
and the same solve gives a proven floor on every unit vector's root
residual.  Only a reduction that stalls with X not unique searches.
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
    "form_certificate",
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


def _root(v, Q):
    v = np.asarray(v, dtype=complex)
    return CommonRoot(vector=v, residual=max(abs(float(np.real(v.conj() @ q @ v))) for q in Q))


def _face(Q, X, scale, rtol):
    """Eigenpairs ``(lam, W)`` of a lowest face reached from the annihilated
    X >= 0.  Eigenvalues up to ``rtol`` count as zero.  While the forms
    compressed to range(X), ``W^* Q_j W``, annihilate a traceless direction Z
    (the null space of the same solve on the compressed forms), X steps along
    Z until an eigenvalue hits 0; the loop ends at rank 1 or where no such Z
    is left.  Each step lowers the rank, so m passes suffice."""
    for _ in range(len(X)):
        lam, vecs = np.linalg.eigh(X)
        keep = lam > rtol
        lam, W = lam[keep] / np.sum(lam[keep]), vecs[:, keep]
        if lam.size == 1:
            return lam, W
        sub = matgap._least_squares_dual(np.einsum("ka,jkl,lb->jab", W.conj(), Q, W), scale, rtol)
        if sub.rank == len(sub.basis):
            return lam, W
        Z = np.einsum("i,ikl->kl", sub.Vt[sub.rank], sub.basis)
        t = -1.0 / np.linalg.eigvalsh(Z / np.sqrt(np.outer(lam, lam)))[0]
        X = W @ (np.diag(lam) + t * Z) @ W.conj().T
    return lam, W


def _dual_certificate(forms, scale, rtol, opts):
    """Decide Hermitian forms on C^m (m >= 2) from the dual solve of
    :func:`rollgap.matgap.dual_stationarity` at tolerance ``rtol * scale``:

    * its definite combination is returned as it stands;
    * an annihilated ``X >= 0``: :func:`_face` reduces it.  Rank 1 is ``v v^*`` with v a
      common root; for real forms rank 2, ``X = l_1 u_1 u_1^T + l_2 u_2
      u_2^T``, gives the root ``sqrt(l_1) u_1 + i sqrt(l_2) u_2``, since
      ``v^* Q v = <Q, Re v v^*>``;
    * a full-column-rank system pins X at ``X_0 = I/m + sum y_i E_i``, the
      least-squares solution with residual r.  Every unit v has form
      values ``A (y_v - y) - r``, where ``I/m + sum (y_v)_i E_i`` is ``v v^*``
      (its real part for real forms).  No singular value is dropped, so r is
      orthogonal to the range of A and ``sigma_min(A) d / sqrt(n)`` is a
      proven floor on the root residual, with d the least Frobenius distance
      from ``X_0`` to such a matrix (a lower bound on it when ``X_0`` is not
      PSD): ``d^2 = 1 - 2 l_max + ||X_0||_F^2`` for complex forms, and ``2
      delta^2 + sum_{i >= 3} l_i^2`` with ``delta = (1 - l_1 - l_2) / 2`` for
      real ones (eigenvalues of ``X_0`` descending).  It is returned as
      ``Undecided``.

    A solve that reaches ``matgap.SPECTRAPLEX_MAX_ITER`` is ``Undecided``
    with the ``dual_residual`` ``max_j |<Q_j, X>|`` of its last iterate.
    Only a reduction that stalls above rank 1 (2 for real forms) with X not
    unique searches: :func:`numeric_common_root` from X's top eigenvector.
    """
    Q = matgap._form_array(forms)
    s = matgap.dual_stationarity(Q, scale, rtol)
    stationary, X = s

    def undecided(**found):
        return Undecided(diagnostics={"m": Q.shape[1], "independent_forms": independent_count(Q),
                                      **found})

    if s.combination is not None:
        return DefiniteCombination(*s.combination)
    if not stationary:
        return undecided(dual_residual=float(np.max(np.abs(np.einsum("jkl,lk->j", Q, X).real))))
    lam, W = _face(Q, X, scale, rtol)
    if lam.size == 1:
        return _root(W[:, 0], Q)
    if lam.size == 2 and not np.iscomplexobj(Q):
        return _root(np.sqrt(lam[1]) * W[:, 1] + 1j * np.sqrt(lam[0]) * W[:, 0], Q)
    if s.rank == len(s.basis):
        X0 = np.eye(len(X)) / len(X) + np.einsum("i,ikl->kl", s.y, s.basis)
        ev = np.linalg.eigvalsh(X0)[::-1]
        if np.iscomplexobj(Q):
            d2 = 1.0 - 2.0 * ev[0] + np.sum(ev * ev)
        else:
            d2 = 0.5 * (1.0 - ev[0] - ev[1]) ** 2 + np.sum(ev[2:] ** 2)
        return undecided(root_residual_floor=float(s.sv[-1] * np.sqrt(d2) / np.sqrt(len(Q))))
    norm = max(float(np.linalg.norm(q, 2)) for q in Q)
    tol = opts.root_tol * max(norm, 1e-300)
    v, residual = numeric_common_root(Q, opts, tol, W[:, -1])
    if residual <= tol:
        return CommonRoot(vector=v, residual=residual)
    return undecided(best_root_residual=residual, root_tolerance=opts.root_tol * norm)


def form_certificate(forms, opts: CertifyOptions | None = None):
    """Certificate for Hermitian forms on C^m (m >= 2) from one dual solve:
    a unit definite combination, a common root, or ``Undecided`` with a
    proven ``root_residual_floor``, the root search's best value, or the
    ``dual_residual`` of a solve stopped at its iteration cap; see
    :func:`_dual_certificate`.  The tolerance is ``pd_tol`` times the largest
    form norm.  At m = 2 every pair decides.
    """
    opts = opts or CertifyOptions()
    Q = [_hermitize(q) for q in forms]
    if not Q or Q[0].ndim != 2 or Q[0].shape[0] < 2 or any(q.shape != Q[0].shape for q in Q):
        raise InvalidInputError("expected a non-empty list of square forms of one size m >= 2")
    scale = max(float(np.linalg.norm(q, 2)) for q in Q)
    return _dual_certificate(Q, scale, opts.pd_tol, opts)


def numeric_common_root(forms, opts: CertifyOptions | None = None, tol: float = 0.0, start=None):
    """Multi-start least-squares search for a joint root of Hermitian forms.

    Minimizes the vector of form values over the unit sphere of C^m and
    returns ``(vector, residual)`` with ``residual = max_j |v^* Q_j v|`` at
    the best point found.  The search minimizes the 2-norm of the values, so
    the residual is the best found, neither the least max-residual nor a
    floor (see :func:`form_certificate` for a proven one).  The first start
    is ``start`` when given, else the all-ones vector.  The starts end at the
    first point whose residual is at most the absolute tolerance ``tol``; at
    the default 0 that is an exact root, which no later start could improve
    on, so the result is that of all ``root_starts``.
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
            v0 = np.ones(m) if start is None else np.asarray(start, dtype=complex)
            x0 = np.concatenate([v0.real, v0.imag])
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


def certify_minimizer(B, S: DiagonalScaling, opts: CertifyOptions | None = None):
    """Certify a candidate scaling via the restricted variational forms.

    The certificate reads the stationarity solve behind ``converged_S``
    (:func:`rollgap.matgap.dual_stationarity`, tolerance ``STATIONARY_RTOL``
    times ``||B_S||^2``).  One-dimensional clusters keep the scalar test: the
    root, or the largest scalar form as the definite combination.  Larger
    clusters are decided by :func:`_dual_certificate`: a definite
    combination, a common root from the face reduction of the dual X, or
    ``Undecided`` with the proven ``root_residual_floor`` (the outcome on the
    genuine gap examples), the root search running only where the face
    reduction stalls.
    """
    opts = opts or CertifyOptions()
    M = as_matrix(B)
    F = variational_forms(M, S)
    BS = matgap.scale(M, S).entries
    norm = matgap.op_norm(ComplexMatrix(BS))
    mu = norm ** 2

    def rooted(root, residual):
        return CommonRoot(vector=root, residual=residual,
                          phases=matgap._reconstruct_phases(BS, F.basis @ root, norm))

    if F.m == 1:
        stationary, _ = matgap.dual_stationarity(F.forms, mu)
        vals = np.array([float(q[0, 0].real) for q in F.forms])
        residual = float(np.max(np.abs(vals)))
        if stationary:
            return rooted(np.array([1.0 + 0j]), residual)
        j = int(np.argmax(np.abs(vals)))
        coeffs = np.zeros(len(vals))
        coeffs[j] = np.sign(vals[j])
        return DefiniteCombination(coeffs=coeffs, min_eig=residual)

    cert = _dual_certificate(F.forms, mu, matgap.STATIONARY_RTOL, opts)
    if isinstance(cert, CommonRoot):
        return rooted(cert.vector, cert.residual)
    return cert


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
