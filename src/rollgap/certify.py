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

For two Hermitian forms on C^2 exactly one of the two certificates always
exists, and the root is constructive; for real-symmetric collections on C^2
the dichotomy extends to any number of forms.  Three or more independent
complex forms can evade both (the mechanism behind the 4x4 gap matrix), in
which case the searches report ``Undecided`` with diagnostics.

:func:`certify_minimizer` first runs :func:`rollgap.matgap.dual_stationarity`,
the test behind ``converged_S``: a stationary scaling admits no definite
combination, so only the root side runs there, and the flag and the
certificate decide with the same code.
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
    semi_tol: float = 1e-10
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


def _orthonormal_form_basis(forms, rtol: float = 1e-9):
    """Orthonormal basis of span(forms) plus the expansion coefficients of
    each basis element in the original forms."""
    rows = []
    for q in forms:
        q = _hermitize(q)
        rows.append(np.concatenate([q.real.ravel(), q.imag.ravel()]))
    A = np.array(rows).T  # columns are vectorized forms
    u, sv, vh = np.linalg.svd(A, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return [], np.zeros((0, len(forms)))
    k = int(np.sum(sv > rtol * sv[0]))
    m = forms[0].shape[0]
    basis = []
    for i in range(k):
        vec = u[:, i]
        re = vec[: m * m].reshape(m, m)
        im = vec[m * m:].reshape(m, m)
        basis.append(_hermitize(re + 1j * im))
    # coefficients: basis_i = sum_j coeffs[i, j] * forms[j]
    coeffs = (vh[:k, :].conj() / sv[:k, None])
    return basis, coeffs


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


def common_root_2d(q1, q2, opts: CertifyOptions | None = None):
    """Constructive common root of two Hermitian forms on C^2, if one exists.

    The first form is brought to a diagonal normal form by congruence.  In
    the indefinite case the roots of the first form are a circle of
    directions and substitution into the second form leads to a solvable
    phase equation exactly when ``(d + b)^2 <= 4 |c|^2`` in normalized
    coordinates; semidefinite and zero forms are handled by parametrizing
    their null sets directly.  Returns a unit vector or ``None``; if both
    forms vanish identically every vector is a root and the first basis
    vector is returned.
    """
    opts = opts or CertifyOptions()
    q1 = _hermitize(q1)
    q2 = _hermitize(q2)
    if q1.shape != (2, 2) or q2.shape != (2, 2):
        raise InvalidInputError("common_root_2d expects 2x2 Hermitian forms")
    n1 = float(np.linalg.norm(q1, 2))
    n2 = float(np.linalg.norm(q2, 2))
    scale = max(n1, n2)
    if scale == 0.0:
        return np.array([1.0 + 0j, 0.0])
    if n1 <= opts.semi_tol * scale:
        # first form vanishes; the problem is the single-form one
        return common_root_2d(q2, np.zeros((2, 2)), opts)

    lam, vecs = np.linalg.eigh(q1)
    # eigh sorts ascending: lam[0] <= lam[1]
    small = opts.semi_tol * n1
    if lam[0] > small or lam[1] < -small:
        # definite: only the zero root
        return None
    if abs(lam[0]) <= small or abs(lam[1]) <= small:
        # semidefinite: the null set of q1 is the line of the ~zero eigenvector
        w = vecs[:, 0] if abs(lam[0]) <= abs(lam[1]) else vecs[:, 1]
        val = float(np.real(w.conj() @ q2 @ w))
        if abs(val) <= max(opts.root_tol * scale, 10 * small * n2 / max(n1, 1e-300)):
            return w / np.linalg.norm(w)
        return None

    # indefinite: congruence to diag(1, -1)
    P = np.column_stack([vecs[:, 1] / np.sqrt(lam[1]), vecs[:, 0] / np.sqrt(-lam[0])])
    qt = _hermitize(P.conj().T @ q2 @ P)
    b = float(qt[0, 0].real)
    d = float(qt[1, 1].real)
    c = complex(qt[0, 1])
    rhs = -(d + b) / 2.0
    slack = opts.root_tol * max(abs(b), abs(d), abs(c), 1.0)
    if abs(c) + slack < abs(rhs):
        return None
    if abs(c) <= slack:
        gamma = 1.0 + 0j
    else:
        ratio = np.clip(rhs / abs(c), -1.0, 1.0)
        psi = np.arccos(ratio) - np.angle(c)
        gamma = np.exp(1j * psi)
    root = P @ np.array([1.0 + 0j, gamma])
    return root / np.linalg.norm(root)


def form_pair_dichotomy(q1, q2, opts: CertifyOptions | None = None):
    """Certificate for a pair of Hermitian forms on C^2.

    Exactly one of the two certificates exists for every pair: a definite
    real combination excludes any nonzero common root, and the constructive
    root criterion covers the complement (boundary cases, where the best
    combination is only semidefinite, fall to the root side).
    """
    opts = opts or CertifyOptions()
    q1 = _hermitize(q1)
    q2 = _hermitize(q2)
    scale = max(float(np.linalg.norm(q1, 2)), float(np.linalg.norm(q2, 2)))
    if scale == 0.0:
        return CommonRoot(vector=np.array([1.0 + 0j, 0.0]), residual=0.0)

    # lambda_min along the coefficient circle, vectorized closed form
    phis = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    combos_p = np.cos(phis)[:, None, None] * q1[None] + np.sin(phis)[:, None, None] * q2[None]
    tr = np.real(combos_p[:, 0, 0] + combos_p[:, 1, 1])
    det_disc = np.sqrt(
        (np.real(combos_p[:, 0, 0] - combos_p[:, 1, 1]) / 2.0) ** 2
        + np.abs(combos_p[:, 0, 1]) ** 2
    )
    lmins = tr / 2.0 - det_disc
    i0 = int(np.argmax(lmins))

    def neg_lmin(phi):
        combo = np.cos(phi) * q1 + np.sin(phi) * q2
        return -_lambda_min(combo)

    span = 2.0 * np.pi / 2048
    res = scipy.optimize.minimize_scalar(
        neg_lmin, bounds=(phis[i0] - span, phis[i0] + span), method="bounded",
        options={"xatol": 1e-14},
    )
    best = max(-res.fun, lmins[i0])
    phi = res.x if -res.fun >= lmins[i0] else phis[i0]
    if best > opts.pd_tol * scale:
        coeffs = np.array([np.cos(phi), np.sin(phi)])
        combo = coeffs[0] * q1 + coeffs[1] * q2
        return DefiniteCombination(coeffs=coeffs, min_eig=_lambda_min(combo))

    return _pair_root(q1, q2, opts, {"best_min_eig": best})


def _pair_root(q1, q2, opts, diagnostics):
    """Root side of the pair dichotomy: the constructive root, retried with
    the root tolerance relaxed to 1e-6 for boundary cases."""
    root = common_root_2d(q1, q2, opts)
    if root is None:
        relaxed = CertifyOptions(**{**opts.__dict__, "root_tol": max(opts.root_tol, 1e-6)})
        root = common_root_2d(q1, q2, relaxed)
    if root is None:
        return Undecided(diagnostics={**diagnostics, "reason": "no root at boundary"})
    residual = max(abs(float(np.real(root.conj() @ q @ root))) for q in (q1, q2))
    return CommonRoot(vector=root, residual=residual)


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

    :func:`rollgap.matgap.dual_stationarity`, the test behind
    ``converged_S``, runs first; a stationary scaling admits no definite
    combination, so only the root side runs there.  One-dimensional clusters
    always decide (the root, or the largest scalar form as the definite
    combination).  Two-dimensional clusters whose forms span at most two real
    directions fall to the constructive pair dichotomy; richer spans and
    larger clusters go through the numeric searches and may return
    ``Undecided`` with diagnostics, the expected outcome on the genuine gap
    examples.
    """
    opts = opts or CertifyOptions()
    M = as_matrix(B)
    F = variational_forms(M, S)
    BS = matgap.scale(M, S).entries
    stationary, _ = matgap.dual_stationarity(F.forms, matgap.op_norm(ComplexMatrix(BS)) ** 2)

    def rooted(root, residual):
        return CommonRoot(vector=root, residual=residual,
                          phases=_reconstruct_phases(BS, F.basis @ root))

    if F.m == 1:
        vals = np.array([float(q[0, 0].real) for q in F.forms])
        residual = float(np.max(np.abs(vals)))
        if stationary:
            return rooted(np.array([1.0 + 0j]), residual)
        j = int(np.argmax(np.abs(vals)))
        coeffs = np.zeros(len(vals))
        coeffs[j] = np.sign(vals[j])
        return DefiniteCombination(coeffs=coeffs, min_eig=residual)

    basis, coeffs = _orthonormal_form_basis(F.forms)
    k = len(basis)
    if k == 0:
        root = np.zeros(F.m, dtype=complex)
        root[0] = 1.0
        return rooted(root, 0.0)

    if F.m == 2 and k <= 2:
        g1 = basis[0]
        g2 = basis[1] if k == 2 else np.zeros((2, 2), dtype=complex)
        cert = _pair_root(g1, g2, opts, {}) if stationary else form_pair_dichotomy(g1, g2, opts)
        if isinstance(cert, DefiniteCombination):
            # map coefficients on the orthonormal pair back to the originals
            full = cert.coeffs[0] * coeffs[0]
            if k == 2:
                full = full + cert.coeffs[1] * coeffs[1]
            return DefiniteCombination(coeffs=np.real(full), min_eig=cert.min_eig)
        if isinstance(cert, CommonRoot):
            root = cert.vector
            return rooted(root, max(abs(float(np.real(root.conj() @ q @ root))) for q in F.forms))
        return cert

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
        "independent_forms": k,
        "best_root_residual": residual,
        "root_tolerance": opts.root_tol * max(scale_norm, 0.0),
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
