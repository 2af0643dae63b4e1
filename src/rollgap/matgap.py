"""Diagonal-scaling norm minimization versus phase-modulated spectral radius.

For a square complex matrix B, two quantities are compared:

* ``inf_S ||S B S^{-1}||`` over positive diagonal scalings S, and
* ``max_U rho(U B)`` over diagonal unitary phase multipliers U,

where ``|| . ||`` is the l2 operator norm and ``rho`` the spectral radius.
The first always dominates the second; the difference is the *gap*.  The gap
vanishes for every complex matrix of size at most 3 and every real matrix of
size at most 5, while an explicit 4x4 complex matrix (see
:func:`counterexample_c4`) has a gap of roughly ten percent.

The module provides the two optimizations, the gap report combining them, a
graph reduction that splits reducible matrices into irreducible blocks (cross
block couplings can be scaled away, so they do not contribute to either
quantity), and the explicit example matrices used in the golden tests.

Scalings are parametrized as ``s_j = exp(t_j)`` with ``t_1 = 0``; both
objectives depend only on the ratios ``s_j / s_k``, so this normalization is
free.  The norm objective, convex in the logs, is minimized by one anneal of
a smoothed surrogate (log-sum-exp over squared singular values with the
temperature lowered toward zero) because the largest singular value may be
multiple at the minimizer, where the plain objective is not differentiable.
Optimality is decided by convex duality in :func:`dual_stationarity`, the
test that :mod:`rollgap.certify` runs too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import InvalidInputError, NumericalError, PreconditionError

__all__ = [
    "ComplexMatrix",
    "DiagonalScaling",
    "PhaseVector",
    "GapReport",
    "BlockStructure",
    "GapOptions",
    "op_norm",
    "spectral_radius",
    "scale",
    "phase_apply",
    "min_scaled_norm",
    "top_cluster_forms",
    "dual_stationarity",
    "DualSolve",
    "PhaseMax",
    "max_phase_rho",
    "gap",
    "reduce_graph",
    "gap_reduced",
    "counterexample_c4",
    "verify_c4_trace",
    "c4_trace_closed_form",
    "candidate_r6",
    "landscape_local_min_2x2",
    "block_local_max",
    "random_gap_stats",
    "pauli_like_forms",
]

MAX_DIM = 16
# both convergence flags decide with this relative tolerance: max_phase_rho's
# exact gradient must be at most this times the value in every coordinate,
# and dual_stationarity's residual at most this times the squared norm
STATIONARY_RTOL = 1e-6
# the phase search stops once its best value reaches (1 - BOUND_RTOL) times
# an upper bound: every scaling S gives rho(U B) = rho(U B_S) <= ||B_S||
BOUND_RTOL = 1e-9
# iterations of dual_stationarity's projected-gradient solve before it stops
# undecided; seeded open form sets of m = 3, 4 need at most ~400
SPECTRAPLEX_MAX_ITER = 2000
# squared singular values within this fraction of the largest one form the
# top cluster
CLUSTER_RTOL = 1e-6
# the scaling anneal stops after a stage whose iterate has mu_1 - mu_2 above
# this many temperatures: the surrogate and its gradient then equal mu_1's to
# exp(-40), below rounding, so lower temperatures repeat the same minimization
SEPARATION_TEMPERATURES = 40.0
# |y^* x| of the unit left/right top eigenvectors below which the top
# eigenvalue is treated as defective and its phase gradient as zero.  Rounding
# splits a defective double eigenvalue into a pair with |y^* x| of order
# sqrt(eps) ~ 1.5e-8 times the conditioning of its eigenbasis, so the floor
# sits well above that
_DEFECTIVE_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class ComplexMatrix:
    """Immutable square complex matrix with finite entries.

    Real matrices are the imaginary-part-zero special case, flagged by
    ``is_real``.
    """

    __slots__ = ("entries", "n", "is_real")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[0] > MAX_DIM:
            raise InvalidInputError(f"dimension {a.shape[0]} outside supported range 1..{MAX_DIM}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise InvalidInputError("matrix entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "is_real", bool(np.all(a.imag == 0.0)))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix is immutable")

    def __repr__(self):
        return f"ComplexMatrix(n={self.n}, is_real={self.is_real})"


def as_matrix(B) -> ComplexMatrix:
    """Coerce an array-like or ComplexMatrix to ComplexMatrix."""
    if isinstance(B, ComplexMatrix):
        return B
    return ComplexMatrix(B)


class DiagonalScaling:
    """Positive diagonal scaling ``S = diag(exp(t_1), ..., exp(t_n))``.

    Stored through the logs ``t_j`` with the normalization ``t_1 = 0``; the
    scaled matrix depends only on ratios, so this loses nothing.
    """

    __slots__ = ("logs",)

    def __init__(self, logs):
        t = np.asarray(logs, dtype=float).copy()
        if t.ndim != 1 or t.size < 1:
            raise InvalidInputError("logs must be a nonempty 1-d real array")
        if not np.all(np.isfinite(t)):
            raise InvalidInputError("scaling logs must be finite")
        if t[0] != 0.0:
            raise InvalidInputError("normalization requires t_1 = 0; use from_s or shift")
        t.setflags(write=False)
        object.__setattr__(self, "logs", t)

    def __setattr__(self, name, value):
        raise AttributeError("DiagonalScaling is immutable")

    @classmethod
    def identity(cls, n):
        return cls(np.zeros(n))

    @classmethod
    def from_s(cls, s):
        """Build from positive diagonal entries, renormalizing so t_1 = 0."""
        s = np.asarray(s, dtype=float)
        if s.ndim != 1 or s.size < 1:
            raise InvalidInputError("diagonal entries must be a nonempty 1-d array")
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise InvalidInputError("diagonal entries must be positive and finite")
        t = np.log(s)
        return cls(t - t[0])

    @property
    def n(self):
        return self.logs.size

    @property
    def s(self):
        return np.exp(self.logs)

    def __repr__(self):
        return f"DiagonalScaling(logs={np.array2string(self.logs, precision=4)})"


class PhaseVector:
    """Diagonal unitary multiplier ``U = diag(exp(i theta_1), ...)``.

    Angles are stored in [0, 2 pi) with ``theta_1 = 0``: a global phase leaves
    every spectral radius unchanged, since rho(e^{i phi} M) = rho(M).
    """

    __slots__ = ("angles",)

    def __init__(self, angles):
        th = np.mod(np.asarray(angles, dtype=float), 2.0 * np.pi)
        if th.ndim != 1 or th.size < 1:
            raise InvalidInputError("angles must be a nonempty 1-d real array")
        if th[0] != 0.0:
            raise InvalidInputError("normalization requires theta_1 = 0; use from_angles")
        th.setflags(write=False)
        object.__setattr__(self, "angles", th)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseVector is immutable")

    @classmethod
    def identity(cls, n):
        return cls(np.zeros(n))

    @classmethod
    def from_angles(cls, angles):
        """Build from arbitrary angles, rotating the global phase so theta_1 = 0."""
        th = np.asarray(angles, dtype=float)
        return cls(np.mod(th - th[0], 2.0 * np.pi))

    @property
    def n(self):
        return self.angles.size

    @property
    def u(self):
        return np.exp(1j * self.angles)

    def __repr__(self):
        return f"PhaseVector(angles={np.array2string(self.angles, precision=4)})"


@dataclass(frozen=True)
class GapReport:
    """Outcome of the paired optimizations for one matrix.

    ``gap = inf_norm - max_rho`` is nonnegative up to solver tolerance;
    ``rel_gap`` records the same quantity relative to ``inf_norm`` (both are
    reported since either normalization is meaningful for a unit-norm
    counterexample).  ``top_multiplicity`` is the numerical multiplicity of
    the largest eigenvalue of (S B S^{-1})^* (S B S^{-1}) at the minimizer,
    and ``restarts_used`` the number of local ascents the phase search ran.
    """

    inf_norm: float
    argmin_S: DiagonalScaling
    max_rho: float
    argmax_U: PhaseVector
    gap: float
    rel_gap: float
    top_multiplicity: int
    converged_S: bool
    converged_U: bool
    restarts_used: int

    def to_dict(self):
        return {
            "inf_norm": float(self.inf_norm),
            "argmin_s_logs": [float(v) for v in self.argmin_S.logs],
            "max_rho": float(self.max_rho),
            "argmax_u_angles": [float(v) for v in self.argmax_U.angles],
            "gap": float(self.gap),
            "rel_gap": float(self.rel_gap),
            "top_multiplicity": int(self.top_multiplicity),
            "converged_s": bool(self.converged_S),
            "converged_u": bool(self.converged_U),
            "restarts_used": int(self.restarts_used),
        }


@dataclass(frozen=True)
class BlockStructure:
    """Strongly-connected-component contraction of the sparsity digraph.

    ``node_partition`` lists the contracted components (index sets);
    ``component_blocks`` lists the final weakly connected components.  A
    matrix is irreducible exactly when a single node remains after the
    contraction.
    """

    node_partition: list
    component_blocks: list
    is_irreducible: bool


@dataclass
class GapOptions:
    """Tunable knobs for the two searches.

    ``log_bound`` caps ``|t_j|`` in the single anneal of the scaling search;
    iterates pinned at the cap signal an infimum that is only approached
    along diverging scalings (nilpotent-type matrices), reported with
    ``converged=False``.  ``restarts`` bounds the number of local ascents
    for the phase search; the coarse grid uses 12 points per angle unless
    that would exceed ``grid_cap`` evaluations.
    """

    log_bound: float = 40.0
    restarts: int = 64
    grid_points: int = 12
    grid_cap: int = 20736
    seed: int = 0


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def op_norm(B) -> float:
    """Largest singular value (l2 operator norm)."""
    A = as_matrix(B).entries
    try:
        return float(np.linalg.svd(A, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError("singular value decomposition failed") from exc


def spectral_radius(B) -> float:
    """Maximum modulus of the eigenvalues."""
    A = as_matrix(B).entries
    try:
        return float(np.max(np.abs(np.linalg.eigvals(A))))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigenvalue computation failed") from exc


def scale(B, S: DiagonalScaling) -> ComplexMatrix:
    """Conjugate by the scaling: entry (j, k) becomes B_jk * s_j / s_k."""
    M = as_matrix(B)
    if S.n != M.n:
        raise InvalidInputError("scaling size does not match matrix size")
    s = S.s
    return ComplexMatrix(M.entries * (s[:, None] / s[None, :]))


def phase_apply(B, U: PhaseVector) -> ComplexMatrix:
    """Multiply row j by exp(i theta_j)."""
    M = as_matrix(B)
    if U.n != M.n:
        raise InvalidInputError("phase vector size does not match matrix size")
    return ComplexMatrix(U.u[:, None] * M.entries)


def _scaled(A, t):
    s = np.exp(t)
    return A * (s[:, None] / s[None, :])


# ---------------------------------------------------------------------------
# norm minimization over scalings
# ---------------------------------------------------------------------------


def _softmax_value_grad(A, t, tau):
    """Smoothed squared-norm surrogate and its gradient in the logs.

    The surrogate is ``tau * log sum_i exp(mu_i / tau)`` over the squared
    singular values ``mu_i`` of the scaled matrix; each ``d mu_i / d t_j``
    equals ``2 mu_i (|u_i[j]|^2 - |v_i[j]|^2)`` with u_i, v_i the singular
    vectors.
    """
    BS = _scaled(A, t)
    U, sv, Vh = np.linalg.svd(BS)
    mu = sv * sv
    z = (mu - mu[0]) / tau
    w = np.exp(z)
    w /= w.sum()
    val = mu[0] + tau * np.log(np.sum(np.exp(z)))
    # d mu_i / d t_j, rows j, columns i
    dmu = 2.0 * mu[None, :] * (np.abs(U) ** 2 - np.abs(Vh.T.conj()) ** 2)
    grad = dmu @ w
    return val, grad


def top_cluster_forms(BS):
    """Top singular cluster of ``B_S`` and its first-variation forms.

    Returns ``(V, forms)``: V is an orthonormal basis (n x m) of the
    eigenvectors of ``B_S^* B_S`` whose eigenvalues lie within
    ``CLUSTER_RTOL`` relative of the largest one, mu, and ``forms[j] = V^*
    (2 (B_S^* E_j B_S - mu E_j)) V`` with E_j the coordinate projectors.  At
    the zero matrix every direction is top and all forms vanish.
    """
    n = BS.shape[0]
    G = BS.conj().T @ BS
    mu, vecs = np.linalg.eigh(0.5 * (G + G.conj().T))
    top = mu[-1]
    if top <= 0.0:
        return np.eye(n, dtype=complex), [np.zeros((n, n), dtype=complex)] * n
    V = vecs[:, mu >= top * (1.0 - CLUSTER_RTOL)]
    W = BS @ V
    return V, [2.0 * (np.outer(W[j].conj(), W[j]) - top * np.outer(V[j].conj(), V[j]))
               for j in range(n)]


@functools.lru_cache(maxsize=None)
def _traceless_basis(m, real):
    """Frobenius-orthonormal basis, shape ``(D, m, m)``, of the traceless
    Hermitian m x m matrices (``D = m^2 - 1``), or of the traceless real
    symmetric ones when ``real`` (``D = m (m + 1) / 2 - 1``)."""
    E = []
    for k in range(1, m):
        d = np.zeros(m)
        d[:k] = 1.0
        d[k] = -k
        E.append(np.diag(d / np.sqrt(k * (k + 1.0))))
    for k, l in itertools.combinations(range(m), 2):
        e = np.zeros((m, m))
        e[k, l] = e[l, k] = np.sqrt(0.5)
        E.append(e)
        if not real:
            E.append(1j * (np.triu(e) - np.tril(e)))
    E = np.array(E, dtype=float if real else complex).reshape(-1, m, m)
    E.setflags(write=False)
    return E


class DualSolve(tuple):
    """``(stationary, X)`` of :func:`dual_stationarity`, with the
    least-squares solve it read as attributes: the coordinate ``basis`` of
    the traceless matrices, the SVD ``U, sv, Vt`` of the system matrix
    ``A[j, i] = <Q_j, basis[i]>``, its ``rank`` (singular values above the
    tolerance), the solution ``y`` (``X_0 = I/m + sum_i y_i basis[i]``) and
    the ``residual`` ``r_j = -<Q_j, X_0>``; ``combination`` is a definite
    ``(c, min_eig)`` (see :class:`rollgap.certify.DefiniteCombination`) or None."""

    def __new__(cls, stationary, X, **solve):
        out = super().__new__(cls, (stationary, X))
        out.__dict__.update(solve)
        return out


def _form_array(forms):
    """The forms as one array, real when no form has an imaginary part."""
    Q = np.asarray(forms)
    return Q if np.any(Q.imag) else Q.real


def _least_squares_dual(forms, mu, rtol):
    """The least-squares half of :func:`dual_stationarity`: its
    :class:`DualSolve` for ``X_0``, with no combination."""
    Q = _form_array(forms)
    m = Q.shape[1]
    E = _traceless_basis(m, not np.iscomplexobj(Q))
    b = -np.trace(Q, axis1=1, axis2=2).real / m
    A = np.einsum("jkl,ilk->ji", Q, E).real
    U, sv, Vt = np.linalg.svd(A)
    k = int(np.sum(sv > rtol * mu))
    y = Vt[:k].T @ (U[:, :k].T @ b / sv[:k])
    X = np.eye(m) / m + np.einsum("i,ikl->kl", y, E)
    r = b - A @ y
    stationary = (float(np.max(np.abs(r))) <= rtol * mu
                  and float(np.linalg.eigvalsh(X)[0]) >= -rtol)
    return DualSolve(stationary, X, basis=E, U=U, sv=sv, Vt=Vt, rank=k, y=y, residual=r,
                     combination=None)


def _spectraplex_projection(X):
    """Frobenius projection of a Hermitian X onto the trace-one PSD matrices:
    its eigenvalues go to their Euclidean projection onto the simplex."""
    lam, W = np.linalg.eigh(X)
    u = lam[::-1]
    excess = np.cumsum(u) - 1.0
    count = np.arange(1, u.size + 1)
    rho = count[u > excess / count][-1]
    return (W * np.maximum(lam - excess[rho - 1] / rho, 0.0)) @ W.conj().T


def _spectraplex_solve(Q, X0, lipschitz, tol):
    """Accelerated projected gradient (FISTA) for ``min |a(X)|^2 / 2``, ``a_j =
    <Q_j, X>``, over the trace-one X >= 0, from the projection of ``X0``, step
    ``1 / lipschitz``: ``(stationary, X, combination)`` at the first iterate
    with ``max_j |a_j| <= tol`` or with ``sum_j a_j Q_j`` definite (``a /
    |a|``), or undecided after ``SPECTRAPLEX_MAX_ITER`` iterates."""
    X = Z = _spectraplex_projection(X0)
    t = 1.0
    for _ in range(SPECTRAPLEX_MAX_ITER):
        a = np.einsum("jkl,lk->j", Q, X).real
        if np.max(np.abs(a)) <= tol:
            return True, X, None
        c = a / np.linalg.norm(a)
        min_eig = float(np.linalg.eigvalsh(np.einsum("j,jkl->kl", c, Q))[0])
        if min_eig > 0:
            return False, X, (c, min_eig)
        grad = np.einsum("j,jkl->kl", np.einsum("jkl,lk->j", Q, Z).real, Q)
        X_next = _spectraplex_projection(Z - grad / lipschitz)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Z = X_next + ((t - 1.0) / t_next) * (X_next - X)
        X, t = X_next, t_next
    return False, X, None


def dual_stationarity(forms, mu, rtol=STATIONARY_RTOL):
    """Decide whether the scaling that produced ``forms`` is a minimizer.

    The squared norm is convex in the logs, and its subdifferential at a
    scaling is ``{(<Q_j, X>)_j : X >= 0, tr X = 1}`` over the top-cluster
    forms Q_j (Lewis & Overton, Acta Numerica 1996), so the scaling is a
    minimizer exactly when some trace-one X >= 0 is annihilated by every
    form, and otherwise some real combination ``sum_j c_j Q_j`` is positive
    definite.  The test writes ``X = I/m + Y`` with Y in Frobenius-orthonormal
    coordinates on the traceless Hermitian matrices (real symmetric ones for
    real forms) and solves ``<Q_j, X> = 0`` by least squares, rank counted at
    ``rtol * mu``; ``X_0`` is the minimum-norm solution.  ``stationary``
    means ``max_j |<Q_j, X>| <= rtol * mu`` and ``lambda_min(X) >= -rtol``.
    If ``X_0`` fails, an inconsistent residual r gives the combination
    ``-r``, else the minimum-norm c with ``A^T c = y`` gives ``-sum_j c_j Q_j
    = |y|^2 I - Y_0`` (definite when ``X_0`` is not PSD at m = 2).  Where
    neither is definite, :func:`_spectraplex_solve` returns an annihilated X
    >= 0 or a definite combination: at the optimum ``a*`` of ``min |a(X)|``
    over the trace-one X >= 0, ``lambda_min(sum_j a*_j Q_j) >= |a*|^2``.
    Only its cap leaves the test undecided.  Returns the :class:`DualSolve`
    ``(stationary, X)``.
    """
    Q = _form_array(forms)
    s = _least_squares_dual(Q, mu, rtol)
    if s[0]:
        return s
    k = s.rank
    if np.max(np.abs(s.residual)) > rtol * mu:
        c = -s.residual
    else:
        c = -s.U[:, :k] @ (s.Vt[:k] @ s.y / s.sv[:k])
    c = c / np.linalg.norm(c)
    min_eig = float(np.linalg.eigvalsh(np.einsum("j,jkl->kl", c, Q))[0])
    if min_eig > 0:
        s.combination = (c, min_eig)
        return s
    stationary, X, s.combination = _spectraplex_solve(Q, s[1], s.sv[0] ** 2, rtol * mu)
    return DualSolve(stationary, X, **s.__dict__)


def min_scaled_norm(B, opts: GapOptions | None = None):
    """Minimize ``||S B S^{-1}||`` over positive diagonal scalings.

    Returns ``(value, S, multiplicity, converged)``.  One anneal from S = Id
    lowers the temperature of a log-sum-exp smoothing of the squared-norm
    objective toward zero inside the box ``|t_j| <= log_bound``; the log-norm
    is convex in the logs (Sezginer & Overton, IEEE TAC 1990), so further
    starts buy nothing.  The anneal stops after the first stage whose
    iterate separates the top two squared singular values by more than
    ``SEPARATION_TEMPERATURES`` times its temperature: there the surrogate
    is mu_1 to rounding, mu_1 is smooth, and a local minimum of a convex
    function is the global one.  ``multiplicity`` is the size of the top
    singular cluster, and ``converged`` means that no log hit the box edge
    (which would mean the infimum is approached only along diverging
    scalings) and that :func:`dual_stationarity` holds at the returned
    scaling.
    """
    opts = opts or GapOptions()
    M = as_matrix(B)
    A = M.entries
    n = M.n
    if n == 1:
        return abs(A[0, 0]), DiagonalScaling.identity(1), 1, True

    norm0 = op_norm(M)
    if norm0 == 0.0:
        return 0.0, DiagonalScaling.identity(n), n, True
    scale0 = norm0 * norm0

    bound = opts.log_bound
    bounds = [(-bound, bound)] * (n - 1)
    t = np.zeros(n - 1)
    for frac in [1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8]:
        tau = max(frac * scale0, 1e-300)

        def fun(tf, tau=tau):
            val, g = _softmax_value_grad(A, np.concatenate(([0.0], tf)), tau)
            return val, g[1:]

        t = scipy.optimize.minimize(
            fun, t, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-12},
        ).x
        tfull = np.concatenate(([0.0], t))
        BS = _scaled(A, tfull)
        sv = np.linalg.svd(BS, compute_uv=False)
        if sv[0] ** 2 - sv[1] ** 2 > SEPARATION_TEMPERATURES * tau:
            break

    value = sv[0]
    V, forms = top_cluster_forms(BS)
    bound_hit = bool(np.any(np.abs(tfull) >= bound - 1e-9))
    converged = not bound_hit and dual_stationarity(forms, value * value)[0]
    return float(value), DiagonalScaling(tfull), V.shape[1], bool(converged)


# ---------------------------------------------------------------------------
# spectral radius maximization over phases
# ---------------------------------------------------------------------------


def _rho_batch(A, thetas):
    """Spectral radii of U(theta) A for a (m, n-1) batch of free angles."""
    m = thetas.shape[0]
    n = A.shape[0]
    full = np.concatenate([np.zeros((m, 1)), thetas], axis=1)
    stack = np.exp(1j * full)[:, :, None] * A[None, :, :]
    ev = np.linalg.eigvals(stack)
    return np.max(np.abs(ev), axis=1)


def _rho_value_grad(A, tf):
    """``rho(U A)`` and its exact gradient in the free angles, from one eig.

    For a simple top eigenvalue lambda of ``M = diag(exp(i theta)) A`` with
    right vector x and left vector y, ``d lambda / d theta_j = i lambda
    conj(y_j) x_j / (y^* x)``, hence ``d|lambda| / d theta_j = -|lambda|
    Im(conj(y_j) x_j / (y^* x))``.  Where rho vanishes or ``|y^* x|`` (unit
    vectors) is below ``_DEFECTIVE_FLOOR`` the top eigenvalue is zero or
    numerically defective, the derivative does not exist, and the gradient
    returned is zero.
    """
    th = np.concatenate(([0.0], tf))
    w, vl, vr = scipy.linalg.eig(np.exp(1j * th)[:, None] * A, left=True, right=True)
    k = int(np.argmax(np.abs(w)))
    r = float(np.abs(w[k]))
    yx = vl[:, k].conj() * vr[:, k]
    s = yx.sum()
    if r == 0.0 or abs(s) < _DEFECTIVE_FLOOR:
        return r, np.zeros(tf.size)
    return r, -r * np.imag(yx[1:] / s)


def _reconstruct_phases(BS, r, norm):
    """Diagonal phases with ``U (B_S r) = norm r`` in every coordinate where
    ``(B_S r)_j`` is above ``1e-14 max(norm, 1)`` and the quotient
    ``norm r_j / (B_S r)_j`` is nonzero, angle 0 elsewhere.  At a
    unit r with ``|(B_S r)_j| = norm |r_j|`` for all j, a top right singular
    vector of a simple top singular value or a common root of the
    first-variation forms, norm ``= ||B_S||`` is an eigenvalue of ``U B_S``,
    so ``rho(U B) = rho(U B_S) = ||B_S||``."""
    Br = BS @ r
    n = BS.shape[0]
    u = np.ones(n, dtype=complex)
    for j in range(n):
        if abs(Br[j]) > 1e-14 * max(norm, 1.0):
            w = norm * r[j] / Br[j]
            if w != 0:
                u[j] = w / abs(w)
    return PhaseVector.from_angles(np.angle(u))


class PhaseMax(tuple):
    """``(value, U, converged)`` of :func:`max_phase_rho`, with the number of
    local ascents run as ``ascents``."""

    def __new__(cls, value, U, converged, ascents):
        out = super().__new__(cls, (value, U, converged))
        out.ascents = ascents
        return out


def max_phase_rho(B, opts: GapOptions | None = None, bound: float | None = None):
    """Maximize ``rho(U B)`` over diagonal unitary U.

    Returns ``(value, U, converged)`` as a :class:`PhaseMax`, whose
    ``ascents`` counts the local ascents run.  A coarse grid scan (12 points
    per free angle, capped in total size, with random starts standing in
    beyond the cap) seeds multi-start local ascent with exact eigenvalue
    gradients (one eigen-solve with left and right vectors per step); the
    landscape has genuine local maxima, so the grid plus restarts is not
    optional.  ``value >= rho(B)`` always, since U = Id is a feasible point.

    ``bound`` is an upper bound on the maximum, by default the value of
    :func:`min_scaled_norm`: S commutes with U, so ``rho(U B) = rho(U B_S)
    <= ||B_S||`` for every scaling S.  The multi-start ends as soon as the
    best value reaches ``bound * (1 - BOUND_RTOL)``, which then lies within
    ``BOUND_RTOL`` relative of the maximum; ``bound=np.inf`` runs every
    ascent.  ``converged`` means stationarity: the exact gradient at the
    returned angles is at most ``STATIONARY_RTOL * value`` in every
    coordinate.  Where two top eigenvalue moduli tie at the maximum, rho is
    not differentiable and the flag may be false.
    """
    opts = opts or GapOptions()
    M = as_matrix(B)
    A = M.entries
    n = M.n
    rho_id = spectral_radius(M)
    if n == 1:
        return PhaseMax(rho_id, PhaseVector.identity(1), True, 0)
    if bound is None:
        bound = min_scaled_norm(M, opts)[0]
    stop = bound * (1.0 - BOUND_RTOL)

    d = n - 1
    rng = np.random.default_rng(opts.seed)
    if opts.grid_points ** d <= opts.grid_cap:
        axes = [np.linspace(0.0, 2.0 * np.pi, opts.grid_points, endpoint=False)] * d
        grid = np.array(list(itertools.product(*axes)))
    else:
        grid = rng.uniform(0.0, 2.0 * np.pi, size=(opts.grid_cap, d))
        grid[0] = 0.0
    vals = _rho_batch(A, grid)

    k = min(opts.restarts, grid.shape[0])
    order = np.argsort(vals)[::-1][:k]

    def neg_rho(tf):
        r, g = _rho_value_grad(A, tf)
        return -r, -g

    best_val = rho_id
    best_theta = np.zeros(d)
    ascents = 0
    for idx in order:
        if best_val >= stop:
            break
        res = scipy.optimize.minimize(
            neg_rho, grid[idx], jac=True, method="L-BFGS-B",
            options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-12},
        )
        ascents += 1
        cand_val = -res.fun
        cand_theta = np.mod(res.x, 2.0 * np.pi)
        if cand_val > best_val + 1e-12:
            best_val, best_theta = cand_val, cand_theta
        elif abs(cand_val - best_val) <= 1e-12:
            # deterministic merge: ties broken by lexicographic angle vector
            if tuple(cand_theta) < tuple(best_theta):
                best_theta = cand_theta

    _, g = _rho_value_grad(A, best_theta)
    converged = float(np.max(np.abs(g))) <= STATIONARY_RTOL * best_val
    theta_full = np.concatenate(([0.0], best_theta))
    return PhaseMax(float(best_val), PhaseVector(theta_full), bool(converged), ascents)


# ---------------------------------------------------------------------------
# combined gap report and graph reduction
# ---------------------------------------------------------------------------


def _singular_pair_phase(A, S, norm):
    """The phase answer read off the top singular pair of ``B_S``: the
    :class:`PhaseMax` of the phases with ``U B_S v = norm v`` for the top
    right singular vector v, with 0 ascents, or None when its spectral
    radius falls short of ``norm * (1 - BOUND_RTOL)``, the stop rule of
    :func:`max_phase_rho`.  At a minimizing S with a simple top singular
    value its forms have the root 1, so the radius reaches ``norm``."""
    BS = _scaled(A, S.logs)
    v = np.linalg.svd(BS)[2][0].conj()
    U = _reconstruct_phases(BS, v, norm)
    value, g = _rho_value_grad(A, U.angles[1:])
    if value < norm * (1.0 - BOUND_RTOL):
        return None
    return PhaseMax(value, U, bool(np.all(np.abs(g) <= STATIONARY_RTOL * value)), 0)


def gap(B, opts: GapOptions | None = None) -> GapReport:
    """Run both searches and package the results.

    The phase answer is first read off the top singular pair of the
    minimizing ``B_S`` (:func:`_singular_pair_phase`, one SVD and one
    eigen-solve); it stands when it reaches the scaled-norm bound, as it
    does at every minimizer with a simple top singular value, and then
    ``restarts_used`` is 0.  Otherwise :func:`max_phase_rho` runs, bounded
    by the scaled norm.
    """
    opts = opts or GapOptions()
    M = as_matrix(B)
    inf_norm, S, mult, conv_s = min_scaled_norm(M, opts)
    phase = _singular_pair_phase(M.entries, S, inf_norm)
    if phase is None:
        phase = max_phase_rho(M, opts, bound=inf_norm)
    max_rho, U, conv_u = phase
    g = inf_norm - max_rho
    rel = g / inf_norm if inf_norm > 0 else 0.0
    return GapReport(
        inf_norm=inf_norm, argmin_S=S, max_rho=max_rho, argmax_U=U,
        gap=g, rel_gap=rel, top_multiplicity=mult,
        converged_S=conv_s, converged_U=conv_u,
        restarts_used=phase.ascents,
    )


def reduce_graph(B, zero_rtol: float = 1e-12) -> BlockStructure:
    """Contract the sparsity digraph of B along its strongly connected parts.

    An edge i -> j is present when ``|B_ij| > zero_rtol * max |B|``.  Nodes on
    a common closed loop force bounded scaling ratios, so they are contracted;
    the remaining structure is a forest whose cross edges can be annihilated
    by extreme scalings.
    """
    M = as_matrix(B)
    A = np.abs(M.entries)
    n = M.n
    cutoff = zero_rtol * (A.max() if A.size else 0.0)
    adj = scipy.sparse.csr_matrix((A > cutoff).astype(np.int8))
    n_scc, scc_labels = connected_components(adj, directed=True, connection="strong")
    n_weak, weak_labels = connected_components(adj, directed=True, connection="weak")
    node_partition = [sorted(np.flatnonzero(scc_labels == c).tolist()) for c in range(n_scc)]
    node_partition.sort(key=lambda ix: ix[0])
    component_blocks = [sorted(np.flatnonzero(weak_labels == c).tolist()) for c in range(n_weak)]
    component_blocks.sort(key=lambda ix: ix[0])
    return BlockStructure(
        node_partition=node_partition,
        component_blocks=component_blocks,
        is_irreducible=(n_scc == 1),
    )


def gap_reduced(B, opts: GapOptions | None = None) -> GapReport:
    """Gap report computed blockwise after the graph reduction.

    Cross-block entries survive only along forest edges of the contracted
    digraph, and extreme scalings send them to zero without affecting either
    objective, so the infimum and the maximum both split over the strongly
    connected blocks.  The reported scaling and phase vectors are assembled
    from the blockwise optimizers; for genuinely tree-coupled matrices the
    assembled scaling realizes the infimum only in the limit of extreme
    ratios, which is exactly what ``converged`` flags summarize per block.
    """
    opts = opts or GapOptions()
    M = as_matrix(B)
    structure = reduce_graph(M)
    blocks = structure.node_partition
    if len(blocks) == 1:
        return gap(M, opts)

    n = M.n
    logs = np.zeros(n)
    angles = np.zeros(n)
    inf_norm = -np.inf
    max_rho = -np.inf
    mult = 1
    conv_s = True
    conv_u = True
    restarts = 0
    for ix in blocks:
        sub = ComplexMatrix(M.entries[np.ix_(ix, ix)])
        rep = gap(sub, opts)
        logs[ix] = rep.argmin_S.logs
        angles[ix] = rep.argmax_U.angles
        if rep.inf_norm > inf_norm:
            inf_norm = rep.inf_norm
            mult = rep.top_multiplicity
        max_rho = max(max_rho, rep.max_rho)
        conv_s = conv_s and rep.converged_S
        conv_u = conv_u and rep.converged_U
        restarts += rep.restarts_used
    logs -= logs[0]
    angles = np.mod(angles - angles[0], 2.0 * np.pi)
    g = inf_norm - max_rho
    return GapReport(
        inf_norm=float(inf_norm),
        argmin_S=DiagonalScaling(logs),
        max_rho=float(max_rho),
        argmax_U=PhaseVector(angles),
        gap=float(g),
        rel_gap=float(g / inf_norm) if inf_norm > 0 else 0.0,
        top_multiplicity=mult,
        converged_S=conv_s,
        converged_U=conv_u,
        restarts_used=restarts,
    )


# ---------------------------------------------------------------------------
# explicit example matrices
# ---------------------------------------------------------------------------


def counterexample_c4():
    """The rank-two 4x4 complex matrix with a strict gap.

    Returns ``(B, R, L)`` where R and L are 4x2 with orthonormal columns and
    ``B = L R^*``.  By construction ``||B|| = 1`` with the top singular value
    of multiplicity two, the identity scaling is the unique minimizer of the
    scaled norm, yet no phase multiplier lifts the spectral radius to 1.
    """
    R = 0.5 * np.array(
        [
            [1, 0],
            [1, 1],
            [1, 1j],
            [1, -1j - 1],
        ],
        dtype=complex,
    )
    L = 0.5 * np.array(
        [
            [0, 1],
            [1, -1],
            [1, -1j],
            [-1j + 1, 1],
        ],
        dtype=complex,
    )
    B = ComplexMatrix(L @ R.conj().T)
    return B, R, L


def c4_trace_closed_form(s1: float, s2: float, s3: float) -> float:
    """Closed-form trace of (L_S^* L_S)(R_S^* R_S) for the 4x4 example.

    Normalization s_4 = 1.  Grouping conjugate pairs shows each term is at
    least its value at s = (1,1,1), which sums to 2; hence the scaled norm of
    the example never drops below 1.
    """
    a, b, c = s1 * s1, s2 * s2, s3 * s3
    ia, ib, ic = 1.0 / a, 1.0 / b, 1.0 / c
    first = (ia + ib + ic + 1.0) * (b + c + 2.0)
    second = (a + b + c + 1.0) * (ib + ic + 2.0)
    cross = 2.0 * (b + ib - 2.0) + 2.0 * (c + ic - 2.0)
    return (first + second + cross) / 16.0


def verify_c4_trace(S: DiagonalScaling) -> float:
    """Trace bound check for the 4x4 example at a given scaling.

    Accepts any positive scaling of size 4 (internally renormalized to
    s_4 = 1, which leaves the trace unchanged) and evaluates the closed-form
    trace of (L_S^* L_S)(R_S^* R_S); the result is always at least 2, with
    equality exactly at the identity.
    """
    if S.n != 4:
        raise InvalidInputError("the counterexample scaling must have size 4")
    s = S.s
    s = s / s[3]
    return c4_trace_closed_form(s[0], s[1], s[2])


def candidate_r6() -> ComplexMatrix:
    """Experimental real 6x6 candidate built from five forms on C^3.

    Only the leading 5x6 block is pinned down numerically; it is embedded
    with a zero last row.  Gap runs on this matrix are not conclusive either
    way, so no sign is asserted anywhere.
    """
    block = np.array(
        [
            [0.14753503, 0.19982136, 0.00339269, 0.51926021, 0.00847797, 0.21926921],
            [0.08321061, 0.13296559, 0.15631294, -0.1954354, -0.04654104, -0.21988828],
            [-0.37549381, -0.02645794, 0.01837161, -0.39654006, 0.43179675, 0.49911196],
            [-0.3001269, -0.27661858, -0.57464677, 0.35421452, -0.00469564, 0.39153639],
            [0.32691344, -0.09925285, 0.51568898, 0.35643262, 0.22186063, 0.25403942],
        ]
    )
    full = np.zeros((6, 6))
    full[:5, :] = block
    return ComplexMatrix(full)


def landscape_local_min_2x2():
    """Rank-one 2x2 matrix whose phase landscape has a local minimum at Id.

    Returns ``(B, curve)`` with ``curve(theta) = rho(diag(1, e^{i theta}) B)``
    equal to ``sqrt(2 (1 - cos theta))``: zero at theta = 0 (a strict local
    minimum of the phase problem) and maximal, 2, at theta = pi.
    """
    B = ComplexMatrix(np.array([[1.0, -1.0], [1.0, -1.0]]))

    def curve(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 0:
            U = np.diag([1.0, np.exp(1j * float(theta))])
            return float(np.max(np.abs(np.linalg.eigvals(U @ B.entries))))
        return np.array([curve(float(t)) for t in theta])

    return B, curve


def block_local_max(Btilde, r: float) -> ComplexMatrix:
    """Pad a matrix with a leading scalar block to plant a local maximum.

    Requires ``rho(Btilde) < r < max_U rho(U Btilde)`` (checked numerically).
    For the padded matrix, U = Id is a local maximum of the phase problem
    with value r, while the global maximum stays at the larger block value.
    """
    sub = as_matrix(Btilde)
    lo = spectral_radius(sub)
    hi, _, _ = max_phase_rho(sub)
    if not (lo < r < hi):
        raise PreconditionError(
            f"r must lie strictly between rho(Btilde)={lo:.6g} and max_U rho={hi:.6g}"
        )
    n = sub.n + 1
    out = np.zeros((n, n), dtype=complex)
    out[0, 0] = r
    out[1:, 1:] = sub.entries
    return ComplexMatrix(out)


def pauli_like_forms():
    """The three Hermitian 2x2 forms with indefinite span and only the zero
    common root: diag(1,-1), the real off-diagonal flip, and its imaginary
    partner."""
    q1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    q2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    q3 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
    return [q1, q2, q3]


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------


def random_gap_stats(
    n: int,
    count: int,
    ensemble: str = "complex-gaussian",
    seed: int = 0,
    threshold: float = 1e-3,
    include_counterexample: bool = False,
    opts: GapOptions | None = None,
):
    """Distribution of the relative gap over a Ginibre ensemble.

    Deterministic given the seed.  Returns a dict with quantiles of
    ``(inf_norm - max_rho) / inf_norm``, the fraction above ``threshold``,
    and the count of non-converged samples.  With
    ``include_counterexample=True`` (meaningful at n = 4, complex) the known
    gap matrix is appended to the sample set.
    """
    if n < 2:
        raise InvalidInputError("ensemble dimension must be at least 2")
    if count < 1:
        raise InvalidInputError("sample count must be positive")
    if ensemble not in ("complex-gaussian", "real-gaussian"):
        raise InvalidInputError(f"unknown ensemble {ensemble!r}")
    opts = opts or GapOptions()
    rng = np.random.default_rng(seed)
    rel_gaps = []
    flags = []
    mats = []
    for _ in range(count):
        if ensemble == "complex-gaussian":
            A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        else:
            A = rng.standard_normal((n, n)) / np.sqrt(n)
        mats.append(ComplexMatrix(A))
    if include_counterexample:
        if n != 4:
            raise InvalidInputError("the known counterexample has size 4")
        mats.append(counterexample_c4()[0])
    for M in mats:
        rep = gap(M, opts)
        rel_gaps.append(rep.rel_gap)
        flags.append(rep.converged_S and rep.converged_U)
    rel_gaps = np.array(rel_gaps)
    flags = np.array(flags)
    qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    return {
        "n": n,
        "count": len(mats),
        "ensemble": ensemble,
        "seed": seed,
        "threshold": threshold,
        "quantiles": {str(q): float(np.quantile(rel_gaps, q)) for q in qs},
        "fraction_above_threshold": float(np.mean(rel_gaps > threshold)),
        "non_converged": int(np.sum(~flags)),
        "max_rel_gap": float(np.max(rel_gaps)),
        "rel_gaps": [float(v) for v in rel_gaps],
        "converged": [bool(v) for v in flags],
    }
