#!/usr/bin/env python3
"""Certifying a candidate minimizer: definite combination or common root.

At a critical scaling the first variation of the top singular cluster is a
family of Hermitian forms on the cluster subspace.  A local minimum forbids
any definite real combination; a common nonzero root of all the forms
rebuilds a phase multiplier U with rho(U B_S) = ||B_S|| and closes the gap.
One least-squares solve for the trace-one X >= 0 annihilated by the forms
decides: its residual or its solution gives a definite combination, and
stepping X along the null directions of the forms until its rank drops to
one (two for real forms) gives the root.  Forms that pin X at a unique point
of rank above that, as three complex forms on C^2 do for the 4x4 gap matrix,
have no root, and the same solve bounds every unit vector's root residual
from below.
"""

import numpy as np

from rollgap import certify as cf
from rollgap import matgap as mg

rng = np.random.default_rng(1)

print("== the two-form dichotomy on C^2 ==")
counts = {"definite-combination": 0, "common-root": 0, "undecided": 0}
for _ in range(2000):
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    cert = cf.form_certificate([(a + a.T) / 2, (b + b.T) / 2])
    counts[cert.kind] += 1
print(f"  2000 random real-symmetric pairs -> {counts}")

print()
print("== three complex forms that defeat both certificates ==")
pauli = mg.pauli_like_forms()
print("  diag(1,-1), the real flip, and the imaginary flip:")
stationary, X = mg.dual_stationarity(pauli, 1.0)
print(f"  trace-one X >= 0 annihilated by every form -> {stationary}, "
      f"eigenvalues of X {np.linalg.eigvalsh(X).round(4)}")
print("    (so no real combination of the forms is definite)")
floor = cf.form_certificate(pauli).diagnostics["root_residual_floor"]
print(f"  proven root-residual floor on the unit sphere -> {floor:.4f} (= 1/sqrt(3))")

print()
print("== certification at actual minimizers ==")
B = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
_, S, _, _ = mg.min_scaled_norm(B)
cert = cf.certify_minimizer(B, S)
BS = mg.scale(B, S)
print(f"  random 2x2 at its argmin: {cert.kind}, residual {cert.residual:.2e}")
rho = mg.spectral_radius(mg.phase_apply(BS, cert.phases))
print(f"  reconstructed phases give rho(U B_S) = {rho:.12f} "
      f"vs ||B_S|| = {mg.op_norm(BS):.12f}")

B4, _, _ = mg.counterexample_c4()
cert4 = cf.certify_minimizer(B4, mg.DiagonalScaling.identity(4))
print(f"  4x4 gap matrix at the identity: {cert4.kind}")
print(f"    diagnostics: {cert4.diagnostics}")
print("    (root_residual_floor is proven: no unit vector of the cluster comes closer)")

print()
print("== five real forms on C^3 (the dense frontier for real matrices) ==")
five = cf.forms_r3_five()
print(f"  independent forms: {cf.independent_count(five)} (out of the 6-dim space)")
stationary5, X5 = mg.dual_stationarity(five, 1.0)
print(f"  trace-one X >= 0 annihilated by every form -> {stationary5}, "
      f"eigenvalues of X {np.linalg.eigvalsh(X5).round(4)}")
print("    (so no real combination of the forms is definite)")
floor5 = cf.form_certificate(five).diagnostics["root_residual_floor"]
print(f"  proven joint-root residual floor -> {floor5:.4f} (= 1/sqrt(30))")

print()
print("== why small dimensions are safe: orbit dimension counts ==")
for n, m, field in [(3, 2, "complex"), (4, 2, "complex"), (5, 3, "real"), (6, 3, "real")]:
    d = cf.dimension_count(n, m, field)
    ambient = 2 * n * n if field == "complex" else n * n
    rel = "<" if d < ambient else ">="
    print(f"  {field} n={n}, multiplicity {m}: orbit bound {d} {rel} ambient {ambient}")
print("  (a bound below the ambient dimension makes multiple top singular")
print("   values non-generic, which is what the density arguments exploit)")
