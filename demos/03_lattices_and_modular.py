"""Lattice covolumes with symbolic powers of pi, and the discriminant
modular form.

Computes the L2 Gram matrix of a small cubic lattice, the rank-11
covolume of the Enriques-type example, and the Petersson norm of Delta
and its logarithm, evaluated at the equivalent point of the fundamental
domain with an explicit truncation error bound.
"""

from fractions import Fraction as F

from mirrorcalc import lattice, modular

L = lattice.CubicLattice.from_entries(
    2, {(0, 0, 0): F(6), (0, 0, 1): F(1)}, kappa=[F(1), F(0)])
res = lattice.covolume(L)
print("Gram matrix:", [[str(v) for v in row] for row in res.gram])
print("covolume:", res.covolume)

A = lattice.enriques_invariant_gram()
h = [1, 1] + [0] * 8
print("\nrank-11 covolume:", lattice.fhsv_covolume(A, h).covolume)
print("volume:", lattice.fhsv_volume(A, h))
print("constant check:", lattice.fhsv_constant_check(A, h),
      "(expected 2^50 pi^42 =", str(2 ** 50) + " pi^42)")

print("\nDelta = q * eta(q)^24 to order 12:", modular.delta_series(12))
val = modular.petersson_delta(0.5 + 2j)
print("Petersson norm at tau = 1/2 + 2i:", val.norm_sq,
      "+/-", val.error_bound)
print("its logarithm:", val.log_norm_sq)
sval = modular.petersson_delta(-1 / (0.5 + 2j))
print("same at -1/tau (modular invariance):", sval.norm_sq)
far = modular.petersson_delta(0.0001j)
print(f"log-norm at tau = 0.0001i: {far.log_norm_sq} "
      f"(norm_sq underflows to {far.norm_sq})")
