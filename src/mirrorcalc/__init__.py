"""Exact-arithmetic library for the closed-form invariants of the
quintic mirror family: mirror map and genus-one amplitude series,
Gromov-Witten bookkeeping, double-point torsion coefficients, lattice
covolumes, modular norms, and the explicit divisor factor on the
moduli line.
"""

__version__ = "0.1.0"
