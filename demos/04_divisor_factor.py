"""Weighted-divisor factor of the quintic mirror family.

Assembles the closed-form factor from the family data (Euler number,
zeros of the section, double-point locus), compares it with the known
normal form, and evaluates the associated Green-type potential.
"""

import math

from mirrorcalc import divisor
from mirrorcalc.deltacoeff import delta_row

data = divisor.FamilyData.quintic_mirror()
factor = divisor.assemble_factor(data)

print("exponent entries:")
for pt, e in factor.entries:
    print(f"  {pt.to_json()}: {e}")
print("exponent at infinity:", factor.infinity_exponent)
print("xi power:", factor.xi_power)
print("vector-field power:", factor.vector_field_power)
print("overall root:", factor.overall_root)

print("\nmatches normal form:",
      divisor.divisor_equal(factor, divisor.quintic_normal_form()))

got, bound = divisor.green_potential(data, 2.0)
want = 2 * math.log(31) - 248 * math.log(2)
print(f"\nGreen potential at psi = 2: {got}")
print(f"log(31^2 / 2^248)         : {want}")
print(f"error bound               : {bound:.2e}")

print("\ndelta coefficients in dimension 3:",
      [str(v) for v in delta_row(3)])
