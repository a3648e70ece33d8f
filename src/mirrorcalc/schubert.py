"""Independent anchor for the genus-zero pipeline: the number of lines
on a generic quintic threefold, the degree of c_6(Sym^5 S*) on the
Grassmannian G(2,5) of lines in P^4 (S the tautological subbundle).

Method: Bott's residue formula (Ellingsrud-Stromme, alg-geom/9411005).
A torus acting on C^5 with distinct weights w fixes the ten coordinate
lines <e_i, e_j>.  There c_6(Sym^5 S*) restricts to the product of the
six weights -(a w_i + (5-a) w_j), a = 0..5, whose six signs cancel,
and the Euler class of the tangent space Hom(S, Q) to the product of
its weights w_k - w_l, l in {i, j}, k not in {i, j}, so

    deg c_6(Sym^5 S*) = sum_{i<j} prod_a (a w_i + (5-a) w_j)
                                  / prod_{l,k} (w_k - w_l),

whatever the weights.  Nothing here touches the mirror-map pipeline.
"""

from fractions import Fraction
from itertools import combinations
from math import prod


def _bott_sum(w) -> Fraction:
    """The fixed-point sum above at five distinct integer weights w."""
    return sum((Fraction(prod(a * w[i] + (5 - a) * w[j] for a in range(6)),
                         prod(w[k] - w[l] for l in (i, j)
                              for k in range(5) if k not in (i, j)))
                for i, j in combinations(range(5), 2)), Fraction(0))


def count_lines() -> int:
    """The number of lines on a generic quintic threefold in P^4."""
    total = _bott_sum((0, 1, 2, 3, 4))
    if total.denominator != 1:
        raise ArithmeticError(f"Bott sum {total} is not an integer")
    return total.numerator
