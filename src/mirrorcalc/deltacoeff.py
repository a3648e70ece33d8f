"""Rational coefficients delta(n, p) governing the logarithmic
singularity of Quillen-type metrics at an ordinary double point,
with the n = 3 identities as the test surface.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import List


def delta(n: int, p: int) -> Fraction:
    """delta(n,p) = sum_{j=0}^{p} (-1)^j C(n+1,j)
    ((p-j+1)^{n+2} - (p-j)^{n+2}) / (n+2)!  for 0 <= p <= n.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension n must be positive (an int), got {n!r}")
    if type(p) is not int or not 0 <= p <= n:
        raise ValueError(f"form degree p must be an int in 0..{n}, got {p!r}")
    total = 0
    for j in range(p + 1):
        total += (-1) ** j * comb(n + 1, j) * (
            (p - j + 1) ** (n + 2) - (p - j) ** (n + 2))
    return Fraction(total, factorial(n + 2))


def delta_row(n: int) -> List[Fraction]:
    """All of delta(n, 0..n)."""
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension n must be positive (an int), got {n!r}")
    return [delta(n, p) for p in range(n + 1)]


def lemma512_check() -> bool:
    """True iff delta(3,p) + delta(3,3-p) = 1 for all p and
    sum_p p*delta(3,p) = 19/4, both exactly.
    """
    row = delta_row(3)
    if any(row[p] + row[3 - p] != 1 for p in range(4)):
        return False
    return sum(p * row[p] for p in range(4)) == Fraction(19, 4)
