"""Rational coefficients delta(n, p) governing the logarithmic
singularity of Quillen-type metrics at an ordinary double point,
with the n = 3 identities as the test surface.

The paper's sum (n+2)! delta(n, p) = sum_{j=0}^{p} (-1)^j C(n+1, j)
((p-j+1)^{n+2} - (p-j)^{n+2}) is read with Pascal's rule C(n+1, j) +
C(n+1, j-1) = C(n+2, j), which folds its two powers into one:
(n+2)! delta(n, p) = sum_{j=0}^{p} (-1)^j C(n+2, j) (p+1-j)^{n+2}.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import List


def _check_dimension(n) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension n must be positive (an int), got {n!r}")


def _signed_binomials(N: int, p: int) -> list[int]:
    """(-1)^j C(N, j), j = 0..p."""
    return [(-1) ** j * comb(N, j) for j in range(p + 1)]


def delta(n: int, p: int) -> Fraction:
    """delta(n,p) = sum_{j=0}^{p} (-1)^j C(n+2,j) (p+1-j)^{n+2} / (n+2)!
    for 0 <= p <= n."""
    _check_dimension(n)
    if type(p) is not int or not 0 <= p <= n:
        raise ValueError(f"form degree p must be an int in 0..{n}, got {p!r}")
    N = n + 2
    return Fraction(sum(c * (p + 1 - j) ** N for j, c in
                        enumerate(_signed_binomials(N, p))), factorial(N))


def delta_row(n: int) -> List[Fraction]:
    """All of delta(n, 0..n), from the n + 1 powers k^(n+2), k = 1..n+1,
    each computed once."""
    _check_dimension(n)
    N = n + 2
    powers, signs = [k ** N for k in range(n + 2)], _signed_binomials(N, n)
    den = factorial(N)
    return [Fraction(sum(map(mul, signs[:p + 1], powers[p + 1:0:-1])), den)
            for p in range(n + 1)]


def lemma512_check() -> bool:
    """True iff delta(3,p) + delta(3,3-p) = 1 for all p and
    sum_p p*delta(3,p) = 19/4, both exactly.
    """
    row = delta_row(3)
    if any(row[p] + row[3 - p] != 1 for p in range(4)):
        return False
    return sum(p * row[p] for p in range(4)) == Fraction(19, 4)
