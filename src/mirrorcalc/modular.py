"""q-expansions of the eta product and the discriminant form, Petersson
norms, and the product assembly for the (K3 x elliptic curve)/Z2 family.

Convention: eta(q) = prod_{n>=1} (1 - q^n), without the classical
q^{1/24} prefactor; the discriminant is Delta = q * eta(q)^24.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

# ``series`` is imported where it is used: ``modular --tau`` runs
# petersson_delta alone, which loads ``kernels`` only to raise.


def eta_series(order: int) -> ExactSeries:
    """Truncated prod_{n>=1} (1 - q^n), from Euler's pentagonal-number
    theorem: sum_k (-1)^k q^{k(3k-1)/2} over all integers k.
    """
    from .series import ExactSeries, SeriesError
    if order < 0:
        raise SeriesError("order must be non-negative")
    coeffs = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                coeffs[e] = (-1) ** k
        k += 1
    return ExactSeries.from_nums(coeffs, 1, "q")


def delta_series(order: int) -> ExactSeries:
    """Truncated q * prod (1-q^n)^24.

    b = eta^24 comes from the power recurrence
    m b_m = sum_{k=1}^{m} (25k - m) a_k b_{m-k} over the sparse
    pentagonal coefficients a_k of eta; b is integral, so the division
    by m is exact.
    """
    from .series import ExactSeries, SeriesError
    if order < 1:
        raise SeriesError("delta_series needs order >= 1")
    n = order - 1
    terms = [(k, a) for k, a in enumerate(eta_series(n).nums) if k and a]
    b = [1]
    for m in range(1, n + 1):
        b.append(sum((25 * k - m) * a * b[m - k]
                     for k, a in terms if k <= m) // m)
    return ExactSeries.from_nums([0, *b], 1, "q")


# A reduced tau has Im tau >= sqrt(3)/2, so r = |q| <= exp(-pi sqrt 3): eight
# factors leave |Delta|^2 a relative error <= expm1(48 r^9/(1-r)^2) <= 2.6e-20.
FACTORS = 8


@dataclass(frozen=True)
class PeterssonValue:
    tau: complex
    norm_sq: float       # exp(log_norm_sq); underflows to 0.0 far from i
    log_norm_sq: float
    error_bound: float   # dominating bound on the relative truncation error

    def to_json_dict(self) -> dict:
        return {"tau": [self.tau.real, self.tau.imag],
                "norm_sq": self.norm_sq, "log_norm_sq": self.log_norm_sq,
                "error_bound": self.error_bound}


def petersson_delta(tau: complex) -> PeterssonValue:
    """(Im tau)^12 |Delta|^2, Delta = q prod (1-q^n)^24, q = exp(2 pi i tau),
    at the equivalent point of the SL2(Z) fundamental domain, reduced
    exactly on Fractions.  A reduced Im tau > 1e307 (-log_norm_sq ~ 4 pi
    Im tau nears the float limit) raises SeriesError."""
    if tau.imag <= 0:
        from .kernels import SeriesError
        raise SeriesError("tau must lie in the upper half-plane")
    x, y = Fraction(tau.real), Fraction(tau.imag)
    while (n := (x := x - round(x)) ** 2 + y * y) < 1:  # translate, invert
        x, y = -x / n, y / n
    if y > 1e307:
        from .kernels import SeriesError
        raise SeriesError(f"tau = {tau} reduces to Im tau > 1e307, out of "
                          "float range for the log-norm")
    y = float(y)
    q = cmath.exp(2j * math.pi * complex(x, y))
    prod = math.prod(1 - q ** k for k in range(1, FACTORS + 1))
    log_norm_sq = (12 * math.log(y) - 4 * math.pi * y
                   + 48 * math.log(abs(prod)))
    r = abs(q)
    return PeterssonValue(tau, math.exp(log_norm_sq), log_norm_sq,
                          math.expm1(48 * r ** (FACTORS + 1) / (1 - r) ** 2))


def fhsv_assemble(phi_norm_sq: float, delta_norm_sq: float, C: float) -> float:
    """Product C * |Phi|^2 * |Delta|^2 for the quotient threefold; the
    ten-dimensional automorphic norm |Phi|^2 is an external input.
    """
    for name, v in (("phi_norm_sq", phi_norm_sq),
                    ("delta_norm_sq", delta_norm_sq), ("C", C)):
        if not v > 0:
            from .kernels import SeriesError
            raise SeriesError(f"{name} must be positive, got {v}")
    return C * phi_norm_sq * delta_norm_sq
