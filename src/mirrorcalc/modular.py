"""q-expansions of the eta product and the discriminant form, Petersson
norms, and the product assembly for the (K3 x elliptic curve)/Z2 family.

Convention: eta(q) = prod_{n>=1} (1 - q^n), without the classical
q^{1/24} prefactor; the discriminant is Delta = q * eta(q)^24.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .series import ExactSeries, SeriesError


def eta_series(order: int) -> ExactSeries:
    """Truncated prod_{n>=1} (1 - q^n), from Euler's pentagonal-number
    theorem: sum_k (-1)^k q^{k(3k-1)/2} over all integers k.
    """
    if order < 0:
        raise SeriesError("order must be non-negative")
    coeffs = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                coeffs[e] = (-1) ** k
        k += 1
    return ExactSeries(coeffs, tag="q", order=order)


def delta_series(order: int) -> ExactSeries:
    """Truncated q * prod (1-q^n)^24.

    b = eta^24 comes from the power recurrence
    m b_m = sum_{k=1}^{m} (25k - m) a_k b_{m-k} over the sparse
    pentagonal coefficients a_k of eta; b is integral, so the division
    by m is exact.
    """
    if order < 1:
        raise SeriesError("delta_series needs order >= 1")
    n = order - 1
    terms = [(k, int(a)) for k, a in enumerate(eta_series(n).coeffs)
             if k and a]
    b = [1]
    for m in range(1, n + 1):
        b.append(sum((25 * k - m) * a * b[m - k]
                     for k, a in terms if k <= m) // m)
    return ExactSeries([0, *b], tag="q", order=order)


@dataclass(frozen=True)
class PeterssonValue:
    tau: complex
    norm_sq: float
    error_bound: float   # dominating bound on the relative truncation error

    def to_json_dict(self) -> dict:
        return {"tau": [self.tau.real, self.tau.imag],
                "norm_sq": self.norm_sq,
                "error_bound": self.error_bound}


def petersson_delta(tau: complex, terms: int = 200) -> PeterssonValue:
    """(Im tau)^12 |Delta(tau)|^2 with Delta = q prod (1-q^n)^24,
    q = exp(2 pi i tau).

    The truncated product omits factors (1-q^n) for n > terms; the
    reported bound dominates the resulting relative error of |Delta|^2.
    """
    if tau.imag <= 0:
        raise SeriesError("tau must lie in the upper half-plane")
    if terms < 1:
        raise SeriesError("terms must be positive")
    q = cmath.exp(2j * math.pi * tau)
    r = abs(q)
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(terms):
        qn *= q
        prod *= (1.0 - qn)
    delta = q * prod ** 24
    norm_sq = tau.imag ** 12 * abs(delta) ** 2
    # |log prod_{n>terms}(1-q^n)| <= sum_{n>terms} r^n/(1-r) = r^{terms+1}/(1-r)^2
    log_tail = r ** (terms + 1) / (1.0 - r) ** 2
    rel_bound = math.expm1(48.0 * log_tail)
    return PeterssonValue(tau=tau, norm_sq=norm_sq, error_bound=rel_bound)


def fhsv_assemble(phi_norm_sq: float, delta_norm_sq: float, C: float) -> float:
    """Product C * |Phi|^2 * |Delta|^2 for the quotient threefold; the
    ten-dimensional automorphic norm |Phi|^2 is an external input.
    """
    for name, v in (("phi_norm_sq", phi_norm_sq),
                    ("delta_norm_sq", delta_norm_sq), ("C", C)):
        if not v > 0:
            raise SeriesError(f"{name} must be positive, got {v}")
    return C * phi_norm_sq * delta_norm_sq
