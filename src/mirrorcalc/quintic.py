"""Quintic mirror series: the period y0, the mirror map, and the
genus-one amplitude log-derivative G(q).

Everything is computed in exact rational arithmetic in one of two
charts: x = (5*psi)**-5 near psi = infinity, and the flat coordinate q.
Fractional powers of psi never appear as series; they enter only as
rational multiples of log x, which become rational multiples of the
unit series u(q) = q d(log x)/dq after applying q d/dq.  The chart
series are integral, so G is computed on int as the integer series 6 G.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, lcm

from .series import ExactSeries, SeriesError, _log_derivative


def _harmonic_gaps(order: int) -> list[Fraction]:
    """H_n = sum_{j=n+1}^{5n} 1/j, n = 0..order, on int over lcm(1..5 order):
    H_n = H_{n-1} - 1/n + sum_{j=5n-4}^{5n} 1/j."""
    D = lcm(*range(1, 5 * order + 1))
    gaps, h = [Fraction(0)], 0
    for n in range(1, order + 1):
        h += sum(D // j for j in range(5 * n - 4, 5 * n + 1)) - D // n
        gaps.append(Fraction(h, D))
    return gaps


def period_y0(order: int) -> ExactSeries:
    """The holomorphic period y0 = sum_n (5n)!/(n!)^5 x^n, x = (5 psi)^-5.

    Normalized so y0(0) = 1 (the unit-series normalization forced by
    y0 -> 1 as |psi| -> infinity).
    """
    if order < 0:
        raise SeriesError("order must be non-negative")
    return ExactSeries([factorial(5 * n) // factorial(n) ** 5
                        for n in range(order + 1)], tag="x", order=order)


class MirrorChart:
    """The paired coordinates x and q with the mirror map both ways.

    Every series ends at x^order or q^order: y0 and q_of_x = x + ...
    in x, their transports x_of_q (the inverse) and y0_of_q in q.
    u_of_q is q d(log x)/dq, the unit series carrying every rational
    multiple of log x through the q d/dq operator.  y0_of_q is read by
    mirror_map from the reversion's power table; 1 - 3125 x(q) is
    computed on first use.  The series are integral (Lian-Yau,
    Krattenthaler-Rivoal) and a non-integral coefficient is rejected,
    so readers compute on the integer numerators.
    """

    def __init__(self, order, y0, q_of_x, x_of_q, u_of_q, y0_of_q):
        self.order, self.y0, self.q_of_x = order, y0, q_of_x
        self.x_of_q, self.u_of_q, self.y0_of_q = x_of_q, u_of_q, y0_of_q
        if y0.coeffs[0] != 1:
            raise SeriesError("y0 must be a unit series")
        if q_of_x.coeffs[0] or q_of_x.coeffs[1] != 1:
            raise SeriesError("q_of_x must be x + O(x^2)")
        for name in ("y0", "q_of_x", "x_of_q", "u_of_q", "y0_of_q"):
            if any(c.denominator != 1 for c in getattr(self, name).coeffs):
                raise SeriesError(f"{name} must have integral coefficients")

    @cached_property
    def one_minus_3125x_of_q(self) -> ExactSeries:
        """1 - 3125 x(q)."""
        return 1 - self.x_of_q * 3125


def mirror_map(order: int) -> MirrorChart:
    """Build the mirror map q(x) = x * exp((5/y0) * sum a_n H_n x^n)
    with H_n = sum_{j=n+1}^{5n} 1/j, together with its reversion x(q),
    y0(x(q)) read from the same reversion, and the logarithmic velocity
    u(q), all to order.
    """
    if order < 1:
        raise SeriesError("mirror_map needs order >= 1")
    # u = 1 + q r'/r with r = x(q)/q, integral with r(0) = 1: dividing by
    # q costs one order, so the period, the exponent and the reversion
    # run at order + 1 and the other series are cut back to order.
    n = order + 1
    y0 = period_y0(n)
    inner = ExactSeries([a * h for a, h in zip(y0.coeffs, _harmonic_gaps(n))],
                        tag="x", order=n)
    q_of_x = ExactSeries.identity(n, "x") * (inner * 5 / y0).exp()
    y0 = y0.truncate(order)
    x_of_q, y0_of_q = q_of_x.reverse(y0)
    u = _log_derivative([c.numerator for c in x_of_q.coeffs[1:]])
    u[0] += 1
    return MirrorChart(order=order, y0=y0, q_of_x=q_of_x.truncate(order),
                       x_of_q=ExactSeries(x_of_q.coeffs[:order + 1], tag="q"),
                       u_of_q=ExactSeries(u, tag="q"),
                       y0_of_q=ExactSeries(y0_of_q.coeffs, tag="q"))


# Rational multiple of log x in the log of the genus-one amplitude:
#   (62/3)*log psi  -> -62/15 * log x   (log psi = -(1/5) log x + const)
#   -(1/6)*log(psi^5 - 1) -> +1/6 * log x  (psi^5 - 1 = (1-3125x)/(3125x))
#   log(q dpsi/dq) = log psi + log u + const -> -1/5 * log x
# totalling -25/6, the constant term of q d/dq F1.  G = -q d/dq F1
# negates all of it, so the log x multiple of G is +25/6 = 50/12.  It
# is also the constant term of G, since u(0) = 1 and every q f'/f
# vanishes at q = 0.
LOG_X_MULTIPLE = Fraction(50, 12)


def f1_log_derivative(chart: MirrorChart) -> ExactSeries:
    """G(q) = -q d/dq F1, with F1 the log of the genus-one amplitude
    (psi/y0)^(62/3) (psi^5-1)^(-1/6) q dpsi/dq, transported to the
    q-chart, to the chart's order.

    Split as LOG_X_MULTIPLE * u(q) minus the logarithmic derivatives
    L(f) = q f'/f of the unit series in the amplitude: y0(x(q))^(-62/3),
    (1 - 3125 x(q))^(-1/6) and u(q).  So, with 25 = 6 LOG_X_MULTIPLE,
    6 G = 25 u + 124 L(y0(x(q))) + L(1 - 3125 x(q)) - 6 L(u), an integer
    series computed on int.  G(0) = 25 u(0)/6 other than 50/12 raises
    SeriesError.
    """
    L = _log_derivative
    u, y, w = ([c.numerator for c in s.coeffs] for s in (
        chart.u_of_q, chart.y0_of_q, chart.one_minus_3125x_of_q))
    if (G0 := Fraction(25 * u[0], 6)) != LOG_X_MULTIPLE:
        raise SeriesError(f"G must have constant term 50/12, not {G0}")
    G6 = (25 * a + 124 * b + c - 6 * d for a, b, c, d in
          zip(u, L(y), L(w), L(u)))
    return ExactSeries([Fraction(v, 6) for v in G6], tag="q")


def picard_fuchs_check(y0: ExactSeries) -> bool:
    """True iff (theta^4 - 5x(5theta+1)(5theta+2)(5theta+3)(5theta+4)) y0
    vanishes to truncation, theta = x d/dx.

    Equivalent coefficient recursion:
    n^4 a_n = 5 (5n-1)(5n-2)(5n-3)(5n-4) a_{n-1}.
    """
    a = y0.coeffs
    for n in range(1, y0.order + 1):
        lhs = n ** 4 * a[n]
        rhs = 5 * (5 * n - 1) * (5 * n - 2) * (5 * n - 3) * (5 * n - 4) * a[n - 1]
        if lhs != rhs:
            return False
    return True
