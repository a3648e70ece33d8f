"""Quintic mirror series as ExactSeries: the period y0, the mirror
map, and the genus-one amplitude log-derivative G(q).

Everything is computed in exact rational arithmetic in one of two
charts: x = (5*psi)**-5 near psi = infinity, and the flat coordinate q.
Fractional powers of psi never appear as series; they enter only as
rational multiples of log x, which become rational multiples of the
unit series u(q) = q d(log x)/dq after applying q d/dq.  Each function
wraps the int pipeline of ``kernels``, which holds the algorithms.
"""

from __future__ import annotations

from . import kernels
from .series import ExactSeries


def period_y0(order: int) -> ExactSeries:
    """The holomorphic period y0 of ``kernels.period``."""
    return ExactSeries.from_nums(kernels.period(order), 1, "x")


class MirrorChart:
    """The paired coordinates x and q with the mirror map both ways.

    Every series ends at x^order or q^order: y0 and q_of_x = x + ...
    in x, their transports x_of_q (the inverse) and y0_of_q in q.
    u_of_q is q d(log x)/dq, the unit series carrying every rational
    multiple of log x through the q d/dq operator.  A record that trusts
    its arguments: ``kernels.mirror_map`` checks its period against the
    Picard-Fuchs equation and solves both charts with exact divisions;
    ``q_nums`` hands the q-chart to the kernels only if it is integral.
    """

    def __init__(self, order, y0, q_of_x, x_of_q, u_of_q, y0_of_q):
        self.order, self.y0, self.q_of_x = order, y0, q_of_x
        self.x_of_q, self.u_of_q, self.y0_of_q = x_of_q, u_of_q, y0_of_q

    def q_nums(self) -> tuple:
        """The integral x_of_q, u_of_q and y0_of_q as the int numerators
        the kernels read; a series with den != 1 raises SeriesError."""
        for name in ("x_of_q", "u_of_q", "y0_of_q"):
            if (den := getattr(self, name).den) != 1:
                raise kernels.SeriesError(
                    f"{name} must be integral, not over the denominator {den}")
        return self.x_of_q.nums, self.u_of_q.nums, self.y0_of_q.nums


def mirror_map(order: int) -> MirrorChart:
    """The chart of ``kernels.mirror_map`` to order; a period that fails
    its Picard-Fuchs equation raises SeriesError."""
    return MirrorChart(order, *(ExactSeries.from_nums(s, 1, tag) for s, tag
                                in zip(kernels.mirror_map(order), "xxqqq")))


def f1_log_derivative(chart: MirrorChart) -> ExactSeries:
    """G(q) = -q d/dq F1, with F1 the log of the genus-one amplitude
    (psi/y0)^(62/3) (psi^5-1)^(-1/6) q dpsi/dq, transported to the
    q-chart, to the chart's order.

    Split as (50/12) u(q) minus L(f) = q f'/f of the unit series
    y0(x(q))^(-62/3), (1 - 3125 x(q))^(-1/6) and u(q): the q-chart
    log-derivatives of ``kernels.log_derivatives``, combined by
    ``kernels.f1_log_derivative``; G(0) != 50/12 or a non-integral chart
    series (``MirrorChart.q_nums``) raises.
    """
    x, u, y = chart.q_nums()
    return ExactSeries.from_nums(*kernels.f1_log_derivative(
        u, kernels.log_derivatives(x, u, y)), "q")
