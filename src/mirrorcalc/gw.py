"""Gromov-Witten bookkeeping for the genus-one amplitude identity:
Lambert-series assembly, the equivalent eta-product log-derivative,
extraction of the degree-d exponents N1(d), and the standard
genus-zero pipeline producing N0(d).  Each genus-one stage is one
two-pair Dirichlet convolution, h = f * g + f2 * g2, on int columns
over one denominator: the table's columns, scaled once per table,
against the form's column, memoised per order, and U = -sum q^m, or,
to extract N1, G and N0 against the inverses sigma_1^-1 and mu id.  The
kernels live in ``kernels``, and the functions here check and wrap them;
the CLI runs the kernels itself and loads no part of this module.

The genus-zero formulas (Yukawa coupling, multicover rule) are standard
literature imports, isolated in genus0_pipeline and anchored by the
independent count of lines on a quintic (see schubert.count_lines).
The Yukawa coupling comes from L(K) = q K'/K, a combination of the same
q-chart log-derivatives (``kernels.log_derivatives``) that G combines.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from functools import cache, cached_property
from typing import Mapping

from . import kernels
from .inputs import scaled
from .kernels import SeriesError, _dirichlet
from .series import ExactSeries, _exact


def _check_degrees(*columns: Mapping) -> None:
    """SeriesError naming the first key that is no int d >= 1 (or a bool)."""
    for column in columns:
        for d in column:
            if type(d) is not int or d < 1:
                raise SeriesError(f"degree {reprlib.repr(d)} must be an int "
                                  ">= 1")


class GWTable:
    """Degree-indexed genus-0 and genus-1 invariants, degrees 1..max_degree.

    n0 holds genus-zero Gromov-Witten numbers N0(d); instanton_n0, from
    genus0_pipeline, the genus-zero Gopakumar-Vafa numbers n_d.  n1 holds
    what extract_n1 solved for: genus-one Gopakumar-Vafa numbers when it
    was given the n_d.  from_maps and extract_n1 check each key
    (_check_degrees) and value (series._exact) and fill every degree; the
    constructor trusts its arguments (genus0_pipeline's are kernel output).
    The genus-one forms scale the columns to ints once per table
    (_columns), so a table is not to be altered once a form has read it.
    """

    def __init__(self, max_degree: int, n0: Mapping[int, Fraction],
                 n1: Mapping[int, Fraction], instanton_n0=None):
        self.max_degree, self.n0, self.n1 = max_degree, n0, n1
        self.instanton_n0 = instanton_n0

    def __eq__(self, other):
        return type(other) is GWTable and all(
            getattr(self, a) == getattr(other, a)
            for a in ("max_degree", "n0", "n1", "instanton_n0"))

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """A = 12 d N1(d) and B = d N0(d), d = 1..max_degree, as ints over
        their lcd, and lcd: scaled once, read by both genus-one forms."""
        n = self.max_degree
        nums, lcd = scaled([*(self.n0[d] for d in range(1, n + 1)),
                            *(self.n1[d] for d in range(1, n + 1))])
        return ((0, *(12 * d * v for d, v in enumerate(nums[n:], 1))),
                (0, *(d * v for d, v in enumerate(nums[:n], 1))), lcd)

    @classmethod
    def from_maps(cls, n0: Mapping[int, Fraction],
                  n1: Mapping[int, Fraction]) -> "GWTable":
        _check_degrees(n0, n1)
        n = max([0, *n0.keys(), *n1.keys()])
        return cls(n, *({d: _exact(col.get(d, 0)) for d in range(1, n + 1)}
                        for col in (n0, n1)))


def _genus_one(table: GWTable, order: int, E) -> ExactSeries:
    """c2.H/12 + sum_{m>=1} ((2d N1) * E + (d N0/6) * U)(m) q^m for the form's
    int column E and U = q (1-q)'/(1-q) = -sum_{m>=1} q^m, which both forms
    share, in one sweep over the table's columns (degrees past order are
    not read; from_nums reduces away the lcd of the unread)."""
    A, B, lcd = table._columns
    out = _dirichlet(order, A, E, B, [0] + [-1] * order)
    out[0] = kernels.C2H // 2 * lcd             # 6 G(0) = c2.H/2
    return ExactSeries.from_nums(out, 6 * lcd, "q")


def _check_order(order) -> None:
    """An int >= 0, else SeriesError (a bool would hit the memo of 1)."""
    if type(order) is not int or order < 0:
        raise SeriesError(f"order {reprlib.repr(order)} must be an int >= 0")


@cache
def _eta_column(order: int) -> tuple[int, ...]:
    """E = q eta'/eta from the pentagonal ``modular.eta_series`` by the
    O(n^2) solver: integral, to q^order, once per order, as a tuple that
    no caller can alter."""
    from .modular import eta_series

    return tuple(kernels.log_derivative(eta_series(order).nums)[0])


@cache
def _lambert_column(order: int) -> tuple[int, ...]:
    """-sigma_1 = (-1) * id, to q^order, once per order, as a tuple."""
    return tuple(_dirichlet(order, [0] + [-1] * order, range(order + 1)))


def lambert_series(table: GWTable, order: int) -> ExactSeries:
    """50/12 - sum_{n,d} N1(d) 2nd q^{nd}/(1-q^{nd})
             - sum_d N0(d) 2d q^d / (12 (1-q^d)).

    Expanded coefficientwise: the q^m coefficient for m >= 1 is
    -sum_{d|m} (2d sigma_1(m/d) N1(d) + d N0(d)/6).
    """
    _check_order(order)
    return _genus_one(table, order, _lambert_column(order))


def eta_product_log_derivative(table: GWTable, order: int) -> ExactSeries:
    """q d/dq log of {q^{25/12} prod_d eta(q^d)^{N1(d)} (1-q^d)^{N0(d)/12}}^2
    with eta(q) = prod_n (1 - q^n) (no q^{1/24} prefactor).

    The fractional power q^{25/12} contributes the constant 2*(25/12).
    Each factor f(q^d) contributes d (q f'/f)(q^d), read from the
    logarithmic derivatives E of eta, ``_eta_column``, and U of 1 - q.
    E comes from the pentagonal eta series, never from sigma_1, so that
    agreement with lambert_series checks q eta'/eta = -sum sigma_1 q^m.
    """
    _check_order(order)
    return _genus_one(table, order, _eta_column(order))


def extract_n1(G: ExactSeries, n0: Mapping[int, Fraction]) -> GWTable:
    """The N1(d) that ``kernels.extract_n1`` solves for, given G and the
    genus-zero column."""
    _check_degrees(n0)
    order = G.order
    n0_full = {d: _exact(n0.get(d, 0)) for d in range(1, order + 1)}
    nums, den = scaled(list(n0_full.values()))
    n1 = kernels.extract_n1(G.nums, G.den, [0, *nums], den)
    return GWTable(max_degree=order, n0=n0_full,
                   n1={m: Fraction(p, q) for m, (p, q) in enumerate(n1, 1)})


def genus0_pipeline(chart) -> GWTable:
    """The quintic's genus-zero table at degrees 1..chart.order from a
    quintic.MirrorChart, by ``kernels.genus_zero`` on the chart's
    ``kernels.log_derivatives``: N0(d) is the q^d coefficient of the
    Yukawa coupling K over d^3; a non-integral chart series raises
    SeriesError (``MirrorChart.q_nums``)."""
    x, u, y = chart.q_nums()
    K, dK = kernels.genus_zero(u, y, kernels.log_derivatives(x, u, y))
    n0 = {d: Fraction(K[d], dK * d ** 3) for d in range(1, chart.order + 1)}
    return GWTable(chart.order, n0, dict.fromkeys(n0, Fraction(0)),
                   kernels.instanton_numbers(K, dK))
