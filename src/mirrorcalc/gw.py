"""Gromov-Witten bookkeeping for the genus-one amplitude identity:
Lambert-series assembly, the equivalent eta-product log-derivative,
extraction of the degree-d exponents N1(d), and the standard
genus-zero pipeline producing N0(d).  Each kernel is a Dirichlet
convolution or its inverse on ints, a series' nums or a degree column
over one denominator, striding over the multiples of each degree.

The genus-zero formulas (Yukawa coupling, multicover rule) are standard
literature imports, isolated in genus0_pipeline and anchored by the
independent count of lines on a quintic (see schubert.count_lines).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Dict, Mapping, Optional

from .series import ExactSeries, SeriesError, _scaled
from .quintic import LOG_X_MULTIPLE, MirrorChart


class ExtractionError(SeriesError):
    """Raised when extraction preconditions fail."""


class GWTable:
    """Degree-indexed genus-0 and genus-1 invariants, degrees 1..max_degree.

    n0 holds genus-zero Gromov-Witten numbers N0(d); instanton_n0, when
    present, the integer genus-zero Gopakumar-Vafa (instanton) numbers
    n_d.  n1 holds what extract_n1 solved for: genus-one Gopakumar-Vafa
    numbers when it was given the n_d, as in extract_gv.  from_maps and
    extract_n1 fill every degree; the constructor trusts its arguments.
    """

    def __init__(self, max_degree: int, n0: Mapping[int, Fraction],
                 n1: Mapping[int, Fraction], instanton_n0=None):
        self.max_degree, self.n0, self.n1 = max_degree, n0, n1
        self.instanton_n0 = instanton_n0

    def __eq__(self, other):
        return type(other) is GWTable and vars(self) == vars(other)

    @classmethod
    def from_maps(cls, n0: Mapping[int, Fraction], n1: Mapping[int, Fraction],
                  max_degree: int | None = None,
                  instanton_n0: Optional[Mapping[int, int]] = None) -> "GWTable":
        if max_degree is None:
            max_degree = max([0, *n0.keys(), *n1.keys()])
        full_n0 = {d: Fraction(n0.get(d, 0)) for d in range(1, max_degree + 1)}
        full_n1 = {d: Fraction(n1.get(d, 0)) for d in range(1, max_degree + 1)}
        return cls(max_degree=max_degree, n0=full_n0, n1=full_n1,
                   instanton_n0=instanton_n0)


def _dirichlet(f, g, n: int) -> list[int]:
    """(f * g)(m) = sum_{dk=m} f(d) g(k), m = 1..n, for int lists
    indexed from 1 (f may stop before n), one strided slice per d."""
    h = [0] * (n + 1)
    for d in range(1, min(n, len(f) - 1) + 1):
        h[d::d] = map(add, h[d::d], [f[d] * v for v in g[1:n // d + 1]])
    return h


def _dirichlet_divide(c, f, n: int) -> list[int]:
    """x with f * x = c at 1..n, for f(1) = 1 and c of length n + 1, by
    the same sieve: x(d) is final once its proper divisors are spread."""
    x = list(c)
    for d in range(1, n // 2 + 1):
        x[2 * d::d] = map(sub, x[2 * d::d], [x[d] * v for v in f[2:n // d + 1]])
    return x


def _sigma(n: int) -> list[int]:
    """sigma_1(m), m = 1..n, as 1 * id."""
    return _dirichlet([0] + [1] * n, range(n + 1), n)


def _genus_one(table: GWTable, order: int, E, U) -> ExactSeries:
    """50/12 + sum_{m>=1} ((2d N1) * E + (d N0/6) * U)(m) q^m for int
    lists E, U, the columns scaled to ints over 6 lcm(denominators)."""
    n = min(order, table.max_degree)
    nums, lcd = _scaled([*(table.n0[d] for d in range(1, n + 1)),
                         *(table.n1[d] for d in range(1, n + 1))])
    A = [0, *(12 * d * v for d, v in enumerate(nums[n:], 1))]
    B = [0, *(d * v for d, v in enumerate(nums[:n], 1))]
    out = list(map(add, _dirichlet(A, E, order), _dirichlet(B, U, order)))
    out[0] = int(6 * LOG_X_MULTIPLE) * lcd      # 6 * 50/12 = 25
    return ExactSeries.from_nums(out, 6 * lcd, "q")


def lambert_series(table: GWTable, order: int) -> ExactSeries:
    """50/12 - sum_{n,d} N1(d) 2nd q^{nd}/(1-q^{nd})
             - sum_d N0(d) 2d q^d / (12 (1-q^d)).

    Expanded coefficientwise: the q^m coefficient for m >= 1 is
    -sum_{d|m} (2d sigma_1(m/d) N1(d) + d N0(d)/6).
    """
    return _genus_one(table, order, [-v for v in _sigma(order)],
                      [0] + [-1] * order)


def eta_product_log_derivative(table: GWTable, order: int) -> ExactSeries:
    """q d/dq log of {q^{25/12} prod_d eta(q^d)^{N1(d)} (1-q^d)^{N0(d)/12}}^2
    with eta(q) = prod_n (1 - q^n) (no q^{1/24} prefactor).

    The fractional power q^{25/12} contributes the constant 2*(25/12).
    Each factor f(q^d) contributes d (q f'/f)(q^d), read from the
    logarithmic derivatives E of eta and U of 1 - q, integral series.
    E comes from the pentagonal eta series, never from sigma_1, so that
    agreement with lambert_series checks q eta'/eta = -sum sigma_1 q^m.
    """
    from .modular import eta_series

    E = eta_series(order).log_derivative()
    U = ExactSeries.from_nums([1, -1] + [0] * order, 1, "q").log_derivative()
    return _genus_one(table, order, E.nums, U.nums)


def extract_n1(G: ExactSeries, n0: Mapping[int, Fraction]) -> GWTable:
    """Solve the Lambert form for N1(d), given G and the genus-zero
    column.  With c_m = G_m + (1/6) sum_{d|m} d N0(d) it reads
    -c/2 = (d N1) * sigma_1, solved by one Dirichlet division.
    """
    if G[0] != LOG_X_MULTIPLE:
        raise ExtractionError(
            f"constant term of G must be 50/12, got {G[0]}")
    order = G.order
    n0_full = {d: Fraction(n0.get(d, 0)) for d in range(1, order + 1)}
    # with 1/G.den among the entries, den is a multiple of G.den
    nums, den = _scaled([*n0_full.values(), Fraction(1, G.den)])
    k = den // G.den
    # 6 den c_m = 6 den G_m + ((den d N0) * 1)(m)
    c = map(add, [0, *(6 * k * v for v in G.nums[1:])], _dirichlet(
        [0, *(d * v for d, v in enumerate(nums[:order], 1))],
        [0] + [1] * order, order))
    h = _dirichlet_divide(c, _sigma(order), order)
    n1 = {m: Fraction(-h[m], 12 * den * m) for m in range(1, order + 1)}
    return GWTable(max_degree=order, n0=n0_full, n1=n1)


def _integral(values: Mapping[int, Fraction], what: str) -> Dict[int, int]:
    for d, v in values.items():
        if v.denominator != 1:
            raise ExtractionError(f"{what} at degree {d} is not an integer: {v}")
    return {d: v.numerator for d, v in values.items()}


def instanton_numbers(n0: Mapping[int, Fraction],
                      max_degree: int) -> Dict[int, int]:
    """Genus-zero Gopakumar-Vafa numbers n_d, d = 1..max_degree, from
    Gromov-Witten numbers N0(d) (absent degrees read 0), by inverting
    the multicover rule d^3 N0 = (d^3 n) * 1 by Moebius inversion, a
    Dirichlet division by 1: d^3 n_d = sum_{k|d} mu(k) (d/k)^3 N0(d/k).
    A non-integral n_d raises ExtractionError.
    """
    n = max_degree
    nums, den = _scaled([Fraction(n0.get(d, 0)) for d in range(1, n + 1)])
    h = _dirichlet_divide([0, *(d ** 3 * v for d, v in enumerate(nums, 1))],
                          [0] + [1] * n, n)
    inst = {d: Fraction(h[d], den * d ** 3) for d in range(1, n + 1)}
    return _integral(inst, "genus-zero instanton number")


def genus0_table(n0: Mapping[int, Fraction], max_degree: int) -> GWTable:
    """The genus-zero table of n0 at degrees 1..max_degree, n_d included."""
    return GWTable.from_maps(n0, {}, max_degree=max_degree,
                             instanton_n0=instanton_numbers(n0, max_degree))


def extract_gv(G: ExactSeries, genus0: GWTable) -> GWTable:
    """Genus-one Gopakumar-Vafa numbers n1 from G and the genus-zero table
    at degrees 1..G.order (genus0_pipeline, genus0_table), extracted
    against its instanton numbers, the exponents of the eta-product.
    A non-integral n1 raises ExtractionError."""
    inst = genus0.instanton_n0
    n1 = _integral(extract_n1(G, inst).n1, "genus-one instanton number")
    return GWTable.from_maps(genus0.n0, n1, max_degree=G.order,
                             instanton_n0=inst)


def genus0_pipeline(chart: MirrorChart) -> GWTable:
    """Standard genus-zero pipeline for the quintic.

    The normalized Yukawa coupling in the flat coordinate is
    K(q) = 5 u(q)^3 / ((1 - 3125 x(q)) y0(x(q))^2), with K(0) = 5 the
    classical triple intersection.  K = 5 + sum_d n_d d^3 q^d/(1-q^d),
    so by the multicover rule N0(d) = sum_{k|d} n_{d/k}/k^3 the q^d
    coefficient of K is d^3 N0(d); instanton_numbers recovers the n_d
    and enforces their integrality.  Covers degrees 1..chart.order.
    K(0) other than 5 raises SeriesError.
    """
    u, w, y = chart.u_of_q, chart.one_minus_3125x_of_q, chart.y0_of_q
    K = u * u * u * 5 / (w * y * y)
    if K[0] != 5:
        raise SeriesError(f"K must have constant term 5, not {K[0]}")
    n = chart.order
    return genus0_table({d: Fraction(K.nums[d], K.den * d ** 3)
                         for d in range(1, n + 1)}, n)


def table_to_json_dict(table: GWTable) -> dict:
    out = {
        "max_degree": table.max_degree,
        "n0": {str(d): str(table.n0[d]) for d in range(1, table.max_degree + 1)},
        "n1": {str(d): str(table.n1[d]) for d in range(1, table.max_degree + 1)},
    }
    if table.instanton_n0 is not None:
        out["instanton_n0"] = {str(d): str(v)
                               for d, v in sorted(table.instanton_n0.items())}
    return out


def n0_map_from_json_dict(d: dict) -> Dict[int, Fraction]:
    """Parse the {"n0": {"1": "2875", ...}} schema (n1 ignored if present).
    Anything but an object mapping degrees str(d), d >= 1, to ints or
    rational strings (no bools, floats or nulls) raises ExtractionError.
    """
    src = d.get("n0", d) if isinstance(d, dict) else d
    try:
        if isinstance(src, dict) and all(
                type(k) is str and k.isascii() and k.isdigit() and k[0] != "0"
                and type(v) in (int, str) for k, v in src.items()):
            return {int(k): Fraction(v) for k, v in src.items()}
    except (ValueError, ZeroDivisionError):
        pass
    raise ExtractionError('n0 must be an object mapping each degree ("1", '
                          '"2", ...) to an int or a rational string')
