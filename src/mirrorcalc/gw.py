"""Gromov-Witten bookkeeping for the genus-one amplitude identity:
Lambert-series assembly, the equivalent eta-product log-derivative,
triangular extraction of the degree-d exponents N1(d), and the
standard genus-zero pipeline producing N0(d).

The genus-zero formulas (Yukawa coupling, multicover rule) are standard
literature imports, isolated in genus0_pipeline and anchored by the
independent count of lines on a quintic (see schubert.count_lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional

from .series import ExactSeries, SeriesError
from .quintic import LOG_X_MULTIPLE, MirrorChart


class ExtractionError(SeriesError):
    """Raised when triangular extraction preconditions fail."""


@dataclass(frozen=True)
class GWTable:
    """Degree-indexed genus-0 and genus-1 invariants, degrees 1..max_degree.

    n0 holds genus-zero Gromov-Witten numbers N0(d); instanton_n0, when
    present, the integer genus-zero Gopakumar-Vafa (instanton) numbers
    n_d.  n1 holds what extract_n1 solved for: genus-one Gopakumar-Vafa
    numbers when it was given the n_d, as in extract_gv.
    """

    max_degree: int
    n0: Mapping[int, Fraction]
    n1: Mapping[int, Fraction]
    instanton_n0: Optional[Mapping[int, int]] = None

    def __post_init__(self):
        for d in range(1, self.max_degree + 1):
            if d not in self.n0 or d not in self.n1:
                raise ValueError(f"table missing degree {d}")

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


def _sigma1(m: int) -> int:
    return sum(d for d in range(1, m + 1) if m % d == 0)


def lambert_series(table: GWTable, order: int) -> ExactSeries:
    """50/12 - sum_{n,d} N1(d) 2nd q^{nd}/(1-q^{nd})
             - sum_d N0(d) 2d q^d / (12 (1-q^d)).

    Expanded coefficientwise: the q^m coefficient for m >= 1 is
    -2 sum_{d|m} d sigma_1(m/d) N1(d) - (1/6) sum_{d|m} d N0(d).
    """
    coeffs = [LOG_X_MULTIPLE] + [Fraction(0)] * order
    for m in range(1, order + 1):
        s = Fraction(0)
        for d in range(1, min(m, table.max_degree) + 1):
            if m % d:
                continue
            s += 2 * d * _sigma1(m // d) * table.n1[d]
            s += Fraction(d, 6) * table.n0[d]
        coeffs[m] = -s
    return ExactSeries(coeffs, tag="q", order=order)


def eta_product_log_derivative(table: GWTable, order: int) -> ExactSeries:
    """q d/dq log of {q^{25/12} prod_d eta(q^d)^{N1(d)} (1-q^d)^{N0(d)/12}}^2
    with eta(q) = prod_n (1 - q^n) (no q^{1/24} prefactor).

    The fractional power q^{25/12} contributes the constant 2*(25/12).
    Each factor f(q^d) contributes d (q f'/f)(q^d), read by stride from
    the logarithmic derivatives E of eta and U of 1 - q, built once
    from the pentagonal eta series and one division each.
    """
    from .modular import eta_series

    E = eta_series(order).log_derivative().coeffs
    U = ExactSeries([1, -1], tag="q", order=order).log_derivative().coeffs
    out = [LOG_X_MULTIPLE] + [Fraction(0)] * order
    for d in range(1, min(order, table.max_degree) + 1):
        a, b = 2 * d * table.n1[d], d * table.n0[d] / 6
        for k in range(1, order // d + 1):
            out[k * d] += a * E[k] + b * U[k]
    return ExactSeries(out, tag="q", order=order)


def extract_n1(G: ExactSeries, n0: Mapping[int, Fraction]) -> GWTable:
    """Solve the Lambert form for N1(d) degree by degree, given G and
    the genus-zero column.  Exact triangular solve; the q^m equation is
    linear in N1(m) with coefficient -2m.
    """
    if G.coeffs[0] != LOG_X_MULTIPLE:
        raise ExtractionError(
            f"constant term of G must be 50/12, got {G.coeffs[0]}")
    order = G.order
    n0_full = {d: Fraction(n0.get(d, 0)) for d in range(1, order + 1)}
    n1: Dict[int, Fraction] = {}
    for m in range(1, order + 1):
        s = G.coeffs[m] + Fraction(1, 6) * sum(
            d * n0_full[d] for d in range(1, m + 1) if m % d == 0)
        s += 2 * sum(d * _sigma1(m // d) * n1[d]
                     for d in range(1, m) if m % d == 0)
        n1[m] = -s / (2 * m)
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
    the multicover rule: n_d = N0(d) - sum_{k|d, k>1} n_{d/k}/k^3.
    A non-integral n_d raises ExtractionError.
    """
    inst: Dict[int, Fraction] = {}
    for d in range(1, max_degree + 1):
        inst[d] = Fraction(n0.get(d, 0)) - sum(
            inst[d // k] / k ** 3 for k in range(2, d + 1) if d % k == 0)
    return _integral(inst, "genus-zero instanton number")


def extract_gv(G: ExactSeries, n0: Mapping[int, Fraction]) -> GWTable:
    """Genus-one Gopakumar-Vafa numbers n1 from G and the genus-zero
    Gromov-Witten column n0, extracted against the instanton numbers
    (the exponents of the eta-product).  A non-integral number in
    either genus raises ExtractionError.
    """
    inst = instanton_numbers(n0, G.order)
    n1 = _integral(extract_n1(G, inst).n1, "genus-one instanton number")
    return GWTable.from_maps(n0, n1, max_degree=G.order, instanton_n0=inst)


def genus0_pipeline(chart: MirrorChart) -> GWTable:
    """Standard genus-zero pipeline for the quintic.

    The normalized Yukawa coupling in the flat coordinate is
    K(q) = 5 u(q)^3 / ((1 - 3125 x(q)) y0(x(q))^2), with K(0) = 5 the
    classical triple intersection.  K = 5 + sum_d n_d d^3 q^d/(1-q^d),
    so by the multicover rule N0(d) = sum_{k|d} n_{d/k}/k^3 the q^d
    coefficient of K is d^3 N0(d); instanton_numbers recovers the n_d
    and enforces their integrality.  Covers degrees 1..chart.order.
    """
    K = (chart.u_of_q ** 3) * 5 / (chart.one_minus_3125x_of_q
                                   * chart.y0_of_q ** 2)
    n = chart.order
    n0 = {d: K.coeffs[d] / d ** 3 for d in range(1, n + 1)}
    return GWTable.from_maps(n0, {}, max_degree=n,
                             instanton_n0=instanton_numbers(n0, n))


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
