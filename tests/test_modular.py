import math

import pytest

from mirrorcalc.modular import (eta_series, delta_series, petersson_delta,
                                fhsv_assemble)
from mirrorcalc.series import ExactSeries, SeriesError


def eta_product(order):
    """prod_{k=1}^{order} (1 - q^k), multiplied out factor by factor."""
    out = ExactSeries.one(order, "q")
    for k in range(1, order + 1):
        out = out * ExactSeries([1] + [0] * (k - 1) + [-1], order=order)
    return out


class TestEta:
    def test_order_zero(self):
        assert eta_series(0) == ExactSeries([1], tag="q")

    def test_order_seven(self):
        assert eta_series(7) == ExactSeries([1, -1, -1, 0, 0, 1, 0, 1],
                                            tag="q")

    def test_pentagonal_pattern(self):
        oracle = eta_product(60)
        for order in range(61):
            assert eta_series(order) == oracle.truncate(order)


class TestDelta:
    def test_leading_term(self):
        d = delta_series(3)
        assert d[0] == 0 and d[1] == 1

    def test_q2_coefficient(self):
        assert delta_series(2)[2] == -24

    def test_q3_coefficient(self):
        assert delta_series(3)[3] == 252

    def test_equals_q_times_eta_24(self):
        order = 50
        d = delta_series(order)
        eta24 = eta_series(order - 1) ** 24
        assert d.coeffs[1:] == eta24.coeffs
        assert d[0] == 0

    def test_power_recurrence_matches_eta_power(self):
        # oracle: q * eta^24 by repeated series multiplication
        for order in range(1, 61):
            eta24 = eta_series(order - 1) ** 24
            assert delta_series(order) == ExactSeries(
                [0, *eta24.coeffs], tag="q", order=order)

    def test_order_precondition(self):
        with pytest.raises(SeriesError):
            delta_series(0)


class TestPetersson:
    def test_translation_invariance_exact(self):
        a = petersson_delta(0.3 + 1.1j)
        b = petersson_delta(1.3 + 1.1j)
        assert math.isclose(a.norm_sq, b.norm_sq, rel_tol=1e-14)

    @pytest.mark.parametrize("tau", [2j, 1 + 1j, 0.5 + 2j])
    def test_inversion_invariance(self, tau):
        a = petersson_delta(tau, terms=300)
        b = petersson_delta(-1 / tau, terms=300)
        assert abs(a.norm_sq - b.norm_sq) <= 1e-10 * a.norm_sq

    def test_truncation_stability(self):
        a = petersson_delta(1j, terms=50)
        b = petersson_delta(1j, terms=100)
        assert abs(a.norm_sq - b.norm_sq) <= 1e-12 * a.norm_sq

    def test_tail_bound_honesty(self):
        for tau in (0.5j, 1j, 0.2 + 0.6j):
            prev = petersson_delta(tau, terms=20)
            for terms in (40, 80, 160):
                cur = petersson_delta(tau, terms=terms)
                observed = abs(cur.norm_sq - prev.norm_sq) / cur.norm_sq
                assert prev.error_bound >= observed
                prev = cur

    def test_domain_error(self):
        with pytest.raises(SeriesError):
            petersson_delta(1 - 1j)


class TestAssemble:
    def test_unit(self):
        assert fhsv_assemble(1.0, 1.0, 1.0) == 1.0

    def test_linearity_in_delta_norm(self):
        base = fhsv_assemble(2.0, 3.0, 5.0)
        assert fhsv_assemble(2.0, 6.0, 5.0) == 2 * base

    def test_positivity_required(self):
        with pytest.raises(SeriesError):
            fhsv_assemble(0.0, 1.0, 1.0)
        with pytest.raises(SeriesError):
            fhsv_assemble(1.0, -2.0, 1.0)

    def test_exponent_bookkeeping_constant(self):
        # symbolic route through the lattice module: the h-dependence
        # cancels and the prefactor is 2^50 pi^42
        from mirrorcalc.lattice import (enriques_invariant_gram,
                                        fhsv_constant_check, PiScaled)
        from fractions import Fraction as F
        A = enriques_invariant_gram()
        got = fhsv_constant_check(A, [1, 1] + [0] * 8)
        assert got == PiScaled(F(2 ** 50), 42)
