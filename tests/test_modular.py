import math
import sys
from fractions import Fraction

import pytest

from mirrorcalc.modular import (eta_series, delta_series, petersson_delta,
                                fhsv_assemble)
from mirrorcalc.series import ExactSeries, SeriesError


def eta_product(order):
    """prod_{k=1}^{order} (1 - q^k), multiplied out factor by factor."""
    out = ExactSeries.constant(1, order, "q")
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


def reference_log_norm_sq(tau):
    """log((Im tau)^12 |Delta(tau)|^2), and its exp, by mpmath at 800
    digits: the float parts (exact as mpf), reduced to the fundamental
    domain, and the product continued until q^n is below the working
    precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(800):
        x, y = mpmath.mpf(tau.real), mpmath.mpf(tau.imag)
        while True:
            x -= mpmath.nint(x)
            n = x * x + y * y
            if n >= 1:
                break
            x, y = -x / n, y / n
        q = mpmath.exp(2 * mpmath.pi * mpmath.mpc(-y, x))
        log_prod, qn = 0, q
        while abs(qn) > mpmath.mpf(10) ** -820:
            log_prod += mpmath.log(abs(1 - qn))
            qn *= q
        log_norm_sq = 12 * mpmath.log(y) - 4 * mpmath.pi * y + 48 * log_prod
        return float(log_norm_sq), float(mpmath.exp(log_norm_sq))


ORACLE_POINTS = [1j, 0.5 + 2j, 0.3 + 0.02j, 0.5 + 0.01j, 1 / 3 + 1e-12j,
                 0.61803398875 + 1e-300j, 0.0001j, 1e30j]


class TestPetersson:
    def test_translation_invariance_exact(self):
        a = petersson_delta(0.3 + 1.1j)
        b = petersson_delta(1.3 + 1.1j)
        assert math.isclose(a.norm_sq, b.norm_sq, rel_tol=1e-14)

    @pytest.mark.parametrize("tau", [2j, 1 + 1j, 0.5 + 2j])
    def test_inversion_invariance(self, tau):
        a = petersson_delta(tau)
        b = petersson_delta(-1 / tau)
        assert abs(a.norm_sq - b.norm_sq) <= 1e-10 * a.norm_sq

    @pytest.mark.parametrize("tau", ORACLE_POINTS)
    def test_against_mpmath(self, tau):
        """log_norm_sq to 1e-13 relative, and norm_sq, where it is a
        normal float, within its own error_bound plus 1e-13."""
        ref, norm_ref = reference_log_norm_sq(tau)
        got = petersson_delta(tau)
        assert abs(got.log_norm_sq - ref) <= 1e-13 * abs(ref)
        if got.norm_sq >= sys.float_info.min:
            assert (abs(got.norm_sq - norm_ref)
                    <= (got.error_bound + 1e-13) * norm_ref)

    def test_closed_form_at_i(self):
        # Delta(i) = Gamma(1/4)^24 / (2^24 pi^18)
        want = (48 * math.lgamma(0.25) - 48 * math.log(2)
                - 36 * math.log(math.pi))
        assert math.isclose(petersson_delta(1j).log_norm_sq, want,
                            rel_tol=1e-14)

    @pytest.mark.parametrize("tau, n", [
        (0.25 + 0.8j, 1), (0.375 + 0.02j, 1), (0.5j, 10 ** 16),
        (0.01j, 10 ** 16), (1j, 1e300), (0.0001j, 1e300)])
    def test_integer_translation_bit_identical(self, tau, n):
        moved = tau + n
        assert Fraction(moved.real) == Fraction(tau.real) + Fraction(n)
        a, b = petersson_delta(tau), petersson_delta(moved)
        assert ((a.norm_sq, a.log_norm_sq, a.error_bound)
                == (b.norm_sq, b.log_norm_sq, b.error_bound))

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
