import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def reference_log_norm_sq(tau, digits):
    """log((Im tau)^12 |Delta(tau)|^2) as an mpf, by mpmath at digits:
    the float parts (exact as mpf), reduced to the fundamental domain,
    and the product continued until q^n is below the working precision."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        x, y = mpmath.mpf(tau.real), mpmath.mpf(tau.imag)
        while True:
            x -= mpmath.nint(x)
            n = x * x + y * y
            if n >= 1:
                break
            x, y = -x / n, y / n
        q = mpmath.exp(2 * mpmath.pi * mpmath.mpc(-y, x))
        log_prod, qn = 0, q
        while abs(qn) > mpmath.mpf(10) ** -(digits + 20):
            log_prod += mpmath.log(abs(1 - qn))
            qn *= q
        return 12 * mpmath.log(y) - 4 * mpmath.pi * y + 48 * log_prod


def assert_within_error_bound(tau, digits=800):
    """log_norm_sq within error_bound of the reference, and norm_sq, where
    it is a normal float, within error_bound relative; both differences
    taken in mpmath, so that no float rounding of the test enters.  The
    default 800 digits reduce Im tau = 1e-300 exactly; 60 serve from 0.01
    up, where the reduction takes few inversions."""
    mpmath = pytest.importorskip("mpmath")
    got = petersson_delta(tau)
    ref = reference_log_norm_sq(tau, digits)
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(got.log_norm_sq) - ref) <= got.error_bound
        if got.norm_sq >= sys.float_info.min:
            exact = mpmath.exp(ref)
            assert (abs(mpmath.mpf(got.norm_sq) - exact)
                    <= got.error_bound * exact)
    return got, ref


# 0.27 + 202.9i and 0.5 + 3000i: rounding errors of 2.3e-13 and 9.8e-13
# relative, which a truncation-only bound (0.0 there) missed
ORACLE_POINTS = [1j, 0.5 + 2j, 0.3 + 0.02j, 0.5 + 0.01j, 1 / 3 + 1e-12j,
                 0.61803398875 + 1e-300j, 0.0001j, 1e30j, 0.27 + 202.9j,
                 0.5 + 3000j]
HALF_STRIP = st.floats(-0.5, 0.5)


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
        """log_norm_sq to 1e-13 relative, and within its error_bound."""
        got, ref = assert_within_error_bound(tau)
        assert abs(got.log_norm_sq - float(ref)) <= 1e-13 * abs(float(ref))

    @settings(max_examples=60, deadline=None)
    @given(HALF_STRIP, st.floats(0.01, 2))
    def test_error_bound_holds_on_the_strip(self, x, y):
        """|Re tau| <= 1/2, 0.01 <= Im tau <= 2: points below the unit
        circle reduce by inversions, and norm_sq is a normal float."""
        assert_within_error_bound(complex(x, y), 60)

    @settings(max_examples=60, deadline=None)
    @given(HALF_STRIP, st.floats(2, 1e12))
    def test_error_bound_holds_toward_the_cusp(self, x, y):
        """Im tau up to 1e12, where rounding 4 pi Im tau dominates."""
        assert_within_error_bound(complex(x, y), 60)

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
