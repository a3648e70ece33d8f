from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mirrorcalc import kernels
from mirrorcalc.divisor import FamilyData, Point, assemble_factor
from mirrorcalc.series import ExactSeries, NonUnitError, SeriesError
from mirrorcalc.kernels import LOG_X_MULTIPLE, period, picard_fuchs_check
from mirrorcalc.quintic import (MirrorChart, period_y0, mirror_map,
                                f1_log_derivative)

FIELDS = ("order", "y0", "q_of_x", "x_of_q", "u_of_q", "y0_of_q")


def replace(chart, **changes):
    """A new MirrorChart from chart's fields with those in changes swapped."""
    return MirrorChart(**{name: changes.get(name, getattr(chart, name))
                          for name in FIELDS})


def divisor_side():
    """G's coefficients read from the quintic mirror's divisor factor:
    its log x multiple (infinity_exponent + vector_field_power) *
    overall_root / 2 / 5, the 5 from x = (5 psi)^-5, then those of
    L(y0(x(q))), L(1 - 3125 x(q)) and L(u), each |exponent| *
    overall_root / 2: the entry at psi = 0, a double point and the
    vector field."""
    factor = assemble_factor(FamilyData.quintic_mirror())
    half = factor.overall_root / 2

    def at(point):
        return next(e for pt, e in factor.entries if pt.same_as(point))

    return [(factor.infinity_exponent + factor.vector_field_power) * half / 5,
            *(abs(e) * half for e in (at(Point.of(0)),
                                      at(Point.root_of_unity(5, 0)),
                                      factor.vector_field_power))]


def f1_reference(chart):
    """G as a sum of ExactSeries log-derivatives over Fraction, with the
    coefficients of ``divisor_side``."""
    log_x, c_y, c_w, c_u = divisor_side()
    u = chart.u_of_q
    return (u * log_x + chart.y0_of_q.log_derivative() * c_y
            + (1 - 3125 * chart.x_of_q).log_derivative() * c_w
            - u.log_derivative() * c_u)


@st.composite
def integral_charts(draw):
    """Charts with random integral series: y0, y0_of_q and u_of_q with
    constant term 1, x_of_q and q_of_x starting at the linear term."""
    n = draw(st.integers(1, 14))

    def series(head, tag):
        tail = draw(st.lists(st.integers(-2 ** 80, 2 ** 80),
                             min_size=n + 1 - len(head),
                             max_size=n + 1 - len(head)))
        return ExactSeries([*head, *tail], tag=tag)

    return MirrorChart(order=n, y0=series([1], "x"),
                       q_of_x=series([0, 1], "x"), x_of_q=series([0], "q"),
                       u_of_q=series([1], "q"), y0_of_q=series([1], "q"))


def candelas_q_of_x(order):
    """q(x) = x exp(5 sum_n a_n (H_5n - H_n) x^n / y0), the mirror map of
    Candelas, de la Ossa, Green and Parkes, over Fraction: each harmonic
    gap H_5n - H_n = sum_{j=n+1}^{5n} 1/j summed term by term."""
    y0 = period_y0(order)
    gaps = ExactSeries([5 * y0[n] * sum(
        (F(1, j) for j in range(n + 1, 5 * n + 1)), F(0))
        for n in range(order + 1)], tag="x")
    return ExactSeries([0, *(gaps / y0).exp().coeffs[:order]], tag="x")


class TestHarmonicGaps:
    @pytest.mark.parametrize("order", [0, 1, 2, 41])
    def test_matches_fraction_sum(self, order):
        """The online x-chart solve against the harmonic-gap formula."""
        q_of_x = kernels.x_chart(period(order))
        assert ExactSeries(q_of_x, tag="x") == candelas_q_of_x(order)


class TestPeriod:
    def test_order_zero(self):
        assert period_y0(0) == ExactSeries([1], tag="x")

    def test_a1(self):
        assert period_y0(1)[1] == 120  # 5!/(1!)^5

    def test_a2(self):
        assert period_y0(2)[2] == 113400  # 10!/(2!)^5 = 3628800/32

    def test_tag(self):
        assert period_y0(3).tag == "x"


class TestPicardFuchs:
    def test_order_20(self):
        assert picard_fuchs_check(period(20))

    def test_constant_is_vacuous(self):
        assert picard_fuchs_check([1])

    def test_perturbed_coefficient_fails(self):
        assert not picard_fuchs_check([1, 121])

    @pytest.mark.parametrize("order", [1, 5, 25, 60, 100])
    def test_orders_up_to_100(self, order):
        assert picard_fuchs_check(period(order))


class TestMirrorMap:
    def test_q_of_x_order_2(self):
        chart = mirror_map(2)
        assert chart.q_of_x == ExactSeries([0, 1, 770], tag="x")

    def test_x_of_q_order_2(self):
        chart = mirror_map(2)
        assert chart.x_of_q == ExactSeries([0, 1, -770], tag="q")

    def test_u_constant_term(self):
        assert mirror_map(6).u_of_q[0] == 1

    def test_compose_identity_range(self):
        for order in (1, 2, 5, 10, 20, 60):
            chart = mirror_map(order)
            comp = chart.q_of_x.compose(chart.x_of_q)
            assert comp == ExactSeries.identity(order, "q")

    def test_x_of_q_integer_coefficients(self):
        chart = mirror_map(20)
        non_integer = [n for n, c in enumerate(chart.x_of_q.coeffs)
                       if c.denominator != 1]
        assert non_integer == []

    @pytest.mark.parametrize("order", [1, 2, 8, 41, 60])
    def test_q_chart_transport(self, order):
        chart = mirror_map(order)
        x_q = chart.x_of_q
        assert chart.y0_of_q == chart.y0.compose(x_q)
        # 1 - 3125 x(q), as f1_reference and yukawa_reference form it
        assert 1 - 3125 * x_q == ExactSeries(
            [1, -3125], tag="x", order=order).compose(x_q)

    @pytest.mark.parametrize("order", [1, 2, 8, 41, 60])
    def test_u_is_log_derivative_of_x(self, order):
        """u(q) = q d(log x)/dq = 1 + L(x/q), L(f) = q f'/f taken from its
        definition on ExactSeries; x/q is known to q^(order - 1) only."""
        x, u, _ = kernels.q_chart(order)
        f = ExactSeries(x[1:], tag="q")
        qf = ExactSeries([n * c for n, c in enumerate(x[1:])], tag="q")
        assert ExactSeries(u, tag="q").truncate(order - 1) == 1 + qf / f

    def test_order_precondition(self):
        with pytest.raises(SeriesError):
            mirror_map(0)

    def test_every_series_at_chart_order(self):
        chart = mirror_map(7)
        series = (chart.y0, chart.q_of_x, chart.x_of_q, chart.u_of_q,
                  chart.y0_of_q)
        assert [s.order for s in series] == [7] * 5

    def test_chart_checked_once(self, monkeypatch):
        """mirror_map's period is checked against Picard-Fuchs by the
        kernel alone, once per call; MirrorChart is a record and checks
        nothing."""
        calls = []
        check = kernels.picard_fuchs_check
        monkeypatch.setattr(kernels, "picard_fuchs_check", lambda a:
                            calls.append(1) or check(a))
        chart = mirror_map(4)
        assert len(calls) == 1
        replace(chart)
        assert len(calls) == 1
        mirror_map(4)
        assert len(calls) == 2

    def test_period_checked_against_picard_fuchs(self, monkeypatch):
        period = kernels.period
        monkeypatch.setattr(kernels, "period", lambda order: [
            a + (n == 2) for n, a in enumerate(period(order))])
        with pytest.raises(SeriesError, match="Picard-Fuchs"):
            mirror_map(5)

    def test_operator_is_the_quintic_product(self):
        """OPERATOR lists P = 5 (5t+1)(5t+2)(5t+3)(5t+4) from theta^4 down."""
        for t in range(-3, 4):
            assert sum(c * t ** i for i, c in enumerate(
                reversed(kernels.OPERATOR))) == 5 * (5 * t + 1) * (
                    5 * t + 2) * (5 * t + 3) * (5 * t + 4)

    @pytest.mark.parametrize("entry", range(5))
    @pytest.mark.parametrize("step", [1, -1])
    def test_solve_enforces_integrality(self, monkeypatch, entry, step):
        """One unit off in any entry of the operator, the q-chart solve
        meets an inexact division, and the factorial period fails the
        Picard-Fuchs check against the same constant."""
        operator = list(kernels.OPERATOR)
        operator[entry] += step
        monkeypatch.setattr(kernels, "OPERATOR", tuple(operator))
        with pytest.raises(SeriesError, match="^the chart solve divides by 2 "
                           "with a remainder$"):
            kernels.q_chart(12)
        with pytest.raises(SeriesError, match="^the period y0 fails its "
                           "Picard-Fuchs equation$"):
            kernels.mirror_map(12)

    def test_perturbed_period_meets_a_remainder(self):
        """The x-chart solve enforces integrality on its own input: a
        period off by one at a_3 leaves a remainder."""
        y0 = period(12)
        y0[3] += 1
        with pytest.raises(SeriesError, match="^the chart solve divides by 3 "
                           "with a remainder$"):
            kernels.x_chart(y0)

    def test_chart_needs_no_log_derivative(self, monkeypatch):
        """u(q) and q(x) come out of the solves: no log-derivative, series
        division, exp or reduction is taken."""
        chart = kernels.mirror_map(10)
        for name in ("log_derivative", "divide", "exp", "reduced"):
            monkeypatch.setattr(kernels, name, lambda *args, name=name:
                                pytest.fail(f"{name} ran"))
        assert kernels.mirror_map(10) == chart


class TestF1:
    def test_constant_term(self):
        G = f1_log_derivative(mirror_map(4))
        assert G[0] == F(50, 12)

    def test_constant_term_checked(self):
        # u(0) = 2 would make G(0) = 2 * 50/12 = 25/3
        chart = mirror_map(4)
        bad = replace(chart, u_of_q=chart.u_of_q + 1)
        with pytest.raises(SeriesError, match="50/12"):
            f1_log_derivative(bad)

    def test_coefficients_match_the_divisor_factor(self):
        # one formula from both sides: the kernels' G and the paper's
        # divisor factor for the quintic mirror
        assert divisor_side() == [F(25, 6), F(62, 3), F(1, 6), 1]
        assert F(*LOG_X_MULTIPLE) == divisor_side()[0]

    def test_degenerate_limit_is_constant(self):
        # all instanton corrections off: u = 1, y0 = 1, x(q) = q with
        # the 1-3125x factor suppressed leaves only the log-x multiple
        u = ExactSeries.constant(1, 6, "q")
        G = u * F(*LOG_X_MULTIPLE) - u.log_derivative()
        assert G == ExactSeries.constant(F(50, 12), 6, "q")

    def test_q_coefficient_consistent_with_extraction(self):
        # self-consistency against the gw module round trip at degree 1
        from mirrorcalc.gw import genus0_pipeline, extract_n1, lambert_series
        chart = mirror_map(4)
        G = f1_log_derivative(chart)
        table = extract_n1(G, genus0_pipeline(chart).instanton_n0)
        rebuilt = lambert_series(table, G.order)
        assert rebuilt[1] == G[1]

    @pytest.mark.parametrize("order", [1, 2, 5, 17, 41])
    def test_matches_exact_series_reference(self, order):
        chart = mirror_map(order)
        assert f1_log_derivative(chart) == f1_reference(chart)

    @settings(max_examples=40, deadline=None)
    @given(integral_charts())
    def test_random_integral_chart_matches_reference(self, chart):
        assert f1_log_derivative(chart) == f1_reference(chart)

    @pytest.mark.parametrize("name", ["x_of_q", "u_of_q", "y0_of_q"])
    def test_non_integral_chart_rejected(self, name):
        """The kernels read numerators only: q^2/2 added to a chart series
        must raise, not give a wrong G (x_of_q's would read -1000 at q)."""
        chart = mirror_map(4)
        bad = replace(chart, **{name: getattr(chart, name)
                                + ExactSeries([0, 0, F(1, 2)], "q", 4)})
        with pytest.raises(SeriesError, match=f"^{name} must be integral, "
                           "not over the denominator 2$"):
            f1_log_derivative(bad)

    def test_y0_of_q_must_be_unit(self):
        chart = mirror_map(4)
        with pytest.raises(NonUnitError):
            f1_log_derivative(replace(chart, y0_of_q=chart.y0_of_q - 1))

    def test_all_coefficients_rational(self):
        G = f1_log_derivative(mirror_map(8))
        assert all(isinstance(c, F) for c in G.coeffs)
