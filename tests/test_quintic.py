from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mirrorcalc.series import ExactSeries, NonUnitError, SeriesError
from mirrorcalc.quintic import (MirrorChart, period_y0, mirror_map,
                                f1_log_derivative, picard_fuchs_check,
                                _harmonic_gaps)

FIELDS = ("order", "y0", "q_of_x", "x_of_q", "u_of_q", "y0_of_q")


def replace(chart, **changes):
    """A new MirrorChart from chart's fields with those in changes swapped."""
    return MirrorChart(**{name: changes.get(name, getattr(chart, name))
                          for name in FIELDS})


def f1_reference(chart):
    """G as a sum of ExactSeries log-derivatives over Fraction."""
    u = chart.u_of_q
    return (u * F(50, 12) + chart.y0_of_q.log_derivative() * F(62, 3)
            + chart.one_minus_3125x_of_q.log_derivative() / 6
            - u.log_derivative())


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


class TestHarmonicGaps:
    @pytest.mark.parametrize("order", [0, 1, 2, 41])
    def test_matches_fraction_sum(self, order):
        gaps, D = _harmonic_gaps(order)
        assert [F(h, D) for h in gaps] == [
            sum((F(1, j) for j in range(n + 1, 5 * n + 1)), F(0))
            for n in range(order + 1)]


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
        assert picard_fuchs_check(period_y0(20))

    def test_constant_is_vacuous(self):
        assert picard_fuchs_check(ExactSeries([1], tag="x"))

    def test_perturbed_coefficient_fails(self):
        bad = ExactSeries([1, 121], tag="x")
        assert not picard_fuchs_check(bad)

    @pytest.mark.parametrize("order", [1, 5, 25, 60, 100])
    def test_orders_up_to_100(self, order):
        assert picard_fuchs_check(period_y0(order))


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
        for order in (1, 2, 5, 10, 20):
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
        assert chart.one_minus_3125x_of_q == ExactSeries(
            [1, -3125], tag="x", order=order).compose(x_q)

    def test_order_precondition(self):
        with pytest.raises(SeriesError):
            mirror_map(0)

    def test_every_series_at_chart_order(self):
        chart = mirror_map(7)
        series = (chart.y0, chart.q_of_x, chart.x_of_q, chart.u_of_q,
                  chart.y0_of_q, chart.one_minus_3125x_of_q)
        assert [s.order for s in series] == [7] * 6

    @pytest.mark.parametrize("name", ["y0", "q_of_x", "x_of_q", "u_of_q",
                                      "y0_of_q"])
    def test_non_integral_coefficient_rejected(self, name):
        chart = mirror_map(3)
        s = getattr(chart, name)
        coeffs = list(s.coeffs)
        coeffs[2] += F(1, 2)
        with pytest.raises(SeriesError, match="integral"):
            replace(chart, **{name: ExactSeries(coeffs, tag=s.tag)})

    @pytest.mark.parametrize("c0", [0, -1, 2, 2 ** 70])
    def test_y0_of_q_other_constant_term_rejected(self, c0):
        chart = mirror_map(3)
        with pytest.raises(NonUnitError):
            replace(chart, y0_of_q=chart.y0_of_q + (c0 - 1))

    def test_x_of_q_constant_term_rejected(self):
        chart = mirror_map(3)
        with pytest.raises(NonUnitError):
            replace(chart, x_of_q=chart.x_of_q + 1)

    def test_period_checked_against_picard_fuchs(self, monkeypatch):
        import mirrorcalc.quintic as quintic
        period = quintic.period_y0
        monkeypatch.setattr(quintic, "period_y0",
                            lambda order: period(order) + ExactSeries(
                                [0, 0, 1], tag="x", order=order))
        with pytest.raises(SeriesError, match="Picard-Fuchs"):
            mirror_map(5)


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

    def test_degenerate_limit_is_constant(self):
        # all instanton corrections off: u = 1, y0 = 1, x(q) = q with
        # the 1-3125x factor suppressed leaves only the log-x multiple
        from mirrorcalc.quintic import LOG_X_MULTIPLE
        u = ExactSeries.one(6, "q")
        G = u * LOG_X_MULTIPLE - u.log_derivative()
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

    def test_y0_of_q_must_be_unit(self):
        chart = mirror_map(4)
        with pytest.raises(NonUnitError):
            replace(chart, y0_of_q=chart.y0_of_q * 2)

    def test_all_coefficients_rational(self):
        G = f1_log_derivative(mirror_map(8))
        assert all(isinstance(c, F) for c in G.coeffs)
