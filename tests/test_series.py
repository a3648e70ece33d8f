from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorcalc.series import (ExactSeries, TagMismatchError, NonUnitError,
                               CompositionError, _convolve, _unit_divide)


def S(coeffs, tag="q", order=None):
    return ExactSeries(coeffs, tag=tag, order=order)


def theta(f):
    """The Euler operator t d/dt, c_n -> n c_n: the reference for
    log_derivative's numerator."""
    return ExactSeries([n * c for n, c in enumerate(f.coeffs)], tag=f.tag,
                       order=f.order)


class TestAdd:
    def test_cancellation(self):
        assert S([1, 1]) + S([1, -1]) == S([2, 0])

    def test_identity(self):
        a = S([F(1, 2), 3, F(-7, 5)])
        assert a + ExactSeries.zero(2) == a

    def test_exact_rational(self):
        assert S([F(1, 2), 1]) + S([F(1, 3), 0]) == S([F(5, 6), 1])

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            S([1], tag="q") + S([1], tag="x")

    def test_min_order(self):
        assert (S([1, 2, 3]) + S([1, 1])).order == 1


class TestMul:
    def test_difference_of_squares(self):
        assert S([1, 1], order=2) * S([1, -1], order=2) == S([1, 0, -1])

    def test_identity(self):
        a = S([F(2, 3), -1, 5])
        assert a * ExactSeries.one(2) == a

    def test_binomial_cube(self):
        # direct binomial expansion oracle
        a = S([1, 1], order=3)
        assert a * a * a == S([1, 3, 3, 1])

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            S([1], tag="q") * S([1], tag="psi-inv")


class TestDiv:
    def test_geometric(self):
        one = ExactSeries.one(5)
        assert one / S([1, -1], order=5) == S([1] * 6)

    def test_self_division(self):
        a = S([2, F(1, 3), -4, 7])
        assert a / a == ExactSeries.one(3)

    def test_long_division(self):
        # (1+q)/(1+2q) to order 2, long-division oracle
        assert S([1, 1], order=2) / S([1, 2], order=2) == S([1, -1, 2])

    def test_non_unit(self):
        with pytest.raises(NonUnitError):
            S([1, 1]) / S([0, 1])


class TestExpLog:
    def test_exp_zero(self):
        assert ExactSeries.zero(4).exp() == ExactSeries.one(4)

    def test_mercator(self):
        got = S([1, -1], order=4).log()
        assert got == S([0, -1, F(-1, 2), F(-1, 3), F(-1, 4)])

    def test_exp_hand_expansion(self):
        got = S([0, 1, 1], order=2).exp()
        assert got == S([1, 1, F(3, 2)])

    def test_preconditions(self):
        with pytest.raises(NonUnitError):
            S([1, 1]).exp()
        with pytest.raises(NonUnitError):
            S([2, 1]).log()
        with pytest.raises(NonUnitError):
            S([0, 1]).log_derivative()


class TestReverseCompose:
    def test_reverse_identity(self):
        ident = ExactSeries.identity(4)
        assert ident.reverse() == ident

    def test_reverse_hand_lagrange(self):
        # Lagrange inversion of q + q^2 by hand to order 3
        got = S([0, 1, 1], order=3).reverse()
        assert got == S([0, 1, -1, 2])

    def test_reverse_mirror_like(self):
        got = S([0, 1, 770], order=3).reverse()
        assert got == S([0, 1, -770, 2 * 770 ** 2])

    def test_reverse_preconditions(self):
        with pytest.raises(CompositionError):
            S([1, 1]).reverse()
        with pytest.raises(CompositionError):
            S([0, 0, 1]).reverse()

    def test_compose_identity(self):
        a = S([3, -1, F(2, 7)])
        assert a.compose(ExactSeries.identity(2)) == a

    def test_compose_substitution(self):
        geom = ExactSeries.one(4) / S([1, -1], order=4)
        got = geom.compose(S([0, 0, 1], order=4))
        assert got == S([1, 0, 1, 0, 1])

    def test_compose_precondition(self):
        with pytest.raises(CompositionError):
            S([1, 1]).compose(S([1, 1]))


class TestEuler:
    def test_constant(self):
        assert (ExactSeries.constant(7, 3).log_derivative()
                == ExactSeries.zero(3))

    def test_monomial(self):
        # 3 t^3 / (1 + t^3) to order 3
        assert S([1, 0, 0, 1]).log_derivative() == S([0, 0, 0, 3])

    def test_log_derivative_vs_div(self):
        # q d/dq log(1-q) == -q/(1-q)
        f = S([1, -1], order=8)
        rhs = S([0, -1], order=8) / f
        assert theta(f.log()) == rhs
        assert f.log_derivative() == rhs


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def series_strategy(min_order=0, max_order=6):
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.lists(rationals, min_size=n + 1, max_size=n + 1).map(
            lambda cs: S(cs, order=n)))


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    n = min(a.order, b.order, c.order)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_div_mul_roundtrip(a, b):
    if not b.coeffs[0]:
        b = b + 1
    assert (a / b) * b == a.truncate(min(a.order, b.order))


@settings(max_examples=40, deadline=None)
@given(series_strategy(min_order=1))
def test_exp_log_roundtrip(a):
    a = a - a.coeffs[0]  # force zero constant term
    assert a.exp().log() == a
    assert (a + 1).log().exp() == a + 1
    # q f'/f ignores a constant factor: 3 exp(a) gives q a'
    assert (a.exp() * 3).log_derivative() == theta(a)


@settings(max_examples=40, deadline=None)
@given(series_strategy(min_order=1, max_order=12),
       rationals.filter(lambda c: c != 0))
def test_compose_reverse_roundtrip(a, linear):
    coeffs = [F(0), linear, *a.coeffs[2:]]
    a = S(coeffs, order=a.order)
    ident = ExactSeries.identity(a.order)
    assert a.compose(a.reverse()) == ident
    assert a.reverse().compose(a) == ident


@settings(max_examples=40, deadline=None)
@given(series_strategy(min_order=1, max_order=12),
       rationals.filter(lambda c: c != 0),
       st.lists(series_strategy(max_order=14), min_size=1, max_size=3))
# a1 = 3/2 rescales to h = s + (8/9) s^2 + (8/9) s^3, so L = 9
@example(S([0, 0, 2, 3]), F(3, 2), [S([F(1, 3), F(-5, 7), F(2, 9), 4, 1])])
def test_reverse_transports_match_compose(a, linear, outer):
    a = S([F(0), linear, *a.coeffs[2:]], order=a.order)
    inverse, *transports = a.reverse(*outer)
    assert inverse == a.reverse()
    assert transports == [f.compose(inverse) for f in outer]


# Integer series for the int kernels: order 0 up to long series, with
# coefficients far beyond machine words.
big_ints = st.integers(-2 ** 300, 2 ** 300)
int_series = st.lists(big_ints, min_size=1, max_size=60)


@settings(max_examples=60, deadline=None)
@given(int_series, int_series)
@example([7], [-3])
@example([2 ** 300] * 60, [-(2 ** 300)] * 60)
def test_convolve_matches_mul(a, b):
    n = min(len(a), len(b)) - 1
    got = _convolve(a, b, n)
    assert got == [sum(a[j] * b[k - j] for j in range(k + 1))
                   for k in range(n + 1)]
    assert got == list((S(a) * S(b)).coeffs)


@settings(max_examples=60, deadline=None)
@given(int_series, int_series)
@example([5], [1])
@example([2 ** 300] * 60, [1] + [-(2 ** 300)] * 59)
def test_unit_divide_matches_div(a, b):
    b = ([1, *b[1:]] + [0] * len(a))[:len(a)]
    assert _unit_divide(a, b) == list((S(a) / S(b)).coeffs)


@pytest.mark.parametrize("b", [[0, 1], [-1, 2], [2], [2 ** 70, 1]])
def test_unit_divide_rejects_other_constant_terms(b):
    with pytest.raises(NonUnitError):
        _unit_divide([1, 1], b)


def test_no_floats_anywhere():
    a = S([0, 1, F(2, 3)], order=2)
    for op in (a + a, a * a, (a + 1).log_derivative(), a.exp(),
               (a + 1).log()):
        assert all(isinstance(c, F) for c in op.coeffs)


def test_serialization_roundtrip():
    a = S([F(1, 3), -2, F(7, 5)], tag="x")
    assert ExactSeries.from_json_dict(a.to_json_dict()) == a
