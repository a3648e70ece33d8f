from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorcalc.series import (ExactSeries, TagMismatchError, NonUnitError,
                               CompositionError, _convolve)


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
def test_integer_division_matches_long_division(a, b):
    """An integer series over one with constant term 1 stays integral
    (den == 1) and equals the long division
    out[m] = a[m] - sum_{k>=1} b[k] out[m-k]."""
    b = ([1, *b[1:]] + [0] * len(a))[:len(a)]
    out = []
    for m, v in enumerate(a):
        out.append(v - sum(b[k] * out[m - k] for k in range(1, m + 1)))
    got = S(a) / S(b)
    assert got.den == 1
    assert list(got.nums) == out


def test_no_floats_anywhere():
    a = S([0, 1, F(2, 3)], order=2)
    for op in (a + a, a * a, (a + 1).log_derivative(), a.exp(),
               (a + 1).log()):
        assert all(isinstance(c, F) for c in op.coeffs)


def reduced(s):
    """The stored form is nums over the least common denominator."""
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.order + 1
    return s


def oracle_mul(a, b):
    n = min(len(a), len(b))
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


def oracle_div(a, b):
    n = min(len(a), len(b))
    out = []
    for m in range(n):
        out.append((a[m] - sum(b[k] * out[m - k] for k in range(1, m + 1)))
                   / b[0])
    return out


def oracle_compose(c, x):
    """sum_k c_k x^k to the shorter length, power by power."""
    n = min(len(c), len(x))
    out, power = [F(0)] * n, [F(1)] + [F(0)] * (n - 1)
    for k in range(n):
        out = [o + c[k] * p for o, p in zip(out, power)]
        power = oracle_mul(power, x[:n])
    return out


def oracle_exp(a):
    out = [F(1)]
    for m in range(1, len(a)):
        out.append(sum(k * a[k] * out[m - k] for k in range(1, m + 1)) / m)
    return out


def oracle_log_derivative(a):
    return oracle_div([n * c for n, c in enumerate(a)], a)


@settings(max_examples=60, deadline=None)
@given(series_strategy(min_order=1, max_order=8),
       series_strategy(min_order=1, max_order=8),
       rationals.filter(lambda c: c != 0))
@example(S([F(1, 2), F(1, 2)]), S([F(1, 2), F(-1, 2)]), F(2))
def test_every_result_is_reduced_and_matches_fractions(a, b, k):
    """Each operation leaves den > 0 and gcd(den, *nums) = 1, and its
    coeffs equal the same computation on Fraction lists."""
    A, B = list(a.coeffs), list(b.coeffs)
    n = min(len(A), len(B))
    unit = b if B[0] else b + 1
    U = list(unit.coeffs)
    z = a - a.coeffs[0]              # zero constant term
    Z = [F(0), *A[1:]]
    inner = S([0, k, *B[2:]], order=b.order)
    I = [F(0), k, *B[2:]]
    cases = [
        (a + b, [x + y for x, y in zip(A, B)]),
        (a - b, [x - y for x, y in zip(A, B)]),
        (-a, [-x for x in A]),
        (a * k, [x * k for x in A]),
        (a / k, [x / k for x in A]),
        (a * 0, [F(0)] * len(A)),
        (a * b, oracle_mul(A, B)),
        (a / unit, oracle_div(A, U)),
        (z.exp(), oracle_exp(Z)),
        ((unit / unit[0]).log(),
         [F(0), *(d / m for m, d in enumerate(
             oracle_log_derivative([u / U[0] for u in U])) if m)]),
        (unit.log_derivative(), oracle_log_derivative(U)),
        (a.compose(inner), oracle_compose(A, I)),
        (a.truncate(0), A[:1]),
        (a.truncate(n - 1), A[:n]),
        (ExactSeries.from_json_dict(a.to_json_dict()), A),
    ]
    inverse, *transports = inner.reverse(a, b)
    ident = [F(0), F(1)] + [F(0)] * (len(I) - 2)
    assert oracle_compose(I, list(inverse.coeffs)) == ident
    cases += [(inverse, list(inverse.coeffs)),
              *((t, oracle_compose(list(f.coeffs), list(inverse.coeffs)))
                for t, f in zip(transports, (a, b)))]
    for got, want in cases:
        assert list(reduced(got).coeffs) == want


@pytest.mark.parametrize("left, right", [
    (S([F(1, 2), F(1, 2)]) + S([F(1, 2), F(-1, 2)]), S([1, 0])),
    (S([F(2, 3), 4]) * 3, S([2, 12])),
    (S([6, 4, 2]) / 2, S([3, 2, 1])),
    (S([F(1, 6), F(5, 6), F(1, 3)]).truncate(1), S([F(1, 6), F(5, 6)])),
    (S([F(1, 2), F(1, 2), F(1, 3)]).truncate(1), S([1, 1]) / 2),
    (S([1, 2], order=3) / S([1, 2], order=3), ExactSeries.one(3)),
    (ExactSeries.from_nums([-4, 2], -6, "q"), S([F(2, 3), F(-1, 3)])),
])
def test_equal_values_have_one_form(left, right):
    assert left == right
    assert hash(left) == hash(right)
    assert (left.nums, left.den) == (right.nums, right.den)


def test_serialization_roundtrip():
    a = S([F(1, 3), -2, F(7, 5)], tag="x")
    assert ExactSeries.from_json_dict(a.to_json_dict()) == a
