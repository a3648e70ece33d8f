import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorcalc import modular
from mirrorcalc.gw import (GWTable, lambert_series, eta_product_log_derivative,
                           extract_n1, extract_gv, genus0_pipeline,
                           genus0_table, instanton_numbers, ExtractionError,
                           n0_map_from_json_dict, table_to_json_dict,
                           _dirichlet, _dirichlet_divide, _sigma)
from mirrorcalc.quintic import mirror_map, f1_log_derivative
from mirrorcalc.schubert import count_lines
from mirrorcalc.series import ExactSeries, SeriesError


def random_table(rng, max_degree=6):
    n0 = {d: F(rng.randint(-30, 30), rng.randint(1, 6))
          for d in range(1, max_degree + 1)}
    n1 = {d: F(rng.randint(-30, 30), rng.randint(1, 6))
          for d in range(1, max_degree + 1)}
    return GWTable.from_maps(n0, n1, max_degree=max_degree)


class TestLambert:
    def test_empty_table(self):
        got = lambert_series(GWTable.from_maps({}, {}), 5)
        assert got == ExactSeries.constant(F(50, 12), 5, "q")

    def test_hand_expansion_degree_one(self):
        table = GWTable.from_maps({1: F(12)}, {1: F(1)}, max_degree=1)
        got = lambert_series(table, 1)
        assert got[0] == F(25, 6)
        assert got[1] == -4  # 2*N1(1) + 2*12/12 = 4 with a minus sign

    def test_triangularity(self):
        rng = random.Random(7)
        t = random_table(rng, max_degree=8)
        low = GWTable.from_maps({d: t.n0[d] for d in range(1, 4)},
                                {d: t.n1[d] for d in range(1, 4)},
                                max_degree=8)
        full = lambert_series(t, 3)
        trunc = lambert_series(low, 3)
        assert full == trunc  # coefficients of q^d see only degrees <= d


class TestEtaProduct:
    def test_empty_table(self):
        got = eta_product_log_derivative(GWTable.from_maps({}, {}), 4)
        assert got == ExactSeries.constant(F(50, 12), 4, "q")

    def test_hand_expansion(self):
        table = GWTable.from_maps({1: F(12)}, {1: F(1)}, max_degree=1)
        got = eta_product_log_derivative(table, 1)
        assert got[0] == F(25, 6) and got[1] == -4

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lambert_on_random_tables(self, seed):
        rng = random.Random(seed)
        t = random_table(rng)
        assert (eta_product_log_derivative(t, 10) == lambert_series(t, 10))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_low_orders(self, order):
        t = random_table(random.Random(4))
        got = eta_product_log_derivative(t, order)
        assert got.order == order
        assert got == lambert_series(t, order)
        assert got == reference_eta_product(t, order)


class TestExtract:
    def test_trivial(self):
        G = ExactSeries.constant(F(50, 12), 4, "q")
        t = extract_n1(G, {})
        assert all(v == 0 for v in t.n1.values())

    def test_inverts_hand_example(self):
        G = ExactSeries([F(25, 6), -4], tag="q")
        t = extract_n1(G, {1: F(12)})
        assert t.n1[1] == 1

    def test_normalization_error(self):
        with pytest.raises(ExtractionError):
            extract_n1(ExactSeries([1, 2], tag="q"), {})

    def test_gv_integrality_enforced(self):
        G = ExactSeries([F(25, 6), -4], tag="q")
        genus0 = genus0_table({1: F(12)}, 1)
        assert extract_gv(G, genus0).n1[1] == 1
        with pytest.raises(ExtractionError):
            extract_gv(G + ExactSeries([0, 1], tag="q"), genus0)

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random(self, seed):
        rng = random.Random(100 + seed)
        t = random_table(rng)
        recovered = extract_n1(lambert_series(t, t.max_degree), t.n0)
        assert recovered.n1 == t.n1


def yukawa_reference(chart):
    """K = 5 u^3 / ((1 - 3125 x) y0^2) by ExactSeries * and / over Fraction."""
    return (chart.u_of_q ** 3) * 5 / (chart.one_minus_3125x_of_q
                                      * chart.y0_of_q ** 2)


class TestGenus0:
    @pytest.mark.parametrize("order", [1, 2, 5, 17, 41])
    def test_matches_exact_series_reference(self, order):
        chart = mirror_map(order)
        K = yukawa_reference(chart)
        n0 = {d: K[d] / d ** 3 for d in range(1, order + 1)}
        t = genus0_pipeline(chart)
        assert t.n0 == n0
        assert t.instanton_n0 == instanton_numbers(n0, order)

    def test_line_count_anchor(self):
        chart = mirror_map(4)
        assert genus0_pipeline(chart).instanton_n0[1] == count_lines() == 2875

    def test_multicover_degree_one(self):
        chart = mirror_map(4)
        assert genus0_pipeline(chart).n0[1] == 2875

    def test_multicover_rule(self):
        chart = mirror_map(5)
        t = genus0_pipeline(chart)
        inst = t.instanton_n0
        assert t.n0[4] == (inst[4] + F(inst[2], 8) + F(inst[1], 64))
        with pytest.raises(ExtractionError):
            instanton_numbers({1: F(2875)}, 2)  # N0(2) = 0: n_2 = -2875/8

    def test_yukawa_constant_term_checked(self):
        # u(0) = 2 would make K(0) = 5 * 2^3 = 40
        chart = mirror_map(3)
        chart.u_of_q = chart.u_of_q + 1
        with pytest.raises(SeriesError, match="constant term 5"):
            genus0_pipeline(chart)

    def test_yukawa_normalization(self):
        # K(0) = 5: the degree-0 instanton term must vanish identically,
        # which the extraction loop enforces from degree 1 up.
        chart = mirror_map(3)
        t = genus0_pipeline(chart)
        assert set(t.instanton_n0) == {1, 2, 3}

    def test_stability_under_order_increase(self):
        low = genus0_pipeline(mirror_map(8))
        high = genus0_pipeline(mirror_map(18))
        for d in range(1, 8):
            assert low.instanton_n0[d] == high.instanton_n0[d]
            assert low.n0[d] == high.n0[d]


class TestEndToEnd:
    def test_quintic_g_roundtrip(self):
        chart = mirror_map(11)
        G = f1_log_derivative(chart)
        table = extract_n1(G, genus0_pipeline(chart).instanton_n0)
        assert eta_product_log_derivative(table, G.order) == G
        assert lambert_series(table, G.order) == G


def test_json_schema_roundtrip():
    t = GWTable.from_maps({1: F(2875)}, {1: F(0)}, max_degree=1)
    d = table_to_json_dict(t)
    assert d["n0"]["1"] == "2875"
    assert n0_map_from_json_dict(d) == {1: F(2875)}


# -- the integer kernels against the per-term Fraction formulas ----------
#
# The reference functions below are the direct double loops over the
# divisors of each degree, on Fraction, that the integer kernels in gw
# replace.

def sigma1(m):
    return sum(d for d in range(1, m + 1) if m % d == 0)


def reference_lambert(table, order):
    coeffs = [F(50, 12)] + [F(0)] * order
    for m in range(1, order + 1):
        s = F(0)
        for d in range(1, min(m, table.max_degree) + 1):
            if m % d:
                continue
            s += 2 * d * sigma1(m // d) * table.n1[d]
            s += F(d, 6) * table.n0[d]
        coeffs[m] = -s
    return ExactSeries(coeffs, tag="q", order=order)


def reference_eta_product(table, order):
    E = modular.eta_series(order).log_derivative().coeffs
    U = ExactSeries([1, -1], tag="q", order=order).log_derivative().coeffs
    out = [F(50, 12)] + [F(0)] * order
    for d in range(1, min(order, table.max_degree) + 1):
        a, b = 2 * d * table.n1[d], d * table.n0[d] / 6
        for k in range(1, order // d + 1):
            out[k * d] += a * E[k] + b * U[k]
    return ExactSeries(out, tag="q", order=order)


def reference_extract_n1(G, n0):
    """The degree-by-degree triangular solve: the q^m equation of the
    Lambert form is linear in N1(m) with coefficient -2m."""
    n1 = {}
    for m in range(1, G.order + 1):
        s = G[m] + F(1, 6) * sum(d * F(n0.get(d, 0))
                                 for d in range(1, m + 1) if m % d == 0)
        s += 2 * sum(d * sigma1(m // d) * n1[d]
                     for d in range(1, m) if m % d == 0)
        n1[m] = -s / (2 * m)
    return n1


def reference_instanton(n0, max_degree):
    """The multicover recursion n_d = N0(d) - sum_{k|d, k>1} n_{d/k}/k^3,
    with the degree of the first non-integral n_d, or None."""
    inst = {}
    for d in range(1, max_degree + 1):
        inst[d] = F(n0.get(d, 0)) - sum(
            inst[d // k] / k ** 3 for k in range(2, d + 1) if d % k == 0)
    bad = [d for d, v in inst.items() if v.denominator != 1]
    return inst, (bad[0] if bad else None)


LARGE_PRIMES = [7919, 65537, 999979, 999983]
denominators = st.one_of(st.integers(1, 12), st.integers(1, 10 ** 6),
                         st.sampled_from(LARGE_PRIMES))
rationals = st.builds(F, st.integers(-10 ** 6, 10 ** 6), denominators)


@st.composite
def tables_and_orders(draw):
    """A random rational table and an order at, above or below its
    max_degree; either column may be all zero."""
    md = draw(st.integers(0, 14))

    def column():
        values = draw(st.one_of(st.just([F(0)] * md),
                                st.lists(rationals, min_size=md, max_size=md)))
        return dict(enumerate(values, 1))

    table = GWTable.from_maps(column(), column(), max_degree=md)
    return table, max(0, md + draw(st.integers(-4, 4)))


class TestIntegerKernels:
    @settings(max_examples=80, deadline=None)
    @given(tables_and_orders())
    def test_lambert_matches_reference(self, case):
        table, order = case
        assert lambert_series(table, order) == reference_lambert(table, order)

    @settings(max_examples=80, deadline=None)
    @given(tables_and_orders())
    def test_eta_product_matches_reference(self, case):
        table, order = case
        assert (eta_product_log_derivative(table, order)
                == reference_eta_product(table, order))

    @settings(max_examples=80, deadline=None)
    @given(tables_and_orders())
    def test_extract_recovers_n1(self, case):
        table, order = case
        got = extract_n1(lambert_series(table, order), table.n0)
        assert got.max_degree == order
        assert got.n1 == {d: table.n1.get(d, 0) for d in range(1, order + 1)}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(rationals, max_size=16),
           st.dictionaries(st.integers(1, 20), rationals))
    def test_extract_matches_reference(self, tail, n0):
        G = ExactSeries([F(50, 12), *tail], tag="q")
        assert extract_n1(G, n0).n1 == reference_extract_n1(G, n0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=30))
    def test_instanton_inverts_multicover_rule(self, inst):
        want = dict(enumerate(inst, 1))
        n0 = {d: sum(F(want[d // k], k ** 3)
                     for k in range(1, d + 1) if d % k == 0) for d in want}
        assert instanton_numbers(n0, len(inst)) == want
        assert reference_instanton(n0, len(inst)) == (
            {d: F(v) for d, v in want.items()}, None)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(1, 24), rationals),
           st.integers(0, 24))
    @example({1: F(2875)}, 2)
    def test_instanton_matches_reference(self, n0, max_degree):
        inst, bad = reference_instanton(n0, max_degree)
        if bad is None:
            assert instanton_numbers(n0, max_degree) == inst
        else:
            with pytest.raises(ExtractionError,
                               match=f"at degree {bad} is not an integer: "
                                     f"{inst[bad]}$"):
                instanton_numbers(n0, max_degree)

    @pytest.mark.parametrize("n", [0, 1, 2, 12, 60, 300])
    def test_sigma_sieve(self, n):
        sigma = _sigma(n)
        assert sigma[1:] == [sigma1(m) for m in range(1, n + 1)]
        delta = [int(m == 1) for m in range(n + 1)]
        inverse = _dirichlet_divide(delta, sigma, n)
        assert _dirichlet(sigma, inverse, n) == delta

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n),
        st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n))))
    def test_dirichlet_divide_inverts_convolution(self, case):
        f_tail, c_tail = case
        n = len(c_tail)
        f, c = [0, 1, *f_tail[1:]], [0, *c_tail]
        assert _dirichlet(f, _dirichlet_divide(c, f, n), n) == c

    def test_sigma_inverse_at_prime_powers(self):
        inverse = _dirichlet_divide([0, 1] + [0] * 249, _sigma(250), 250)
        for p in (2, 3, 5, 7, 11, 13):
            assert inverse[p] == -1 - p
            assert inverse[p * p] == p
            k = 3
            while p ** k <= 250:
                assert inverse[p ** k] == 0
                k += 1

    def test_moebius_sieve(self):
        mu = _dirichlet_divide([0, 1] + [0] * 29, [0] + [1] * 30, 30)
        assert mu[1:31] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1,
                            1, 0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1,
                            -1]


def test_eta_product_reads_the_eta_series(monkeypatch):
    """eta_product_log_derivative must take eta from modular.eta_series,
    not from sigma_1: with a wrong eta series it must stop agreeing with
    lambert_series, or that agreement would check nothing."""
    t = random_table(random.Random(3))
    right = eta_product_log_derivative(t, 10)
    assert right == lambert_series(t, 10)
    real = modular.eta_series

    def wrong_eta_series(order):
        coeffs = list(real(order).coeffs)
        coeffs[3] += 1
        return ExactSeries(coeffs, tag="q", order=order)

    monkeypatch.setattr(modular, "eta_series", wrong_eta_series)
    wrong = eta_product_log_derivative(t, 10)
    assert wrong != right
    assert wrong != lambert_series(t, 10)
