import json
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from mirrorcalc import kernels, modular
from mirrorcalc.gw import (GWTable, lambert_series, eta_product_log_derivative,
                           extract_n1, genus0_pipeline, _eta_column,
                           _lambert_column)
from mirrorcalc.inputs import n0_map_from_json_dict, scaled
from mirrorcalc.kernels import ExtractionError, _dirichlet, _inverses
from mirrorcalc.quintic import mirror_map, f1_log_derivative
from mirrorcalc.schubert import count_lines
from mirrorcalc.series import ExactSeries, SeriesError


def column(n0, max_degree):
    """The kernel column of N0(d), d = 1..max_degree: c[d] = d^3 N0(d) den
    over den, as ``kernels.instanton_numbers`` reads it."""
    nums, den = scaled([F(n0.get(d, 0)) for d in range(1, max_degree + 1)])
    return [0, *(d ** 3 * v for d, v in enumerate(nums, 1))], den


def random_table(rng, max_degree=6):
    n0 = {d: F(rng.randint(-30, 30), rng.randint(1, 6))
          for d in range(1, max_degree + 1)}
    n1 = {d: F(rng.randint(-30, 30), rng.randint(1, 6))
          for d in range(1, max_degree + 1)}
    return GWTable.from_maps(n0, n1)


class TestLambert:
    def test_empty_table(self):
        got = lambert_series(GWTable.from_maps({}, {}), 5)
        assert got == ExactSeries.constant(F(50, 12), 5, "q")

    def test_hand_expansion_degree_one(self):
        table = GWTable.from_maps({1: F(12)}, {1: F(1)})
        got = lambert_series(table, 1)
        assert got[0] == F(25, 6)
        assert got[1] == -4  # 2*N1(1) + 2*12/12 = 4 with a minus sign

    def test_triangularity(self):
        rng = random.Random(7)
        t = random_table(rng, max_degree=8)
        low = GWTable.from_maps({d: t.n0[d] * (d < 4) for d in range(1, 9)},
                                {d: t.n1[d] * (d < 4) for d in range(1, 9)})
        full = lambert_series(t, 3)
        trunc = lambert_series(low, 3)
        assert full == trunc  # coefficients of q^d see only degrees <= d

    def test_table_that_fed_a_form_equals_a_fresh_one(self):
        """The scaled columns a form caches on the table leave == alone."""
        t = random_table(random.Random(11), max_degree=9)
        lambert_series(t, 5)
        lambert_series(t, 9)
        fresh = GWTable.from_maps(dict(t.n0), dict(t.n1))
        assert t == fresh and fresh == t
        assert t != GWTable.from_maps(dict(t.n0), {**t.n1, 9: t.n1[9] + 1})


class TestEtaProduct:
    def test_empty_table(self):
        got = eta_product_log_derivative(GWTable.from_maps({}, {}), 4)
        assert got == ExactSeries.constant(F(50, 12), 4, "q")

    def test_hand_expansion(self):
        table = GWTable.from_maps({1: F(12)}, {1: F(1)})
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
        inst = kernels.instanton_numbers(*column({1: F(12)}, 1))
        gv = [0, *inst.values()]
        assert kernels.extract_gv(kernels.extract_n1(G.nums, G.den, gv, 1)
                                  )[1] == 1
        G = G + ExactSeries([0, 1], tag="q")
        with pytest.raises(ExtractionError):
            kernels.extract_gv(kernels.extract_n1(G.nums, G.den, gv, 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random(self, seed):
        rng = random.Random(100 + seed)
        t = random_table(rng)
        recovered = extract_n1(lambert_series(t, t.max_degree), t.n0)
        assert recovered.n1 == t.n1


def yukawa_reference(chart):
    """K = 5 u^3 / ((1 - 3125 x) y0^2) by ExactSeries * and / over Fraction."""
    return (chart.u_of_q ** 3) * 5 / ((1 - 3125 * chart.x_of_q)
                                      * chart.y0_of_q ** 2)


class TestGenus0:
    @pytest.mark.parametrize("order", [1, 2, 5, 17, 41])
    def test_matches_exact_series_reference(self, order):
        chart = mirror_map(order)
        K = yukawa_reference(chart)
        n0 = {d: K[d] / d ** 3 for d in range(1, order + 1)}
        t = genus0_pipeline(chart)
        assert t.n0 == n0
        assert t.max_degree == order
        assert t.n1 == dict.fromkeys(range(1, order + 1), 0)
        assert t.instanton_n0 == kernels.instanton_numbers(list(K.nums), K.den)
        assert t.instanton_n0 == reference_instanton(n0, order)[0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), *(
        st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n, max_size=n)
        for _ in "uy"))))
    def test_perturbed_chart_matches_reference(self, case):
        # u(q) and y0(x(q)) move above degree 0 by integer multiples of
        # M = lcm(1..n)^3: K moves by multiples of M, so each d^3 still
        # divides (K * mu)(d) and the multicover inversion accepts it
        n, du, dy = case
        chart, M = mirror_map(n), lcm(*range(1, n + 1)) ** 3
        for name, terms in (("u_of_q", du), ("y0_of_q", dy)):
            setattr(chart, name, getattr(chart, name) + ExactSeries(
                [0, *(M * v for v in terms)], tag="q"))
        K = yukawa_reference(chart)
        t = genus0_pipeline(chart)
        assert t.n0 == {d: K[d] / d ** 3 for d in range(1, n + 1)}
        assert t.instanton_n0 == kernels.instanton_numbers(list(K.nums), K.den)

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
        with pytest.raises(ExtractionError):    # N0(2) = 0: n_2 = -2875/8
            kernels.instanton_numbers(*column({1: F(2875)}, 2))

    def test_yukawa_constant_term_checked(self):
        # u(0) = 2 would make K(0) = 5 * 2^3 = 40
        chart = mirror_map(3)
        chart.u_of_q = chart.u_of_q + 1
        with pytest.raises(SeriesError, match="constant term 5"):
            genus0_pipeline(chart)

    @pytest.mark.parametrize("name", ["x_of_q", "u_of_q", "y0_of_q"])
    def test_non_integral_chart_rejected(self, name):
        # the kernels read numerators only; q^2/2 in a series must not pass
        chart = mirror_map(4)
        setattr(chart, name, getattr(chart, name)
                + ExactSeries([0, 0, F(1, 2)], tag="q", order=4))
        with pytest.raises(SeriesError, match=f"^{name} must be integral, "
                           "not over the denominator 2$"):
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


def test_json_schema_roundtrip(capsys):
    # the extract-gw payload is the schema the --n0-file parser reads
    from mirrorcalc.cli import run
    assert run(["extract-gw", "--order", "1"]) == 0
    d = json.loads(capsys.readouterr().out)
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

    table = GWTable.from_maps(column(), column())
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
        assert kernels.instanton_numbers(*column(n0, len(inst))) == want
        assert reference_instanton(n0, len(inst)) == (
            {d: F(v) for d, v in want.items()}, None)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(1, 24), rationals),
           st.integers(0, 24))
    @example({1: F(2875)}, 2)
    def test_instanton_matches_reference(self, n0, max_degree):
        inst, bad = reference_instanton(n0, max_degree)
        if bad is None:
            assert kernels.instanton_numbers(*column(n0, max_degree)) == inst
        else:
            with pytest.raises(ExtractionError,
                               match=f"at degree {bad} is not an integer: "
                                     f"{inst[bad]}$"):
                kernels.instanton_numbers(*column(n0, max_degree))

    @pytest.mark.parametrize("n", [0, 1, 2, 12, 60, 300])
    def test_sigma_sieve(self, n):
        sigma = [-v for v in _lambert_column(n)]
        assert list(sigma[1:]) == [sigma1(m) for m in range(1, n + 1)]
        delta = [int(m == 1) for m in range(n + 1)]
        assert _dirichlet(n, sigma, _inverses(n)[2]) == delta

    def test_sigma_inverse_at_prime_powers(self):
        inverse = _inverses(250)[2]
        for p in (2, 3, 5, 7, 11, 13):
            assert inverse[p] == -1 - p
            assert inverse[p * p] == p
            k = 3
            while p ** k <= 250:
                assert inverse[p ** k] == 0
                k += 1

    def test_moebius_sieve(self):
        mu, mu_id, _ = _inverses(30)
        assert mu[1:31] == (1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1,
                            1, 0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1,
                            -1)
        assert mu_id == tuple(m * v for m, v in enumerate(mu))


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
    _eta_column.cache_clear()           # the column is built once per order
    try:
        wrong = eta_product_log_derivative(t, 10)
    finally:
        _eta_column.cache_clear()
    assert wrong != right
    assert wrong != lambert_series(t, 10)


def naive_dirichlet(f, g, n):
    """The double sum over d k = m, m = 1..n, with f read as 0 past its end."""
    return [0] + [sum(f[d] * g[m // d] for d in range(1, min(m, len(f) - 1) + 1)
                      if m % d == 0) for m in range(1, n + 1)]


def long_enough(n):
    """An int list or a range that reaches n, as g and g2 must."""
    return st.one_of(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n + 1,
                              max_size=n + 6),
                     st.integers(n + 1, n + 6).map(range))


def up_to(n):
    """An int list of length 1..n + 1, as f and f2 may stop early."""
    return st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                    max_size=n + 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 80).flatmap(lambda n: st.tuples(
    st.just(n), up_to(n), long_enough(n),
    st.one_of(st.none(), st.tuples(up_to(n), long_enough(n))))))
@example((0, [0], [0], None))
@example((0, [0], [0], ([0], [0])))
@example((1, [0, 3], [0, 5], None))
@example((1, [0, 3], [0, 5], ([0, -2], [0, 7])))
@example((3, [0, 1, 2, 3], [0, 4, 5, 6], ([0, 7], [0, 1, 0, -1])))
@example((49, [0, 2], list(range(50)), None))
@example((49, [0] + [3] * 49, list(range(50)), ([0, 5, 0, 2], range(50))))
@example((36, [0, 2], list(range(40)), ([0] + [5] * 36, range(37))))
@example((64, [0] + [1] * 64, list(range(70)), ([0, 1] * 10, range(65))))
@example((80, [0] + [1] * 80, range(81), None))
@example((81, [0, 4] * 41, [1] * 82, ([0] + [-1] * 81, range(82))))
def test_dirichlet_matches_double_sum(case):
    """The hyperbola split against the naive double sum, n = 0..80
    (perfect squares and n <= 3 among them), for one pair (None) or two:
    f and f2 shorter than n and either shorter than the other, g and g2
    longer than n or a range, as ``_lambert_column`` passes it."""
    n, f, g, pair = case
    want = naive_dirichlet(f, g, n)
    if pair is None:
        assert kernels._dirichlet(n, f, g) == want
    else:
        f2, g2 = pair
        want = [a + b for a, b in zip(want, naive_dirichlet(f2, g2, n))]
        assert kernels._dirichlet(n, f, g, f2, g2) == want


def fresh_eta_columns(order):
    """E and U built again, without the memo."""
    E = modular.eta_series(order).log_derivative()
    U = ExactSeries([1, -1], tag="q", order=order).log_derivative()
    return E.nums, U.nums


def order_columns(order):
    """sigma_1, E and U as the genus-one forms read them: -sigma_1 and E
    from their memos, U as ``gw._genus_one`` passes it."""
    sigma = tuple(-v for v in _lambert_column(order))
    return sigma, (_eta_column(order), (0, *[-1] * order))


class TestOrderColumns:
    @pytest.mark.parametrize("order", [0, 1, 24, 300])
    def test_columns_are_tuples_equal_to_a_fresh_build(self, order):
        sigma, (E, U) = order_columns(order)
        assert (type(_lambert_column(order)), type(E)) == (tuple, tuple)
        assert sigma == tuple([0] + [sigma1(m) for m in range(1, order + 1)])
        assert (E, U[:order + 1]) == fresh_eta_columns(order)
        # mu, mu id, sigma_1^-1 invert 1, id, sigma_1: f * inverse = unit
        unit = [int(m == 1) for m in range(order + 1)]
        for inverse, f in zip(_inverses(order), ([0] + [1] * order,
                                                 range(order + 1), sigma)):
            assert type(inverse) is tuple and len(inverse) == order + 1
            assert _dirichlet(order, inverse, f) == unit
            assert _dirichlet(order, f, inverse) == unit

    def test_orders_interleave(self):
        for order in (24, 10, 24):
            sigma, (E, U) = order_columns(order)
            assert sigma[1:] == tuple(sigma1(m) for m in range(1, order + 1))
            assert (E, U[:order + 1]) == fresh_eta_columns(order)

    def test_second_call_rebuilds_nothing(self, monkeypatch):
        t = random_table(random.Random(5), max_degree=12)
        first = eta_product_log_derivative(t, 12)
        calls = []

        def spy(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(modular, "eta_series",
                            spy("eta_series", modular.eta_series))
        monkeypatch.setattr(kernels, "log_derivative",
                            spy("log_derivative", kernels.log_derivative))
        assert eta_product_log_derivative(t, 12) == first
        assert calls == []


@pytest.mark.parametrize("form", [lambert_series, eta_product_log_derivative])
@pytest.mark.parametrize("order", [-1, True, 2.5, "3"],
                         ids=["negative", "bool", "float", "string"])
def test_genus_one_order_must_be_a_natural_int(form, order):
    t = random_table(random.Random(1))
    with pytest.raises(SeriesError, match=f"order {order!r} must be an int"):
        form(t, order)
