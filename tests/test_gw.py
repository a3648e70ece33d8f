import random
from fractions import Fraction as F

import pytest

from mirrorcalc.gw import (GWTable, lambert_series, eta_product_log_derivative,
                           extract_n1, extract_gv, genus0_pipeline,
                           instanton_numbers, ExtractionError,
                           n0_map_from_json_dict, table_to_json_dict)
from mirrorcalc.quintic import mirror_map, f1_log_derivative
from mirrorcalc.schubert import count_lines
from mirrorcalc.series import ExactSeries


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
        assert extract_gv(G, {1: F(12)}).n1[1] == 1
        with pytest.raises(ExtractionError):
            extract_gv(G + ExactSeries([0, 1], tag="q"), {1: F(12)})

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random(self, seed):
        rng = random.Random(100 + seed)
        t = random_table(rng)
        recovered = extract_n1(lambert_series(t, t.max_degree), t.n0)
        assert recovered.n1 == t.n1


class TestGenus0:
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
