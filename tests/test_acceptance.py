"""Acceptance gate: one test per headline criterion, each printing a
single PASS/FAIL line with its wall-clock time.  Run with `pytest -s`
to see the lines as they complete; without -s they appear in pytest's
captured output.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from mirrorcalc import (divisor, gw, kernels, lattice, modular, quintic,
                        schubert)
from mirrorcalc.deltacoeff import delta
from mirrorcalc.series import ExactSeries


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] {label} ({elapsed:.3f}s)")
    assert elapsed < budget_seconds, (
        f"{label}: {elapsed:.3f}s exceeds budget {budget_seconds}s")


def random_table(rng: random.Random, max_degree: int) -> gw.GWTable:
    def rand_frac():
        return F(rng.randint(-400, 400), rng.randint(1, 12))
    n0 = {d: rand_frac() for d in range(1, max_degree + 1)}
    n1 = {d: rand_frac() for d in range(1, max_degree + 1)}
    return gw.GWTable.from_maps(n0, n1)


def test_ac1_delta_table():
    with criterion("delta table: delta(3,p) values and first moment 19/4",
                   budget_seconds=0.5):
        row = [delta(3, p) for p in range(4)]
        assert row == [F(1, 120), F(27, 120), F(93, 120), F(119, 120)]
        assert sum(F(p) * delta(3, p) for p in range(4)) == F(19, 4)


def test_ac2_mirror_map():
    with criterion("mirror map: inverse to order 2, composition identity "
                   "to order 50, coefficient recursion to order 100",
                   budget_seconds=5):
        chart = quintic.mirror_map(50)
        assert chart.x_of_q.truncate(2) == ExactSeries(
            [0, 1, -770], order=2, tag="q")
        composed = chart.x_of_q.compose(chart.q_of_x)
        assert composed == ExactSeries.identity(order=50, tag="x")
        assert kernels.picard_fuchs_check(kernels.period(100))


def test_ac3_f1_constant():
    with criterion("genus-one log-derivative: constant term 50/12",
                   budget_seconds=1):
        chart = quintic.mirror_map(6)
        G = quintic.f1_log_derivative(chart)
        assert G.coeffs[0] == F(50, 12)


def test_ac4_lambert_eta_equivalence():
    with criterion("Lambert sum equals eta-product log-derivative on 50 "
                   "random tables to order 20", budget_seconds=10):
        rng = random.Random(20260826)
        for _ in range(50):
            table = random_table(rng, max_degree=20)
            assert (gw.lambert_series(table, 20)
                    == gw.eta_product_log_derivative(table, 20))


def test_ac5_extraction_roundtrip():
    with criterion("extraction round-trip on 50 random tables",
                   budget_seconds=10):
        rng = random.Random(4105)
        for _ in range(50):
            table = random_table(rng, max_degree=15)
            G = gw.lambert_series(table, 15)
            recovered = gw.extract_n1(G, dict(table.n0))
            assert recovered.n1 == table.n1


def test_ac6_genus0_anchor():
    with criterion("genus-0 anchor: instanton n_1 = 2875 = independent "
                   "Bott count", budget_seconds=30):
        oracle = schubert.count_lines()
        assert oracle == 2875
        chart = quintic.mirror_map(6)
        table = gw.genus0_pipeline(chart)
        assert table.instanton_n0[1] == oracle


def test_ac7_end_to_end_quintic():
    with criterion("end-to-end quintic: extracted table reproduces G "
                   "to order 10", budget_seconds=60):
        chart = quintic.mirror_map(10)
        G = quintic.f1_log_derivative(chart)
        inst = gw.genus0_pipeline(chart).instanton_n0
        table = gw.extract_n1(G, inst)
        assert gw.eta_product_log_derivative(table, 10) == G


def test_ac12_genus0_order_100():
    with criterion("genus-0 instanton numbers n_1..n_7 from the order-100 "
                   "pipeline, integral to degree 100", budget_seconds=10):
        table = gw.genus0_pipeline(quintic.mirror_map(100))
        # Candelas, de la Ossa, Green, Parkes (1991)
        assert [table.instanton_n0[d] for d in range(1, 8)] == [
            2875, 609250, 317206375, 242467530000, 229305888887625,
            248249742118022000, 295091050570845659250]
        assert sorted(table.instanton_n0) == list(range(1, 101))


def test_ac13_genus1_bcov():
    with criterion("genus-one instanton numbers n1(1..5) from extract-gw "
                   "at order 20 (BCOV), integral to degree 20",
                   budget_seconds=5):
        chart = quintic.mirror_map(20)
        G = quintic.f1_log_derivative(chart)
        inst = gw.genus0_pipeline(chart).instanton_n0
        gv = kernels.extract_gv(kernels.extract_n1(
            G.nums, G.den, [0, *inst.values()], 1))   # integral, or raises
        n1 = [gv[d] for d in range(1, 21)]
        # Bershadsky, Cecotti, Ooguri, Vafa (1993); proved by Zinger
        assert n1[:5] == [0, 0, 609250, 3721431625, 12129909700200]
        # Regression values of this pipeline, not published anchors
        assert n1[5:10] == [
            31147299732677250, 71578406022880761750,
            154990541752957846986500, 324064464310279585656399500,
            662863774391414084612496876100]


def random_unimodular(rng: random.Random, n: int):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            U[i][k] += c * U[j][k]
    return U


def test_ac8_lattice():
    with criterion("lattice: pairing special cases, unimodular covolume "
                   "invariance, FHSV covolume and constant 2^50 pi^42",
                   budget_seconds=5):
        # rank-2 example with c(e0,e0,e0)=6, c(e0,e0,e1)=1, kappa=e0
        L = lattice.CubicLattice.from_entries(
            2, {(0, 0, 0): F(6), (0, 0, 1): F(1)}, kappa=[F(1), F(0)])
        k = L.kappa
        assert lattice.l2_pairing(L, k, k) == F(1, 2) * L.c(k, k, k)
        prim = (F(1), F(-6))  # c(prim, k, k) = 6 - 6 = 0
        assert L.c(prim, k, k) == 0
        assert lattice.l2_pairing(L, prim, prim) == -L.c(prim, prim, k)

        rng = random.Random(44)
        base = lattice.covolume(L).covolume
        for _ in range(50):
            U = random_unimodular(rng, 2)
            moved = lattice.covolume(L.basis_change(U)).covolume
            assert moved.mantissa == base.mantissa
            assert moved.pi_exponent == base.pi_exponent

        A = lattice.enriques_invariant_gram()
        h = [1, 1] + [0] * 8
        res = lattice.fhsv_covolume(A, h)
        assert res.covolume.mantissa == F(4, 2 ** 35)  # <H,H> = 4
        assert res.covolume.pi_exponent == -33
        const = lattice.fhsv_constant_check(A, h)
        assert const.mantissa == F(2 ** 50)
        assert const.pi_exponent == 42


def test_ac14_covolume_through_a_vanishing_minor():
    # t_iii = 1, kappa all ones: the Gram (3J - 2r I)/(2r) has a zero
    # leading minor at k = 2r/3, which the symmetric kernel hands on
    lattices = {r: lattice.CubicLattice.from_entries(
        r, {(i, i, i): 1 for i in range(r)}, [1] * r) for r in (120, 126)}
    with criterion("lattice: covolumes of the diagonal cubic at ranks 120 "
                   "and 126, each through a vanishing leading minor",
                   budget_seconds=2):
        for r, L in lattices.items():
            assert lattice.covolume(L).covolume == lattice.PiScaled(
                F((-1) ** (r - 1), 2 * 8 ** r), -3 * r)


def test_ac9_rank1_determinant():
    with criterion("rank-1 update determinant flip on 100 random instances",
                   budget_seconds=5):
        rng = random.Random(134)
        done = 0
        while done < 100:
            n = rng.randint(1, 5)
            A = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    A[i][j] = A[j][i] = F(rng.randint(-5, 5),
                                          rng.randint(1, 3))
            h = [F(rng.randint(-4, 4)) for _ in range(n)]
            try:
                assert lattice.rank1_update_det_check(A, h)
            except lattice.LatticeError:
                continue  # singular draw; redraw
            done += 1


def test_ac10_modular():
    with criterion("modular: Delta = q * eta^24 to order 50 and "
                   "S-invariance of the Petersson norm to 1e-10",
                   budget_seconds=5):
        eta = modular.eta_series(50)
        assert modular.delta_series(50) == (
            ExactSeries.identity(order=50, tag="q") * eta ** 24)
        for tau in (0.3 + 1.1j, -0.25 + 0.8j, 0.5 + 2.0j):
            here = modular.petersson_delta(tau).norm_sq
            there = modular.petersson_delta(-1 / tau).norm_sq
            assert abs(here - there) <= 1e-10 * abs(here)


def test_ac11_divisor():
    with criterion("divisor: quintic factor matches normal form; Green "
                   "potential at psi=2 equals log(31^2 / 2^248)",
                   budget_seconds=1):
        data = divisor.FamilyData.quintic_mirror()
        built = divisor.assemble_factor(data)
        assert divisor.divisor_equal(built, divisor.quintic_normal_form())
        got, bound = divisor.green_potential(data, 2.0)
        want = 2 * math.log(31) - 248 * math.log(2)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert 0 < bound <= 1e-12 * abs(want)
