import cmath
import math
import random
from fractions import Fraction as F

import pytest

from mirrorcalc.divisor import (Point, FamilyData, WeightedDivisor,
                                assemble_factor, divisor_equal,
                                quintic_normal_form, green_potential,
                                residue_balance_check, FamilyError,
                                family_from_json_dict)


class TestPoint:
    def test_root_of_unity_reduction(self):
        assert Point.root_of_unity(10, 4) == Point.root_of_unity(5, 2)

    def test_symbolic_vs_float_match(self):
        z = Point.root_of_unity(5, 1)
        w = Point.of(cmath.exp(2j * math.pi / 5))
        assert z.same_as(w)

    def test_fifth_roots_polynomial_identity(self):
        # prod over fifth roots of (psi - zeta) = psi^5 - 1
        for psi in (2.0, 1.5 - 0.7j, -3.1j):
            prod = 1
            for k in range(5):
                prod *= psi - Point.root_of_unity(5, k).to_complex()
            assert abs(prod - (psi ** 5 - 1)) < 1e-9 * max(1, abs(prod))

    def test_json_roundtrip(self):
        for pt in (Point.infinity(), Point.root_of_unity(5, 2),
                   Point.of(1.5 - 2j)):
            assert Point.from_json(pt.to_json()).same_as(pt)

    def test_distance_beyond_float_range_is_not_same(self):
        a, b = Point.of(6.5e307 + 6.5e307j), Point.of(-6.5e307 - 6.5e307j)
        assert not a.same_as(b)

    def test_tiny_distinct_points_stay_apart(self):
        assert not Point.of(1e-14).same_as(Point.of(5e-14))
        assert not Point.of(1e-14j).same_as(Point.of(0))
        assert Point.of(1e-14).same_as(Point.of(1e-14 * (1 + 1e-15)))

    def test_huge_point_is_not_split_by_rounding(self):
        assert Point.of(1e14).same_as(Point.of(1e14 * (1 + 1e-15)))
        assert not Point.of(1e14).same_as(Point.of(1.001e14))

    @pytest.mark.parametrize("obj, message", [
        ({"root_of_unity": [5.0, 1]}, "root order"),
        ({"root_of_unity": [5, True]}, "root index"),
        ({"value": "nan+1i"}, "not finite"),
        ({"value": "-1e400i"}, "not finite"),
        ({"value": "1.7e308-1.7e308i"}, "not finite"),
        ({"root_of_unity": [5]}, "point needs"),
        ({"root_of_unity": [5, 1, 2]}, "point needs"),
        ({"value": "1 + 2j + i"}, "is not a complex"),
        ({"value": True}, "value True is not a complex"),
        ({"value": [1, 2]}, "is not a complex"),
        ({"value": None}, "value None is not a complex"),
        ({"value": 2}, "value 2 is not a complex"),
    ])
    def test_from_json_rejects(self, obj, message):
        with pytest.raises(FamilyError, match=message):
            Point.from_json(obj)

    @pytest.mark.parametrize("text, z", [("1 + 2i", 1 + 2j), ("-3j", -3j),
                                         (" 0.5 ", 0.5)])
    def test_from_json_reads_a_value_as_eval_at_does(self, text, z):
        from mirrorcalc.inputs import parse_complex
        assert Point.from_json({"value": text}).value == z == parse_complex(
            text)


class TestAssemble:
    def test_quintic_mirror_exponents(self):
        wd = assemble_factor(FamilyData.quintic_mirror())
        exps = {}
        for pt, e in wd.entries:
            key = (pt.kind, pt.n, pt.k) if pt.kind == "zeta" else pt.kind
            exps[key] = e
        # k = 0 canonicalizes to the order-1 root (the point psi^5 = 1 at psi = 1).
        assert exps[("zeta", 1, 0)] == 2
        for k in range(1, 5):
            assert exps[("zeta", 5, k)] == 2
        assert exps["value"] == -248  # at psi = 0
        assert wd.infinity_exponent == 248 - 5 * 2
        assert wd.xi_power == 248
        assert wd.vector_field_power == 12
        assert wd.overall_root == F(1, 6)

    def test_empty_data(self):
        wd = assemble_factor(FamilyData(chi=-200))
        assert wd.entries == ()
        assert wd.infinity_exponent == 0
        assert wd.xi_power == 48 - 200

    def test_single_ramification_point(self):
        data = FamilyData(chi=0, ramification=((Point.of(3.0), 2),))
        wd = assemble_factor(data)
        assert wd.entries[0][1] == -12

    def test_overlapping_lists_rejected(self):
        with pytest.raises(FamilyError):
            assemble_factor(FamilyData(
                chi=0,
                xi_divisor=((Point.of(1.0), 1),),
                odp_points=((Point.root_of_unity(1, 0), 1),)))


class TestEquality:
    def test_quintic_vs_normal_form(self):
        wd = assemble_factor(FamilyData.quintic_mirror())
        assert divisor_equal(wd, quintic_normal_form())
        # exponent checks behind it: 248/6 = 62*2/3, 2/6 = (1/2)*2/3,
        # 12/6 = 3*2/3
        assert F(248, 6) == F(62) * F(2, 3)
        assert F(2, 6) == F(1, 2) * F(2, 3)
        assert F(12, 6) == F(3) * F(2, 3)

    def test_reflexive(self):
        wd = quintic_normal_form()
        assert divisor_equal(wd, wd)

    def test_perturbed_exponent(self):
        wd = quintic_normal_form()
        entries = list(wd.entries)
        entries[0] = (entries[0][0], entries[0][1] + 1)
        other = WeightedDivisor(entries=tuple(entries),
                                xi_power=wd.xi_power,
                                vector_field_power=wd.vector_field_power,
                                overall_root=wd.overall_root)
        assert not divisor_equal(wd, other)
        # the degree balance, not a stored default, fixes infinity
        assert wd.infinity_exponent == F(119, 2)
        assert other.infinity_exponent == F(117, 2)


class TestGreenPotential:
    def test_quintic_at_two(self):
        got = green_potential(FamilyData.quintic_mirror(), 2.0)
        want = 2 * math.log(31) - 248 * math.log(2)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_empty_data_vanishes(self):
        assert green_potential(FamilyData(chi=0), 1.7 + 0.3j) == 0.0

    def test_conjugation_symmetry(self):
        data = FamilyData.quintic_mirror()
        psi = 1.3 + 0.8j
        a = green_potential(data, psi)
        b = green_potential(data, psi.conjugate())
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_pole_reported(self):
        with pytest.raises(FamilyError):
            green_potential(FamilyData.quintic_mirror(), 1.0)

    def test_psi_zero_hits_the_point_at_zero(self):
        with pytest.raises(FamilyError, match="hits a divisor point"):
            green_potential(FamilyData.quintic_mirror(), 0)

    @pytest.mark.parametrize("psi", [1e-13, 1e-14j, 1e14, 1e14 + 1e14j])
    def test_near_zero_and_far_points_evaluate(self, psi):
        # -248 log|psi| + 2 log|psi^5 - 1|, the quintic's product form
        want = -248 * math.log(abs(psi)) + 2 * math.log(abs(psi ** 5 - 1))
        got = green_potential(FamilyData.quintic_mirror(), psi)
        assert math.isclose(got, want, rel_tol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_product_form_oracle(self, seed):
        # independent route: assemble the complex product first, then
        # take one log of its modulus
        rng = random.Random(seed)
        pts = []
        while len(pts) < 4:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(z - w) > 0.3 for w, _ in pts):
                pts.append((z, rng.randint(1, 3)))
        data = FamilyData(chi=2 * rng.randint(-40, 40),
                          xi_divisor=((Point.of(pts[0][0]), pts[0][1]),),
                          ramification=((Point.of(pts[1][0]), 1 + pts[1][1]),),
                          odp_points=tuple((Point.of(z), r)
                                           for z, r in pts[2:]))
        psi = complex(rng.uniform(2.5, 3.5), rng.uniform(2.5, 3.5))
        wd = assemble_factor(data)
        log_prod = 0.0
        for pt, e in wd.entries:
            log_prod += float(e) * math.log(abs(psi - pt.to_complex()))
        direct = green_potential(data, psi)
        assert math.isclose(direct, log_prod, rel_tol=1e-12, abs_tol=1e-12)


class TestResidueBalance:
    def test_forced_boundary(self):
        # all-zero data and deg(Xi) = -24/(48+chi) makes the relation 0
        data = FamilyData(chi=1, xi_divisor=(),)
        got = residue_balance_check(data, (0, F(-24, 49) * F(1, 1), 0))
        # with b(inf) coefficient (48+chi)=49: 49*b + 24 = 0
        assert got == 49 * F(-24, 49) + 24 == 0

    def test_quintic_solved_triple(self):
        data = FamilyData.quintic_mirror()
        # linear solve oracle: value at (0,0,0) fixed by the divisor
        # degrees, then c(inf) chosen to annihilate it
        base = residue_balance_check(data, (0, 0, 0))
        assert base == -2 * 5 + 24 + 248
        triple = (F(0), F(0), base / 12)
        assert residue_balance_check(data, triple) == 0

    def test_linearity_in_b(self):
        data = FamilyData.quintic_mirror()
        v0 = residue_balance_check(data, (1, 0, 2))
        v1 = residue_balance_check(data, (1, 1, 2))
        assert v1 - v0 == 48 + data.chi

    @pytest.mark.parametrize("boundary, named", [
        ((0.1, 0, 0), "0.1"), ((True, "1/2", 0), "True"),
        (("x", 0, 0), "'x'"), ((0, None, 0), "None"), ((0, 0, "1/0"), "'1/0'"),
    ], ids=["float", "bool", "word", "none", "zero-denominator"])
    def test_inexact_boundary_entry_rejected(self, boundary, named):
        with pytest.raises(FamilyError, match=f"^boundary entry {named} is "
                           "not an exact rational"):
            residue_balance_check(FamilyData.quintic_mirror(), boundary)

    def test_rational_string_boundary_entry(self):
        data = FamilyData.quintic_mirror()
        assert (residue_balance_check(data, ("1/2", 0, 0))
                == residue_balance_check(data, (F(1, 2), 0, 0)) == 268)


def test_family_json_ingestion():
    doc = {
        "chi": 200,
        "xi_divisor": [{"point": {"value": "0"}, "multiplicity": 1}],
        "ramification": [],
        "odp_points": [{"point": {"root_of_unity": [5, k]}, "r": 1}
                       for k in range(5)],
    }
    data = family_from_json_dict(doc)
    assert divisor_equal(assemble_factor(data), quintic_normal_form())
