"""End-to-end tests of the command-line interface: output formats,
exit codes, the default order, and file inputs."""

import json
import math

import pytest

from mirrorcalc.cli import run
from mirrorcalc.divisor import FamilyData
from mirrorcalc.lattice import enriques_invariant_gram

# JSON nested past the parser's recursion limit
DEEP = "[" * 50000 + "]" * 50000

def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMirrorMap:
    def test_json_payload(self, capsys):
        code, out, _ = invoke(capsys, "mirror-map", "--order", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 3
        assert payload["x_of_q"]["coefficients"] == ["0", "1", "-770", "171525"]
        assert payload["q_of_x"]["variable_tag"] == "x"
        assert payload["y0"]["coefficients"][:2] == ["1", "120"]

    def test_u_of_q_at_order(self, capsys):
        code, out, _ = invoke(capsys, "mirror-map", "--order", "3")
        assert code == 0
        u = json.loads(out)["u_of_q"]
        assert u["order"] == 3
        assert len(u["coefficients"]) == 4

    @pytest.mark.parametrize("command", ["mirror-map", "f1", "extract-gw"])
    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_order_below_one_exits_1(self, capsys, command, order):
        code, out, err = invoke(capsys, command, "--order", order)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, "mirror-map", "--order", "4")
        _, second, _ = invoke(capsys, "mirror-map", "--order", "4")
        assert first == second

    def test_csv_output(self, capsys):
        code, out, _ = invoke(capsys, "--output", "csv",
                              "mirror-map", "--order", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == ["key", "value"]
        assert any(line.startswith("order,2") for line in lines)

    @pytest.mark.parametrize("command, read", [
        ("mirror-map", lambda p: p["order"]),
        ("f1", lambda p: len(p["G"]["coefficients"]) - 1),
        ("extract-gw", lambda p: p["max_degree"]),
    ], ids=["mirror-map", "f1", "extract-gw"])
    def test_default_order_is_30(self, capsys, monkeypatch, command, read):
        # only --order sets the order; the environment is not read
        monkeypatch.setenv("MIRRORCALC_ORDER", "4")
        code, out, _ = invoke(capsys, command)
        assert code == 0
        assert read(json.loads(out)) == 30


class TestF1AndGW:
    def test_f1_constant(self, capsys):
        code, out, _ = invoke(capsys, "f1", "--order", "3")
        assert code == 0
        coeffs = json.loads(out)["G"]["coefficients"]
        assert coeffs[0] == "25/6"

    def test_extract_gw_builtin_n0(self, capsys):
        code, out, _ = invoke(capsys, "extract-gw", "--order", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["n0"]["1"] == "2875"
        assert payload["n0"]["2"] == "4876875/8"
        assert payload["n0"]["3"] == "8564575000/27"
        assert [payload["n1"][d] for d in "123"] == ["0", "0", "609250"]

    def test_extract_gw_n0_file(self, capsys, tmp_path):
        path = tmp_path / "n0.json"
        path.write_text(json.dumps({"n0": {"1": "2875", "2": "4876875/8",
                                           "3": "8564575000/27"}}))
        code, out, _ = invoke(capsys, "extract-gw", "--order", "3",
                              "--n0-file", str(path))
        assert code == 0
        payload = json.loads(out)
        assert [payload["n1"][d] for d in "123"] == ["0", "0", "609250"]
        assert [payload["n0"][d] for d in "123"] == [
            "2875", "4876875/8", "8564575000/27"]

    @pytest.mark.parametrize("text", [
        "[1, 2]", "5", '{"n0": [1]}', '{"n0": "2875"}', '{"1": [1]}',
        '{"1": true}', '{"1": 2875.0}', '{"1": null}', '{"1": "two"}',
        '{"1": "1/0"}', '{"one": "2875"}', DEEP,
        '{"n0": {"01": 5, "1": 2875}}',
        '{"n0": {"1_0": 1, "1": 2875, "0": 9, "-3": 4}}',
        '{" 1": 2875}', '{"+1": 2875}', '{"\u0661": 2875}', '{"0": 9}',
        '{"-3": 4}', '{"": 1}',
    ], ids=["array", "scalar", "n0-array", "n0-string", "value-array",
            "value-bool", "value-float", "value-null", "value-word",
            "value-zero-denominator", "degree-word", "deep-nesting",
            "degree-leading-zero", "degree-underscore", "degree-space",
            "degree-plus", "degree-arabic-indic", "degree-zero",
            "degree-negative", "degree-empty"])
    def test_extract_gw_malformed_n0_file(self, capsys, tmp_path, text):
        path = tmp_path / "n0.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "extract-gw", "--order", "3",
                                "--n0-file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "n0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n0_file", [False, True])
    def test_extract_gw_inverts_the_multicover_rule_once(
            self, capsys, tmp_path, monkeypatch, n0_file):
        from mirrorcalc import gw
        calls = []
        inverse = gw.instanton_numbers
        monkeypatch.setattr(gw, "instanton_numbers", lambda n0, max_degree:
                            calls.append(max_degree) or inverse(n0, max_degree))
        path = tmp_path / "n0.json"
        path.write_text(json.dumps({"n0": {"1": "2875", "2": "4876875/8",
                                           "3": "8564575000/27"}}))
        code, _, _ = invoke(capsys, "extract-gw", "--order", "3",
                            *(["--n0-file", str(path)] if n0_file else []))
        assert code == 0
        assert calls == [3]

    def test_extract_gw_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "extract-gw", "--order", "2",
                              "--n0-file", str(tmp_path / "nope.json"))
        assert code == 1
        assert err


class TestDelta:
    def test_value(self, capsys):
        code, out, _ = invoke(capsys, "delta", "--n", "3", "--p", "2")
        assert code == 0
        assert json.loads(out)["value"] == "31/40"

    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "delta", "--table", "3")
        assert code == 0
        assert json.loads(out)["row"] == ["1/120", "9/40", "31/40", "119/120"]

    def test_missing_args(self, capsys):
        code, _, err = invoke(capsys, "delta")
        assert code == 2
        assert "delta" in err

    def test_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "delta", "--n", "3", "--p", "9")
        assert code == 1
        assert err

    @pytest.mark.parametrize("n", ["-2", "-1", "0"])
    def test_table_below_one_exits_1(self, capsys, n):
        code, out, err = invoke(capsys, "delta", "--table", n)
        assert code == 1
        assert out == ""
        assert err.startswith("error: dimension n must be positive")


class TestLatticeCommands:
    def test_covolume(self, capsys, tmp_path):
        spec = {"rank": 1, "cubic": [[0, 0, 0, "5"]], "kappa": ["1"]}
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(spec))
        code, out, _ = invoke(capsys, "covolume", "--lattice", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 1
        assert payload["gram"] == [["5/2"]]
        assert payload["covolume"]["pi_exponent"] == -3

    def test_fhsv(self, capsys, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(enriques_invariant_gram()))
        h = json.dumps([1, 1] + [0] * 8)
        code, out, _ = invoke(capsys, "fhsv", "--gram", str(gram), "--h", h)
        assert code == 0
        payload = json.loads(out)
        # h^T A h = 4: covolume 4/2^35, volume 4/2^5, constant 2^50 pi^42
        assert payload["covolume"]["mantissa"] == "1/8589934592"
        assert payload["covolume"]["pi_exponent"] == -33
        assert payload["volume"]["mantissa"] == "1/8"
        assert payload["constant_check"]["mantissa"] == str(2 ** 50)
        assert payload["constant_check"]["pi_exponent"] == 42

    def test_fhsv_computes_the_covolume_once(self, capsys, tmp_path,
                                             monkeypatch):
        # one rank-11 covolume: det A and the Gram determinant
        from mirrorcalc import lattice
        calls = []
        det = lattice._det
        monkeypatch.setattr(lattice, "_det",
                            lambda m: calls.append(len(m)) or det(m))
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(enriques_invariant_gram()))
        code, _, _ = invoke(capsys, "fhsv", "--gram", str(gram),
                            "--h", json.dumps([1, 1] + [0] * 8))
        assert code == 0
        assert calls == [10, 11]

    def test_fhsv_bad_gram(self, capsys, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([[2]]))
        code, _, err = invoke(capsys, "fhsv", "--gram", str(gram), "--h", "[1]")
        assert code == 1
        assert err

    def test_fhsv_h_length_mismatch(self, capsys, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(enriques_invariant_gram()))
        code, out, err = invoke(capsys, "fhsv", "--gram", str(gram),
                                "--h", "[1]")
        assert code == 1
        assert out == ""
        assert "h has 1 entries" in err

    @pytest.mark.parametrize("command, text, h", [
        ("fhsv", json.dumps(enriques_invariant_gram()), "5"),
        ("fhsv", json.dumps(enriques_invariant_gram()),
         json.dumps([[1]] * 10)),
        ("fhsv", json.dumps(enriques_invariant_gram()),
         json.dumps([[1] * 20000] + [1] * 9)),
        ("fhsv", "5", json.dumps([1] * 10)),
        ("fhsv", json.dumps([[1.5] * 10] * 10), json.dumps([1] * 10)),
        ("fhsv", json.dumps([[0] * 10] * 9 + [[0] * 9]), json.dumps([1] * 10)),
        ("covolume", json.dumps({"rank": 1, "kappa": ["1"]}), None),
        ("covolume", json.dumps([[0, 0, 0, "5"]]), None),
        ("covolume", json.dumps({"rank": 1, "cubic": [[0, 0, 3, "5"]],
                                 "kappa": ["1"]}), None),
        ("covolume", json.dumps({"rank": 2, "cubic": [[-1, 0, 0, "5"]],
                                 "kappa": ["1", "0"]}), None),
        ("covolume", json.dumps({"rank": 1.9, "cubic": [[0, 0, 0, "5"]],
                                 "kappa": ["1"]}), None),
        ("covolume", json.dumps({"rank": [1] * 20000,
                                 "cubic": [[0, 0, 0, "5"]],
                                 "kappa": ["1"]}), None),
        ("covolume", json.dumps({"rank": 1, "cubic": [[0.7, 0, 0, "5"]],
                                 "kappa": ["1"]}), None),
        ("covolume", json.dumps({"rank": 1, "cubic": [[0, 0, 0, 0.1]],
                                 "kappa": ["1"]}), None),
        ("covolume", json.dumps({"rank": 1, "cubic": [[0, 0, 0, True]],
                                 "kappa": ["1"]}), None),
        ("covolume", json.dumps({"rank": 2, "cubic": [
            [0, 0, 0, "6"], [0, 0, 1, "1"], [0, 0, 1, "1"]],
            "kappa": ["1", "0"]}), None),
        ("covolume", json.dumps({"rank": 2, "cubic": [
            [0, 0, 0, "6"], [0, 0, 1, "1"], [1, 0, 0, "2"]],
            "kappa": ["1", "0"]}), None),
        ("covolume", json.dumps({"rank": 2, "cubic": [
            [0, 0, 0, "6"], [0, 0, 1, "1"]], "kappa": "10"}), None),
        ("fhsv", DEEP, json.dumps([1] * 10)),
        ("fhsv", json.dumps(enriques_invariant_gram()),
         "[" * 30000 + "]" * 30000),
        ("covolume", DEEP, None),
        ("bcov-factor", DEEP, None),
    ], ids=["h-scalar", "h-nested", "h-long-entry", "gram-scalar",
            "gram-float", "gram-ragged", "lattice-no-cubic", "lattice-array",
            "lattice-index-too-large", "lattice-index-negative",
            "lattice-rank-float", "lattice-rank-long-list",
            "lattice-index-float",
            "lattice-value-float", "lattice-value-bool",
            "lattice-repeated-triple", "lattice-permuted-triple",
            "lattice-kappa-string", "gram-deep", "h-deep", "lattice-deep",
            "family-deep"])
    def test_malformed_input_exits_1(self, capsys, tmp_path, command, text,
                                     h):
        path = tmp_path / "input.json"
        path.write_text(text)
        if command == "fhsv":
            argv = ["fhsv", "--gram", str(path), "--h", h]
        elif command == "bcov-factor":
            argv = ["bcov-factor", "--family", str(path)]
        else:
            argv = ["covolume", "--lattice", str(path)]
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert len(err) < 1024  # an echoed value is cut short


    @pytest.mark.parametrize("command, text, h", [
        ("fhsv", json.dumps([["1/0"] * 10] * 10), json.dumps([1] * 10)),
        ("fhsv", json.dumps(enriques_invariant_gram()),
         json.dumps(["1/0"] * 10)),
        ("covolume", json.dumps({"rank": 1, "cubic": [[0, 0, 0, "1/0"]],
                                 "kappa": ["1"]}), None),
    ], ids=["gram", "h", "lattice"])
    def test_zero_denominator_exits_1(self, capsys, tmp_path, command, text,
                                      h):
        self.test_malformed_input_exits_1(capsys, tmp_path, command, text, h)


class TestModular:
    def test_norm_at_i(self, capsys):
        code, out, _ = invoke(capsys, "modular", "--tau", "1i")
        assert code == 0
        payload = json.loads(out)
        assert payload["norm_sq"] > 0
        assert payload["norm_sq"] == math.exp(payload["log_norm_sq"])
        assert payload["error_bound"] < 2.6e-20

    @pytest.mark.parametrize("tau", ["0.0001i", "1e30i", "200i", "1e300+1i",
                                     "0.61803398875+1e-300i"])
    def test_far_tau_gives_finite_log_norm(self, capsys, tau):
        code, out, _ = invoke(capsys, "modular", "--tau", tau)
        assert code == 0
        payload = json.loads(out, parse_constant=pytest.fail)  # strict JSON
        assert math.isfinite(payload["log_norm_sq"])
        assert payload["log_norm_sq"] < 0 <= payload["norm_sq"]

    def test_reduced_tau_beyond_float_range_exits_1(self, capsys):
        code, out, err = invoke(capsys, "modular", "--tau", "5e-324i")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "float range" in err

    def test_bad_tau(self, capsys):
        code, _, err = invoke(capsys, "modular", "--tau", "0.5-2i")
        assert code == 1
        assert err

    def test_missing_tau(self, capsys):
        code, _, _ = invoke(capsys, "modular")
        assert code == 2

    @pytest.mark.parametrize("tau", ["nan+1i", "1e400i", "1" * 20000 + "i"],
                             ids=["nan+1i", "1e400i", "long-digits"])
    def test_non_finite_tau_exits_1(self, capsys, tau):
        code, out, err = invoke(capsys, "modular", "--tau", tau)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "finite" in err
        assert len(err) < 1024  # the argument is cut short


class TestBcovFactor:
    def _family_file(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(FamilyData.quintic_mirror().to_json_dict()))
        return path

    def test_assemble(self, capsys, tmp_path):
        path = self._family_file(tmp_path)
        code, out, _ = invoke(capsys, "bcov-factor", "--family", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["factor"]["xi_power"] == "248"
        assert payload["factor"]["vector_field_power"] == "12"
        assert payload["factor"]["overall_root"] == "1/6"

    def test_eval_at(self, capsys, tmp_path):
        path = self._family_file(tmp_path)
        code, out, _ = invoke(capsys, "bcov-factor", "--family", str(path),
                              "--eval-at", "2")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload["green_potential"], float)

    def test_eval_at_singular_point(self, capsys, tmp_path):
        path = self._family_file(tmp_path)
        code, _, err = invoke(capsys, "bcov-factor", "--family", str(path),
                              "--eval-at", "1")
        assert code == 1
        assert err

    @pytest.mark.parametrize("psi, code", [("1e-13", 0), ("1e-300i", 0),
                                           ("0", 1)])
    def test_eval_at_near_zero(self, capsys, tmp_path, psi, code):
        # distinct from the point 0 at any scale; only 0 itself hits it
        path = self._family_file(tmp_path)
        got, out, err = invoke(capsys, "bcov-factor", "--family", str(path),
                               "--eval-at", psi)
        assert got == code
        if code:
            assert "hits a divisor point" in err
        else:
            assert json.loads(out)["green_potential"] > 0

    @pytest.mark.parametrize("psi", ["nan", "1e400", "1.7e308+1.7e308i"])
    def test_non_finite_eval_at_exits_1(self, capsys, tmp_path, psi):
        path = self._family_file(tmp_path)
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(path),
                                "--eval-at", psi)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("value", ["nan", "1e400", "-1e400i"])
    def test_eval_at_near_non_finite_point(self, capsys, tmp_path, value):
        path = tmp_path / "family.json"
        doc = FamilyData.quintic_mirror().to_json_dict()
        doc["xi_divisor"][0]["point"]["value"] = value
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(path),
                                "--eval-at", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err

    def test_eval_at_modulus_overflow(self, capsys, tmp_path):
        # psi and the point are finite, |psi - point| is beyond float range
        path = tmp_path / "family.json"
        doc = FamilyData.quintic_mirror().to_json_dict()
        doc["xi_divisor"][0]["point"]["value"] = "-1e307-1e307i"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(path),
                                "--eval-at", "1.2e308+1.2e308i")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "not finite" in err

    @pytest.mark.parametrize("path, value", [
        (("chi",), 200.9),
        (("chi",), True),
        (("chi",), "200"),
        (("chi",), [1] * 20000),
        (("odp_points", 0, "r"), 1.7),
        (("odp_points", 1, "point", "root_of_unity"), [5.9, 1.2]),
        (("xi_divisor", 0, "multiplicity"), 1.0),
        (("xi_divisor", 0, "point", "value"), "nan"),
        (("xi_divisor", 0, "point", "value"), "1e400"),
        (("xi_divisor", 0, "point", "value"), "1.7e308+1.7e308i"),
    ], ids=["chi-float", "chi-bool", "chi-string", "chi-long-list",
            "r-float", "root-float",
            "multiplicity-float", "value-nan", "value-inf",
            "value-modulus-overflow"])
    def test_malformed_family_exits_1(self, capsys, tmp_path, path, value):
        doc = FamilyData.quintic_mirror().to_json_dict()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        family = tmp_path / "family.json"
        family.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(family))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert len(err) < 1024  # an echoed value is cut short

    def test_family_missing_chi(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        doc = FamilyData.quintic_mirror().to_json_dict()
        del doc["chi"]
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(path))
        assert code == 1
        assert out == ""
        assert "chi" in err


class TestParser:
    def test_no_subcommand(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
