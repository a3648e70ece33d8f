"""End-to-end tests of the command-line interface: output formats,
exit codes, the default order, and file inputs."""

import json
import math
import shlex
from pathlib import Path

import pytest

from mirrorcalc.cli import COMMANDS, OUTPUT, parse, run
from mirrorcalc.divisor import FamilyData
from mirrorcalc.lattice import enriques_invariant_gram

# JSON nested past the parser's recursion limit
DEEP = "[" * 50000 + "]" * 50000
# A "cubic" that is no array of [i, j, k, value] rows, and the row that
# the error must name.
BAD_CUBIC = {"lattice-row-short": ([[0, 0, 0]], "[0, 0, 0]"),
             "lattice-row-long": ([[0, 0, 0, 1, 2]], "[0, 0, 0, 1, 2]"),
             "lattice-cubic-string": ("abc", "'abc'"),
             "lattice-cubic-object": ({"a": 1}, "{'a': 1}"),
             "lattice-row-scalar": ([5], "5")}


def lattice_text(cubic):
    return json.dumps({"rank": 1, "cubic": cubic, "kappa": ["1"]})


def reference_chart(order):
    """The mirror map's chart with y0(x(q)) recomputed by ExactSeries
    compose, not by the kernel's online solve in the q-chart."""
    from mirrorcalc.quintic import MirrorChart, mirror_map
    c = mirror_map(order)
    return MirrorChart(order, c.y0, c.q_of_x, c.x_of_q, c.u_of_q,
                       c.y0.compose(c.x_of_q))


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
        assert err == f"error: order must be >= 1, not {order}\n"

    @pytest.mark.parametrize("command", ["mirror-map", "f1", "extract-gw"])
    @pytest.mark.parametrize("order, shown", [
        (1233, "1233"), (10 ** 15, "1000000000000000"),
        (10 ** 60, "100000000000000000...0000000000000000000")])
    def test_order_above_the_bound_exits_1(self, capsys, monkeypatch,
                                           command, order, shown):
        """An order past MAX_ORDER is refused when the flag is parsed,
        the same way by all three commands, before any series is built."""
        from mirrorcalc import kernels

        for name in ("period", "q_chart"):
            monkeypatch.setattr(kernels, name, None)
        code, out, err = invoke(capsys, command, "--order", str(order))
        assert (code, out) == (1, "")
        assert err == f"error: order must be <= 1232, not {shown}\n"

    def test_order_bound_is_the_last_writable_period_coefficient(self):
        """MAX_ORDER is the largest N whose (5N)!/(N!)^5 has at most 4300
        digits, so mirror-map can write y0 at every order it takes."""
        from mirrorcalc.cli import MAX_ORDER

        def digits(n):
            return len(str(math.factorial(5 * n) // math.factorial(n) ** 5
                           // 10 ** 4000)) + 4000
        assert digits(MAX_ORDER) <= 4300 < digits(MAX_ORDER + 1)

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

    @pytest.mark.parametrize("fmt, order", [("json", 1), ("json", 12),
                                            ("json", 40), ("csv", 20)])
    def test_extract_gw_matches_the_series_route(self, capsys, fmt, order):
        # extract-gw runs on the int kernels; the Fraction references,
        # which share neither genus_zero, f1_log_derivative nor the
        # transport of y0 with them, must give the same bytes
        from mirrorcalc.cli import _emit
        from test_gw import (reference_extract_n1, reference_instanton,
                             yukawa_reference)
        from test_quintic import f1_reference
        chart = reference_chart(order)
        K = yukawa_reference(chart)
        n0 = {d: K[d] / d ** 3 for d in range(1, order + 1)}
        inst, bad = reference_instanton(n0, order)
        n1 = reference_extract_n1(f1_reference(chart), inst)
        assert bad is None and all(v.denominator == 1 for v in n1.values())
        expected = {"max_degree": order, **{
            name: {str(d): str(column[d]) for d in range(1, order + 1)}
            for name, column in [("n0", n0), ("n1", n1),
                                 ("instanton_n0", inst)]}}
        code, out, _ = invoke(capsys, "--output", fmt, "extract-gw",
                              "--order", str(order))
        assert code == 0
        assert out == _emit(expected, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("order", [1, 30])
    @pytest.mark.parametrize("command", ["mirror-map", "f1"])
    def test_series_commands_match_the_series_route(self, capsys, command,
                                                     order, fmt):
        from mirrorcalc.cli import _emit
        from mirrorcalc.kernels import series_json
        from test_quintic import f1_reference
        chart = reference_chart(order)
        series = {"G": f1_reference(chart)} if command == "f1" else {
            name: getattr(chart, name)
            for name in ("y0", "q_of_x", "x_of_q", "u_of_q")}
        expected = {name: series_json(s.nums, s.den, s.tag)
                    for name, s in series.items()}
        if command == "mirror-map":
            expected["order"] = order
        code, out, _ = invoke(capsys, "--output", fmt, command,
                              "--order", str(order))
        assert code == 0
        assert out == _emit(expected, fmt)

    @pytest.mark.parametrize("fmt, order", [("json", 1), ("json", 12),
                                            ("json", 40), ("csv", 20)])
    def test_n0_file_of_the_built_in_column(self, capsys, tmp_path, fmt,
                                            order):
        # the built-in n0 column fed back through --n0-file gives the
        # same bytes: only the column's source differs
        code, out, _ = invoke(capsys, "extract-gw", "--order", str(order))
        assert code == 0
        path = tmp_path / "n0.json"
        path.write_text(json.dumps({"n0": json.loads(out)["n0"]}))
        argv = ["--output", fmt, "extract-gw", "--order", str(order)]
        code, built_in, _ = invoke(capsys, *argv)
        assert code == 0
        code, from_file, _ = invoke(capsys, *argv, "--n0-file", str(path))
        assert code == 0
        assert from_file == built_in

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
        '{"-3": 4}', '{"": 1}', '{"1": "1e5000"}', '{"1": "1e-5000"}',
        '{"n0": {"1": "1e4300"}}',
    ], ids=["array", "scalar", "n0-array", "n0-string", "value-array",
            "value-bool", "value-float", "value-null", "value-word",
            "value-zero-denominator", "degree-word", "deep-nesting",
            "degree-leading-zero", "degree-underscore", "degree-space",
            "degree-plus", "degree-arabic-indic", "degree-zero",
            "degree-negative", "degree-empty", "value-huge-exponent",
            "value-huge-negative-exponent", "value-over-4300-digits"])
    def test_extract_gw_malformed_n0_file(self, capsys, tmp_path, text):
        path = tmp_path / "n0.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "extract-gw", "--order", "3",
                                "--n0-file", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "n0" in err
        assert "Traceback" not in err
        assert len(err) < 300

    def test_extract_gw_non_integral_instanton_is_shortened(
            self, capsys, tmp_path):
        """A 4300-digit value the multicover rule leaves non-integral is
        named in one short line, not written out in full."""
        path = tmp_path / "n0.json"
        path.write_text('{"n0": {"1": "9e4299", "2": "9e4299"}}')
        code, out, err = invoke(capsys, "extract-gw", "--order", "3",
                                "--n0-file", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: genus-zero instanton number at "
                              "degree 3 is not an integer: -1000")
        assert err.endswith("/3\n") and len(err) < 300

    def test_extract_gw_instanton_past_the_digit_limit_is_shortened(
            self, capsys, tmp_path):
        """n_2 = N0(2) - N0(1)/8 has a 4301-digit denominator, which CPython
        will not write as a string; it is named by its bit length."""
        path = tmp_path / "n0.json"
        path.write_text(json.dumps({"n0": {"1": "1", "2": "1/" + "9" * 4300}}))
        code, out, err = invoke(capsys, "extract-gw", "--order", "3",
                                "--n0-file", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: genus-zero instanton number at "
                              "degree 2 is not an integer: ")
        assert "-bit int>" in err and len(err) < 300

    @pytest.mark.parametrize("argv", [
        ["f1", "--order", "40"], ["extract-gw", "--order", "40"],
        ["--output", "csv", "extract-gw", "--order", "20"]])
    def test_genus_stages_build_no_x_chart(self, capsys, monkeypatch, argv):
        """f1 and extract-gw read only the q-chart: the period and the
        x-chart solve never run, and neither does a series exp or division."""
        from mirrorcalc import kernels
        expected = invoke(capsys, *argv)
        for name in ("period", "x_chart", "exp", "divide"):
            monkeypatch.setattr(kernels, name, lambda *args, name=name:
                                pytest.fail(f"{name} ran"))
        assert invoke(capsys, *argv) == expected

    @pytest.mark.parametrize("n0_file", [False, True])
    def test_extract_gw_inverts_the_multicover_rule_once(
            self, capsys, tmp_path, monkeypatch, n0_file):
        # both routes invert through the one kernel
        from mirrorcalc import kernels
        calls = []
        inverse = kernels.instanton_numbers
        monkeypatch.setattr(kernels, "instanton_numbers", lambda c, den:
                            calls.append(len(c) - 1) or inverse(c, den))
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


# Each flag that reads JSON, in an argv where FILE is a file of the fault's
# text or bytes, or, for --h, TEXT is its text; GRAM is a valid Gram file.
JSON_FLAGS = {
    "--n0-file": ["extract-gw", "--order", "3", "--n0-file", "FILE"],
    "--lattice": ["covolume", "--lattice", "FILE"],
    "--gram": ["fhsv", "--gram", "FILE", "--h", "[1]"],
    "--h": ["fhsv", "--gram", "GRAM", "--h", "TEXT"],
    "--family": ["bcov-factor", "--family", "FILE"],
}
# A str can also be an --h text; the rest are faults of a file.
JSON_FAULTS = {"malformed": '{"a": x}', "long-int": "[" + "1" * 5000 + "]",
               "not-utf8": b'["\xff"]', "missing": None, "directory": None}


@pytest.mark.parametrize("flag, fault", [
    (flag, fault) for flag in JSON_FLAGS for fault in JSON_FAULTS
    if flag != "--h" or isinstance(JSON_FAULTS[fault], str)])
def test_json_error_names_its_flag(capsys, tmp_path, flag, fault):
    data, path = JSON_FAULTS[fault], tmp_path / "input.json"
    if isinstance(data, str):
        path.write_text(data)
    elif data:
        path.write_bytes(data)
    elif fault == "directory":
        path.mkdir()
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps(enriques_invariant_gram()))
    argv = [{"FILE": str(path), "GRAM": str(gram), "TEXT": data}.get(a, a)
            for a in JSON_FLAGS[flag]]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}: ") and len(err) < 300


@pytest.mark.parametrize("flag, literal", [
    ("--n0-file", '{"n0": {"1": 1' + "0" * 4999 + "}}"),
    ("--gram", "[[-" + "9" * 5000 + "]]"),
], ids=["n0-file", "gram"])
def test_json_int_past_4300_digits(capsys, tmp_path, flag, literal):
    """Refused with the 4300-digit bound of the exact readers, not with
    advice to call a Python function."""
    path = tmp_path / "input.json"
    path.write_text(literal)
    argv = [str(path) if a == "FILE" else a for a in JSON_FLAGS[flag]]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {flag}: an integer literal has 5000 digits, "
                   "more than 4300\n")


def test_json_int_of_4300_digits_read():
    from mirrorcalc.cli import _load_json
    assert _load_json("--h", text="[-" + "9" * 4300 + "]") == [1 - 10 ** 4300]


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

    @pytest.mark.parametrize("flags", [["--n", "3"], ["--p", "1"],
                                       ["--n", "3", "--p", "1"]],
                             ids=["n", "p", "n-and-p"])
    def test_table_with_n_or_p_is_a_usage_error(self, capsys, flags):
        code, out, err = invoke(capsys, "delta", "--table", "2", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")

    def test_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "delta", "--n", "3", "--p", "9")
        assert code == 1
        assert err

    def test_digit_limit_both_sides(self, capsys):
        """delta(n, 0) = 1/(n+2)!: 1558! has 4300 digits, 1559! has 4303."""
        code, out, err = invoke(capsys, "delta", "--n", "1556", "--p", "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == f"1/{math.factorial(1558)}"
        for flags in (["--n", "1557", "--p", "0"], ["--n", "1557", "--p", "9"],
                      ["--table", "1557"], ["--table", "10" * 200]):
            code, out, err = invoke(capsys, "delta", *flags)
            assert (code, out) == (1, "")
            n = flags[1]
            assert err == (f"error: dimension n = {n} gives delta the "
                           "denominator (n+2)!, which has more than 4300 "
                           "digits\n")

    def test_table_at_the_digit_limit_runs(self, capsys, monkeypatch):
        """--table 1556 passes the limit; its row (1557 values, minutes of
        work) is stubbed to its first entry, the longest denominator."""
        from mirrorcalc import deltacoeff
        monkeypatch.setattr(deltacoeff, "delta_row",
                            lambda n: [deltacoeff.delta(n, 0)])
        code, out, err = invoke(capsys, "delta", "--table", "1556")
        assert (code, err) == (0, "")
        assert json.loads(out)["row"] == [f"1/{math.factorial(1558)}"]

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
        from test_lattice import gauss_det, spy_kernels
        seen = spy_kernels(monkeypatch)
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(enriques_invariant_gram()))
        code, _, _ = invoke(capsys, "fhsv", "--gram", str(gram),
                            "--h", json.dumps([1, 1] + [0] * 8))
        assert code == 0
        assert [len(m) for _, m, _, _ in seen] == [10, 11]
        for _, m, det, _ in seen:
            assert det == gauss_det(m)

    @pytest.mark.parametrize("h", ['"abc"', "null", "1"])
    def test_fhsv_h_not_a_list(self, capsys, tmp_path, h):
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(enriques_invariant_gram()))
        code, out, err = invoke(capsys, "fhsv", "--gram", str(gram), "--h", h)
        assert (code, out) == (1, "")
        assert err == "error: h must be a list of entries\n"

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
        *(("covolume", lattice_text(c), None) for c, _ in BAD_CUBIC.values()),
    ], ids=["h-scalar", "h-nested", "h-long-entry", "gram-scalar",
            "gram-float", "gram-ragged", "lattice-no-cubic", "lattice-array",
            "lattice-index-too-large", "lattice-index-negative",
            "lattice-rank-float", "lattice-rank-long-list",
            "lattice-index-float",
            "lattice-value-float", "lattice-value-bool",
            "lattice-repeated-triple", "lattice-permuted-triple",
            "lattice-kappa-string", "gram-deep", "h-deep", "lattice-deep",
            "family-deep", *BAD_CUBIC])
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


    @pytest.mark.parametrize("cubic, row", BAD_CUBIC.values(),
                             ids=list(BAD_CUBIC))
    def test_malformed_cubic_row_is_named(self, capsys, tmp_path, cubic, row):
        path = tmp_path / "lattice.json"
        path.write_text(lattice_text(cubic))
        code, _, err = invoke(capsys, "covolume", "--lattice", str(path))
        assert code == 1
        assert err == f"error: cubic row {row} is not [i, j, k, value]\n"

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

    @pytest.mark.parametrize("value", ["1e100000", "1e-100000"])
    def test_huge_exponent_is_refused_by_name(self, capsys, tmp_path, value):
        # refused before Fraction forms a 100001-digit power of ten
        path = tmp_path / "lattice.json"
        path.write_text(lattice_text([[0, 0, 0, value]]))
        code, out, err = invoke(capsys, "covolume", "--lattice", str(path))
        assert (code, out) == (1, "")
        assert err == (f"error: entry '{value}' is not an int, a Fraction "
                       "or a rational string\n")


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

    @pytest.mark.parametrize("doc", [
        {"chi": 200, "xi_divisor": [{"point": {"value": "1"},
                                     "multiplicity": 10 ** 400}]},
        {"chi": 10 ** 400, "xi_divisor": [{"point": {"value": "1"},
                                            "multiplicity": 1}]},
    ], ids=["multiplicity", "chi"])
    def test_exponent_past_float_range_exits_1(self, capsys, tmp_path, doc):
        """A 401-digit int passes the JSON reader; the exponent it makes
        has no float, so the Green potential is not finite."""
        family = tmp_path / "family.json"
        family.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(family),
                                "--eval-at", "2")
        assert (code, out) == (1, "")
        assert err == "error: the Green potential at psi = (2+0j) is not " \
                      "finite\n"

    def test_root_of_unity_of_huge_order(self, capsys, tmp_path):
        """exp(2 pi i k/n) for a 401-digit n: k / n is formed first, so the
        point is placed (next to 1, apart from 2) and --eval-at 2 hits 2."""
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"chi": 200, "odp_points": [
            {"point": {"root_of_unity": [10 ** 400, 1]}, "r": 1},
            {"point": {"value": "2"}, "r": 1}]}))
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(family))
        assert (code, err) == (0, "") and json.loads(out)["factor"]
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(family),
                                "--eval-at", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: psi hits a divisor point")

    @pytest.mark.parametrize("path, value, message", [
        (("chi",), 200.9, None),
        (("chi",), True, None),
        (("chi",), "200", None),
        (("chi",), [1] * 20000, None),
        (("odp_points", 0, "r"), 1.7, None),
        (("odp_points", 1, "point", "root_of_unity"), [5.9, 1.2], None),
        (("xi_divisor", 0, "multiplicity"), 1.0, None),
        (("xi_divisor", 0, "point", "value"), "nan", None),
        (("xi_divisor", 0, "point", "value"), "1e400", None),
        (("xi_divisor", 0, "point", "value"), "1.7e308+1.7e308i", None),
        (("odp_points", 1, "point", "root_of_unity"), [0, 1],
         "root order must be positive"),
        (("odp_points", 1, "point", "root_of_unity"), [-5, 1],
         "root order must be positive"),
        (("ramification",), [{"point": {"value": "3"}, "r": 1}],
         "ramification index must be >= 2"),
        (("odp_points", 0, "r"), 0, "double-point index must be >= 1"),
        (("xi_divisor", 0, "point"), "bogus", "unrecognized point: 'bogus'"),
    ], ids=["chi-float", "chi-bool", "chi-string", "chi-long-list",
            "r-float", "root-float",
            "multiplicity-float", "value-nan", "value-inf",
            "value-modulus-overflow", "root-order-zero", "root-order-negative",
            "ramification-below-2", "r-zero", "point-bogus"])
    def test_malformed_family_exits_1(self, capsys, tmp_path, path, value,
                                      message):
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
        if message:
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["1 + 2x", True, [1, 2]],
                             ids=["word", "bool", "array"])
    def test_malformed_point_value_is_named(self, capsys, tmp_path, value):
        doc = FamilyData.quintic_mirror().to_json_dict()
        doc["xi_divisor"][0]["point"]["value"] = value
        family = tmp_path / "family.json"
        family.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "bcov-factor", "--family", str(family))
        assert (code, out) == (1, "")
        assert err == f"error: point value {value!r} is not a complex number " \
                      "such as 1.5-2i\n"

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

    # argv pairs that give the same bytes and exit code: the two flag
    # forms, values starting with "-", and repeated flags (the last wins)
    @pytest.mark.parametrize("argv, same, code", [
        (["extract-gw", "--order=3"], ["extract-gw", "--order", "3"], 0),
        (["--output=csv", "delta", "--table=3"],
         ["--output", "csv", "delta", "--table", "3"], 0),
        (["modular", "--tau=-1+2i"], ["modular", "--tau", "-1 + 2i"], 0),
        (["modular", "--tau", "-1+2i"], ["modular", "--tau=-1+2i"], 0),
        (["extract-gw", "--order", "-1"], ["extract-gw", "--order=-1"], 1),
        (["extract-gw", "--order", "5", "--order", "3"],
         ["extract-gw", "--order", "3"], 0),
        (["--output", "csv", "--output", "json", "delta", "--n", "2",
          "--p", "1", "--n=3"], ["delta", "--n", "3", "--p", "1"], 0),
    ], ids=lambda v: shlex.join(v) if isinstance(v, list) else str(v))
    def test_flag_forms_agree(self, capsys, argv, same, code):
        first = invoke(capsys, *argv)
        assert first == invoke(capsys, *same)
        assert first[0] == code

    @pytest.mark.parametrize("argv", [
        ["extract-gw", "--ord", "3"],           # no prefix abbreviation
        ["extract-gw", "--order"],
        ["extract-gw", "--order", "--n0-file", "n0.json"],
        ["extract-gw", "--order", "abc"],
        ["--output", "xml", "extract-gw"],
        ["extract-gw", "--output", "csv"],      # --output goes first
        ["extract-gw", "--bogus", "1"],
        ["extract-gw", "3"],
        ["--order", "3", "extract-gw"],
        ["modular"],
        ["covolume"],
        ["fhsv", "--gram", "gram.json"],
        [],
        ["frobnicate"],
    ], ids=shlex.join)
    def test_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_names_every_subcommand(self, capsys, flag):
        code, out, err = invoke(capsys, flag)
        assert code == 0 and err == ""
        for name, (_, text, _) in COMMANDS.items():
            assert f"  {name} " in out and text in out
        assert "  --output " in out and OUTPUT["--output"][1] in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_names_every_flag(self, capsys, command):
        code, out, err = invoke(capsys, command, "--help")
        assert code == 0 and err == ""
        assert out.startswith(f"usage: mirrorcalc {command} ")
        for name, (_, text, _) in COMMANDS[command][2].items():
            assert f"  {name} " in out and text in out

    def test_readme_lines_parse(self):
        """Every ``mirrorcalc`` line of README's CLI block parses to its
        subcommand's handler; no handler runs."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
        lines = [shlex.split(line, comments=True)
                 for line in block.split("```", 1)[0].splitlines()]
        assert len(lines) >= len(COMMANDS)
        for argv in lines:
            assert argv[0] == "mirrorcalc"
            fn, fmt, _ = parse(argv[1:])
            assert fn is COMMANDS[argv[1]][0] and fmt == "json"
