"""Tests of the benchmark itself: span arithmetic, the output checks,
seeded inputs, and agreement between run.py and BENCHMARK.json.

    python -m pytest perfbench/tests -q
"""

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads
from mirrorcalc import cli, modular, quintic
from mirrorcalc.series import ExactSeries

ROOT = Path(__file__).resolve().parents[2]
NS = 1e-9


def test_self_time_on_hand_built_tree():
    S = spans.Span
    tree = [S("job", 0, 100, -1),
            S("a", 10, 60, 0),      # children b and c cover 25
            S("b", 20, 30, 1),
            S("c", 35, 50, 1),
            S("d", 70, 90, 0),      # child a covers 5
            S("a", 75, 80, 4)]
    got = spans.summarize(tree)
    assert got["job"] == pytest.approx(
        {"calls": 1, "total_s": 100 * NS, "self_s": 30 * NS})
    assert got["a"] == pytest.approx(
        {"calls": 2, "total_s": 55 * NS, "self_s": 30 * NS})
    assert got["b"] == pytest.approx(
        {"calls": 1, "total_s": 10 * NS, "self_s": 10 * NS})
    assert got["d"] == pytest.approx(
        {"calls": 1, "total_s": 20 * NS, "self_s": 15 * NS})


def test_recursive_span_total_is_not_counted_twice():
    S = spans.Span
    got = spans.summarize([S("p", 0, 50, -1), S("p", 10, 40, 0),
                           S("m", 15, 25, 1)])
    assert got["p"] == pytest.approx(
        {"calls": 2, "total_s": 50 * NS, "self_s": 40 * NS})
    assert got["m"]["self_s"] == pytest.approx(10 * NS)


def test_tracer_counts_operator_aliases_and_restores_originals():
    before = {attr: vars(ExactSeries)[attr]
              for attr in ("__add__", "__radd__", "__mul__", "__rmul__")}
    delta_before = modular.delta_series
    s = ExactSeries([1, 2, 3])
    tracer = spans.Tracer()
    with tracer.installed():
        s + s
        1 + s           # __radd__
        2 * s           # __rmul__
        s * 3
    got = spans.summarize(tracer.spans)
    assert got["series.add"]["calls"] == 2
    assert got["series.mul"]["calls"] == 2

    tracer = spans.Tracer()
    with tracer.installed():
        modular.delta_series(5)
    names = [sp.name for sp in tracer.spans]
    assert names[:2] == ["modular.delta_series", "modular.eta_series"]
    assert tracer.spans[1].parent == 0

    assert {a: vars(ExactSeries)[a] for a in before} == before
    assert modular.delta_series is delta_before


def test_tracer_records_the_largest_mirror_map_coefficient():
    tracer = spans.Tracer()
    with tracer.installed():
        chart = quintic.mirror_map(6)
    biggest = max(abs(c.numerator) for c in chart.x_of_q.coeffs)
    assert tracer.facts == {spans.MAX_COEFF_BITS: biggest.bit_length()}


@pytest.fixture(scope="module")
def quintic_payload():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["extract-gw", "--order", "10"]) == 0
    return json.loads(out.getvalue())


def test_quintic_check_accepts_real_output(quintic_payload):
    problems, misses = workloads.check_quintic(quintic_payload, order=10)
    assert problems == []
    assert 0 <= misses <= len(workloads.GENUS1_ANCHORS)


@pytest.mark.parametrize("degree", [2, 7, 8])
def test_quintic_check_catches_an_altered_n0(quintic_payload, degree):
    payload = copy.deepcopy(quintic_payload)
    n0 = payload["n0"]
    n0[str(degree)] = str(Fraction(n0[str(degree)]) + Fraction(1, 2))
    problems, _ = workloads.check_quintic(payload, order=10)
    assert problems


def test_quintic_check_catches_a_missing_degree(quintic_payload):
    payload = copy.deepcopy(quintic_payload)
    del payload["n0"]["10"]
    problems, _ = workloads.check_quintic(payload, order=10)
    assert problems


def test_genus_one_misses_are_counted(quintic_payload):
    payload = copy.deepcopy(quintic_payload)
    for d, v in workloads.GENUS1_ANCHORS.items():
        payload["n1"][str(d)] = str(v)
    assert workloads.check_quintic(payload, order=10) == ([], 0)
    payload["n1"]["4"] = "3721431624"
    assert workloads.check_quintic(payload, order=10) == ([], 1)


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_delta_check_catches_an_altered_coefficient(n):
    coeffs = list(modular.delta_series(30).coeffs)
    assert workloads.check_delta(coeffs) == []
    coeffs[n] += 1
    assert workloads.check_delta(coeffs)


def test_petersson_check_accepts_a_regular_point():
    assert workloads.check_petersson(0.3 + 1.1j) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_reproduces_inputs(name):
    draw = workloads.WORKLOADS[name].draw
    a, b = random.Random(11), random.Random(11)
    assert [draw(a) for _ in range(2)] == [draw(b) for _ in range(2)]
    if name != "quintic-gw":    # its input is fixed
        assert draw(random.Random(11)) != draw(random.Random(12))


def test_reference_work_is_a_series_reciprocal():
    b = reference.reference_work()
    a = [Fraction((-1) ** k * (k + 1), k + 2) for k in range(len(b))]
    product = [sum(a[j] * b[k - j] for j in range(k + 1))
               for k in range(len(b))]
    assert product == [1] + [0] * (len(b) - 1)
    assert max(x.denominator for x in b).bit_length() > 64


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eta-lambert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
