"""``scripts/order_sweep.py`` measures the pipeline stages and the
lattice and modular layers it names; small inputs in process keep it in
step with the package."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "order_sweep.py"
STAGES = ["extract_gv_s", "f1_log_derivative_s", "genus0_pipeline_s",
          "q_chart_s"]
LATTICE_STAGES = (
    [f"det_{path}_r{n}_us" for path in ("symmetric", "general")
     for n in (4, 8, 12, 16)] + ["covolume_r4_us", "fhsv_covolume_us"])


def modular_stages(orders):
    return [f"{name}_o{n}_us" for name in ("eta_series", "delta_series")
            for n in orders] + ["petersson_delta_us"]


def load():
    spec = importlib.util.spec_from_file_location("order_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_summary(row, stages):
    """Each stage has its median and, beside it, quartiles around it."""
    assert sorted(k for k in row if k.endswith("_quartiles")) == sorted(
        f"{stage}_quartiles" for stage in stages)
    for stage in stages:
        q1, q3 = row[f"{stage}_quartiles"]
        assert 0 <= q1 <= row[stage] <= q3


def test_measure_small_order():
    row = load().measure(5)
    assert sorted(k for k in row if not k.endswith("_quartiles")) == sorted(
        STAGES + ["max_coeff_bits", "peak_rss_mib"])
    assert_summary(row, STAGES)
    assert row["max_coeff_bits"] > 0


def test_summarize_takes_median_and_quartiles():
    samples = [{"a_s": v} for v in (5, 1, 4, 2, 3)]
    assert load().summarize(samples, 6) == {"a_s": 3, "a_s_quartiles": [2, 4]}


def test_measure_lattice(monkeypatch):
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 2)
    row = module.measure_lattice()
    assert sorted(k for k in row if not k.endswith("_quartiles")) == sorted(
        LATTICE_STAGES)
    assert_summary(row, LATTICE_STAGES)


def test_lattice_inputs_are_fixed_and_take_both_paths(monkeypatch):
    """The seeded inputs are the same on every call; the symmetric
    matrices take the upper-triangle kernel and the general ones the
    full square."""
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 3)
    stages = module.lattice_stages()
    assert sorted(stages) == sorted(LATTICE_STAGES)
    assert repr(stages) == repr(module.lattice_stages())
    from mirrorcalc import lattice
    for n in (4, 8, 12, 16):
        for (m,) in stages[f"det_symmetric_r{n}_us"][1]:
            assert len(m) == n and lattice._symmetric(m)
        for (m,) in stages[f"det_general_r{n}_us"][1]:
            assert len(m) == n and not lattice._symmetric(m)


def test_measure_modular(monkeypatch):
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 2)
    row = module.measure_modular((4, 9))
    assert sorted(k for k in row if not k.endswith("_quartiles")) == sorted(
        modular_stages((4, 9)))
    assert_summary(row, modular_stages((4, 9)))


def test_modular_inputs_are_fixed_and_in_the_strip():
    """Every order of the sweep is timed on both series, and the seeded
    points tau are the same on every call, distinct, and in the strip."""
    module = load()
    assert module.MODULAR_ORDERS == (10, 30, 50, 100, 150)
    stages = module.modular_stages(module.MODULAR_ORDERS)
    assert sorted(stages) == sorted(modular_stages(module.MODULAR_ORDERS))
    assert repr(stages) == repr(module.modular_stages(module.MODULAR_ORDERS))
    assert stages["delta_series_o150_us"][1] == [(150,)] * 20
    taus = [tau for (tau,) in stages["petersson_delta_us"][1]]
    assert len(set(taus)) == 20
    assert all(abs(t.real) <= 0.5 and 0.01 <= t.imag <= 2 for t in taus)


def test_every_run_is_kept(tmp_path, monkeypatch):
    """Two runs of one source tree are two records in each file, each
    timestamped."""
    # the spawned child unpickles order_sweep.measure by importing it
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    module = load()
    monkeypatch.setitem(sys.modules, "order_sweep", module)
    monkeypatch.setattr(module, "OUT", tmp_path / "sweep.json")
    monkeypatch.setattr(module, "LATTICE_OUT", tmp_path / "lattice.json")
    monkeypatch.setattr(module, "MODULAR_OUT", tmp_path / "modular.json")
    monkeypatch.setattr(module, "MODULAR_ORDERS", (3,))
    monkeypatch.setattr(module, "ORDERS", (2,))
    module.main()
    module.main()
    runs = json.loads((tmp_path / "sweep.json").read_text())["runs"]
    assert len(runs) == 2
    assert runs[0]["src_sha256"] == runs[1]["src_sha256"]
    assert all(list(r["orders"]) == ["2"] and r["utc"] and r["repeats"] == 5
               for r in runs)
    lattice = json.loads((tmp_path / "lattice.json").read_text())
    assert lattice["seed"] == 7 and lattice["batch"] == 20
    assert [r["src_sha256"] for r in lattice["runs"]] == [
        r["src_sha256"] for r in runs]
    for r in lattice["runs"]:
        assert_summary(r["stages"], LATTICE_STAGES)
    modular = json.loads((tmp_path / "modular.json").read_text())
    assert (modular["seed"], modular["batch"], modular["orders"]) == (
        7, 20, [3])
    assert [r["src_sha256"] for r in modular["runs"]] == [
        r["src_sha256"] for r in runs]
    for r in modular["runs"]:
        assert_summary(r["stages"], modular_stages((3,)))
