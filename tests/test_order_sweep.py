"""``scripts/order_sweep.py`` measures the pipeline stages and the
lattice, modular and genus-one layers it names; small inputs in process
keep it in step with the package."""

import hashlib
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "order_sweep.py"
STAGES = ["extract_gv_s", "f1_log_derivative_s", "genus0_pipeline_s",
          "q_chart_s"]
LATTICE_STAGES = (
    [f"det_{path}_r{n}_us" for path in ("symmetric", "general")
     for n in (4, 8, 12, 16)]
    + ["covolume_r4_us", "fhsv_covolume_us", "basis_change_r4_us",
       "rank1_update_r12_us"])


def modular_stages(orders):
    return [f"{name}_o{n}_us" for name in ("eta_series", "delta_series")
            for n in orders] + ["petersson_delta_us"]


def genus_one_stages(orders):
    return [f"{name}_o{n}_us" for n in orders for name in (
        "lambert_series", "eta_product_log_derivative", "extract_n1")]


def arguments(stages):
    """Each stage's argument tuples, without its function."""
    return repr({name: args for name, (_, args) in stages.items()})


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
    module = load()
    samples = [module.measure(5) for _ in range(3)]
    for sample in samples:
        assert sorted(sample) == sorted(
            STAGES + ["max_coeff_bits", "peak_rss_mib"])
    row = module.summarize_pipeline(samples)
    assert sorted(k for k in row if not k.endswith("_quartiles")) == sorted(
        STAGES + ["max_coeff_bits", "peak_rss_mib"])
    assert_summary(row, STAGES)
    assert row["max_coeff_bits"] > 0
    assert row["peak_rss_mib"] == max(s["peak_rss_mib"] for s in samples)


def test_summarize_takes_median_and_quartiles():
    samples = [{"a_s": v} for v in (5, 1, 4, 2, 3)]
    assert load().summarize(samples, 6) == {"a_s": 3, "a_s_quartiles": [2, 4]}


def test_measure_lattice(monkeypatch):
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 2)
    row = module.summarize([module.measure_lattice() for _ in range(2)], 2)
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
    assert arguments(stages) == arguments(module.lattice_stages())
    from mirrorcalc import lattice
    for n in (4, 8, 12, 16):
        fn, batch = stages[f"det_symmetric_r{n}_us"]
        for (m,) in batch:
            assert len(m) == n and lattice._symmetric(m)
            assert fn(m) == lattice.bareiss_det(m)
        fn, batch = stages[f"det_general_r{n}_us"]
        assert fn is lattice._det_general
        for (m,) in batch:
            assert len(m) == n and not lattice._symmetric(m)


def plain_digest(stages):
    """SHA-256 of the stages' arguments, lattices as rank, cubic, kappa."""
    from mirrorcalc import lattice

    def plain(a):
        if isinstance(a, lattice.CubicLattice):
            return a.rank, a.cubic, a.kappa
        return a

    text = repr([(name, [tuple(map(plain, a)) for a in args])
                 for name, (_, args) in stages.items()])
    return hashlib.sha256(text.encode()).hexdigest()


def test_basis_changes_are_drawn_last(monkeypatch):
    """The rank-4 basis changes are by unimodular U, and drawing them
    after the other stages (and before the rank-one inputs) leaves those
    stages' inputs as they were before the stage existed (the digest of
    their arguments)."""
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 3)
    stages = module.lattice_stages()
    stages.pop("rank1_update_r12_us")
    from mirrorcalc import lattice
    fn, batch = stages.pop("basis_change_r4_us")
    assert fn is lattice.CubicLattice.basis_change
    for L, U in batch:
        assert L.rank == 4 and lattice.bareiss_det(U) in (1, -1)
    assert plain_digest(stages) == (
        "e56c059e4b2ef7640c5b255ce3512e0d08635b82208368e2b82a482e323f26f8")


def test_rank1_inputs_are_drawn_last_by_perfbench(monkeypatch):
    """The rank-one stage times rank1_update_det_check on 12x12 inputs
    that pass it, drawn by perfbench's own draw_rank1 after every other
    stage: the other stages' digest is the one they had before the stage
    existed."""
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 3)
    workloads = module.perfbench_workloads()
    assert Path(workloads.__file__) == ROOT / "perfbench" / "workloads.py"
    draw, drawn = workloads.draw_rank1, []

    def spy(rng):
        drawn.append(draw(rng))
        return drawn[-1]
    monkeypatch.setattr(workloads, "draw_rank1", spy)
    stages = module.lattice_stages()
    from mirrorcalc import lattice
    fn, batch = stages.pop("rank1_update_r12_us")
    assert fn is lattice.rank1_update_det_check and batch == drawn
    for A, h in batch:
        assert len(A) == len(h) == 12 and lattice._symmetric(A)
        assert all(type(x) is Fraction and abs(x.numerator) <= 5
                   and x.denominator <= 3 for row in A for x in row)
        assert all(type(x) is int and abs(x) <= 4 for x in h)
        assert fn(A, h)
    assert plain_digest(stages) == (
        "f49f6de2b04d8b8c1bc93664e9e0041ea26a77e3598123079125a051194fa4eb")


def test_committed_lattice_file():
    """BENCH_lattice.json ends in at least five runs with
    basis_change_r4_us, the last two or more of them also with
    rank1_update_r12_us; each has every stage of its time."""
    data = json.loads((ROOT / "BENCH_lattice.json").read_text())
    assert (data["seed"], data["batch"]) == (7, 20)
    for stage, least in (("basis_change_r4_us", 5),
                         ("rank1_update_r12_us", 2)):
        runs = [run for run in data["runs"] if stage in run["stages"]]
        assert len(runs) >= least and runs == data["runs"][-len(runs):]
    for run in data["runs"]:
        if "basis_change_r4_us" not in run["stages"]:
            continue
        stages = (LATTICE_STAGES if "rank1_update_r12_us" in run["stages"]
                  else LATTICE_STAGES[:-1])
        assert run["utc"] and len(run["src_sha256"]) == 64
        assert run["repeats"] == 5
        assert sorted(k for k in run["stages"]
                      if not k.endswith("_quartiles")) == sorted(stages)
        assert_summary(run["stages"], stages)


def test_measure_modular(monkeypatch):
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 2)
    row = module.summarize([module.measure_modular((4, 9))
                            for _ in range(2)], 2)
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


def test_measure_genus_one(monkeypatch):
    module = load()
    monkeypatch.setattr(module, "LATTICE_BATCH", 2)
    row = module.summarize([module.measure_genus_one((4, 9))
                            for _ in range(2)], 2)
    assert sorted(k for k in row if not k.endswith("_quartiles")) == sorted(
        genus_one_stages((4, 9)))
    assert_summary(row, genus_one_stages((4, 9)))


def test_genus_one_inputs_are_fixed_and_each_call_scales(monkeypatch):
    """Every order of the sweep is timed on both forms and extract_n1;
    the seeded table is the same on every call, cut to each order, with
    N0, N1 = p/q, p in [-400, 400], q in [1, 12]; each form call builds
    and scales a table of its own, and returns the value of the table."""
    module = load()
    assert module.GENUS_ONE_ORDERS == (10, 30, 50, 100)
    stages = module.genus_one_stages(module.GENUS_ONE_ORDERS)
    assert sorted(stages) == sorted(genus_one_stages((10, 30, 50, 100)))
    assert arguments(stages) == arguments(
        module.genus_one_stages(module.GENUS_ONE_ORDERS))
    from mirrorcalc import gw
    fn, batch = stages["lambert_series_o100_us"]
    n0, n1, n = batch[0]
    assert len(batch) == 20 and all(a == batch[0] for a in batch)
    assert n == 100 and list(n0) == list(n1) == list(range(1, 101))
    for v in [*n0.values(), *n1.values()]:
        assert type(v) is Fraction and abs(v) <= 400
        assert v.denominator <= 12
    (a0, a1, _), *_ = stages["eta_product_log_derivative_o30_us"][1]
    assert (a0, a1) == ({d: n0[d] for d in range(1, 31)},
                        {d: n1[d] for d in range(1, 31)})
    scalings = []
    real = gw.scaled
    monkeypatch.setattr(gw, "scaled",
                        lambda v: scalings.append(1) or real(v))
    table = gw.GWTable(100, n0, n1)
    for name, form in (("lambert_series", gw.lambert_series),
                       ("eta_product_log_derivative",
                        gw.eta_product_log_derivative)):
        fn, batch = stages[f"{name}_o100_us"]
        assert fn(*batch[0]) == fn(*batch[0]) == form(table, 100)
    assert len(scalings) == 5
    fn, [(G, m0), *_] = stages["extract_n1_o100_us"]
    assert G == gw.lambert_series(table, 100) and m0 == n0
    assert fn(G, m0).n1 == n1


def test_committed_genus_one_file():
    """BENCH_genus_one.json holds at least two runs of the whole group at
    the sweep's orders, each with its source hash and repeats."""
    data = json.loads((ROOT / "BENCH_genus_one.json").read_text())
    assert (data["seed"], data["batch"], data["orders"]) == (
        7, 20, [10, 30, 50, 100])
    assert len(data["runs"]) >= 2
    for run in data["runs"]:
        assert run["utc"] and len(run["src_sha256"]) == 64
        assert run["repeats"] == 5
        assert sorted(k for k in run["stages"]
                      if not k.endswith("_quartiles")) == sorted(
            genus_one_stages((10, 30, 50, 100)))
        assert_summary(run["stages"], genus_one_stages((10, 30, 50, 100)))


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
    monkeypatch.setattr(module, "GENUS_ONE_OUT", tmp_path / "genus_one.json")
    monkeypatch.setattr(module, "MODULAR_ORDERS", (3,))
    monkeypatch.setattr(module, "GENUS_ONE_ORDERS", (3,))
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
    genus_one = json.loads((tmp_path / "genus_one.json").read_text())
    assert (genus_one["seed"], genus_one["batch"], genus_one["orders"]) == (
        7, 20, [3])
    assert [r["src_sha256"] for r in genus_one["runs"]] == [
        r["src_sha256"] for r in runs]
    for r in genus_one["runs"]:
        assert_summary(r["stages"], genus_one_stages((3,)))
