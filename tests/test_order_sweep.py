"""``scripts/order_sweep.py`` measures the pipeline stages it names;
one small order in process keeps it in step with the package."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "order_sweep.py"


def test_measure_small_order():
    spec = importlib.util.spec_from_file_location("order_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    row = module.measure(5)
    assert sorted(row) == ["extract_gv_s", "f1_log_derivative_s",
                           "genus0_pipeline_s", "max_coeff_bits",
                           "peak_rss_mib", "q_chart_s"]
    assert row["max_coeff_bits"] > 0


def test_every_run_is_kept(tmp_path, monkeypatch):
    """Two runs of one source tree are two records, each timestamped."""
    # the spawned child unpickles order_sweep.measure by importing it
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("order_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(sys.modules, "order_sweep", module)
    monkeypatch.setattr(module, "OUT", tmp_path / "sweep.json")
    monkeypatch.setattr(module, "ORDERS", (2,))
    module.main()
    module.main()
    runs = json.loads((tmp_path / "sweep.json").read_text())["runs"]
    assert len(runs) == 2
    assert runs[0]["src_sha256"] == runs[1]["src_sha256"]
    assert all(list(r["orders"]) == ["2"] and r["utc"] for r in runs)
