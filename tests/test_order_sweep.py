"""``scripts/order_sweep.py`` measures the pipeline stages it names;
one small order in process keeps it in step with the package."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "order_sweep.py"


def test_measure_small_order():
    spec = importlib.util.spec_from_file_location("order_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    row = module.measure(5)
    assert sorted(row) == ["extract_gv_s", "f1_log_derivative_s",
                           "genus0_pipeline_s", "max_coeff_bits",
                           "mirror_map_s", "peak_rss_mib"]
    assert row["max_coeff_bits"] > 0
