"""Every function and method the benchmark's span recorder wraps
(``perfbench/spans.py``, ``TARGETS``) exists under its traced name, so
renaming or removing one fails here and not only in a traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_name_exists(name):
    module, cls, attrs = TARGETS[name]
    mod = importlib.import_module(f"mirrorcalc.{module}")
    owner = getattr(mod, cls) if cls else mod
    for attr in attrs:
        assert callable(vars(owner).get(attr)), f"{name}: {attr} missing"
