"""``import mirrorcalc`` loads no submodule: the package namespace
holds only ``__version__``, so a cold start pays only for the modules
it imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = ("import json, sys, mirrorcalc; print(json.dumps([mirrorcalc.__file__, "
         "sorted(m for m in sys.modules if m.startswith('mirrorcalc.'))]))")


def test_import_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    path, submodules = json.loads(result.stdout)
    assert Path(path).resolve().parent == ROOT / "src" / "mirrorcalc"
    assert submodules == []
