"""``import mirrorcalc`` loads no submodule: the package namespace
holds only ``__version__``, and each CLI subcommand loads only the
modules it runs, so a cold start pays only for what it uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorcalc.divisor import FamilyData
from mirrorcalc.lattice import enriques_invariant_gram

ROOT = Path(__file__).resolve().parent.parent

PROBE = ("import json, sys, mirrorcalc; print(json.dumps([mirrorcalc.__file__, "
         "sorted(m for m in sys.modules if m.startswith('mirrorcalc.'))]))")

# Runs the CLI on argv, then prints its exit code, the mirrorcalc
# submodules it loaded, whether csv was loaded, which of dataclasses,
# inspect (an import chain through ast, dis and tokenize), fractions and
# decimal are loaded, and which of argparse, gettext and locale (the
# chain argparse's first parser pulls in) are loaded.
RUN_PROBE = """\
import contextlib, io, json, sys
from mirrorcalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m.removeprefix('mirrorcalc.') for m in
                               sys.modules if m.startswith('mirrorcalc.')),
                  'csv' in sys.modules,
                  [m for m in ('dataclasses', 'inspect', 'fractions',
                               'decimal') if m in sys.modules],
                  [m for m in ('argparse', 'gettext', 'locale')
                   if m in sys.modules]]))
"""

# The pipeline subcommands run on the int kernels alone, without
# fractions (which loads decimal) or dataclasses (which loads inspect);
# the --n0-file parser reads its values as Fractions.
HEAVY = {"extract-gw": [], "extract-gw-n0-file": ["fractions", "decimal"],
         "mirror-map": [], "f1": []}


def _run(*args):
    """``python *args`` on this checkout's ``src``; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, *args], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result


def _python(*args):
    return json.loads(_run(*args).stdout)


def test_import_loads_no_submodule():
    path, submodules = _python("-c", PROBE)
    assert Path(path).resolve().parent == ROOT / "src" / "mirrorcalc"
    assert submodules == []


@pytest.fixture
def inputs(tmp_path):
    files = {
        "LATTICE": {"rank": 1, "cubic": [[0, 0, 0, "5"]], "kappa": ["1"]},
        "GRAM": enriques_invariant_gram(),
        "FAMILY": FamilyData.quintic_mirror().to_json_dict(),
        "N0": {"n0": {"1": "2875", "2": "4876875/8", "3": "8564575000/27"}},
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


SUBCOMMANDS = [
    (["extract-gw", "--order", "3"], ["cli", "kernels"]),
    # the --n0-file parser adds inputs, and no part of gw or series
    (["extract-gw", "--order", "3", "--n0-file", "N0"],
     ["cli", "inputs", "kernels"]),
    (["mirror-map", "--order", "3"], ["cli", "kernels"]),
    (["f1", "--order", "3"], ["cli", "kernels"]),
    (["delta", "--table", "3"], ["cli", "deltacoeff"]),
    (["covolume", "--lattice", "LATTICE"], ["cli", "inputs", "lattice"]),
    (["fhsv", "--gram", "GRAM", "--h", "[1,1,0,0,0,0,0,0,0,0]"],
     ["cli", "inputs", "lattice"]),
    (["modular", "--tau", "1i"], ["cli", "inputs", "modular"]),
    (["bcov-factor", "--family", "FAMILY", "--eval-at", "2"],
     ["cli", "divisor", "inputs"]),
]


def _name(argv):
    """The subcommand, with -n0-file when that flag is given."""
    return argv[0] + "-n0-file" * ("--n0-file" in argv)


@pytest.mark.parametrize("argv, modules", SUBCOMMANDS,
                         ids=[_name(argv) for argv, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_modules(inputs, argv, modules):
    code, loaded, csv_loaded, heavy, parser = _python(
        "-c", RUN_PROBE, *(inputs.get(a, a) for a in argv))
    assert code == 0
    assert loaded == modules
    assert not csv_loaded
    assert parser == []
    if _name(argv) in HEAVY:
        assert heavy == HEAVY[_name(argv)]


@pytest.mark.parametrize("argv, modules", SUBCOMMANDS,
                         ids=[_name(argv) for argv, _ in SUBCOMMANDS])
def test_main_module_is_not_imported_again(inputs, argv, modules):
    """Under ``python -m mirrorcalc.cli`` the CLI runs as ``__main__``, and
    no module it loads imports ``mirrorcalc.cli`` as a second copy."""
    stderr = _run("-X", "importtime", "-m", "mirrorcalc.cli",
                  *(inputs.get(a, a) for a in argv)).stderr
    imported = {line.rpartition("|")[2].strip()
                for line in stderr.splitlines()
                if line.startswith("import time:")}
    assert "mirrorcalc.cli" not in imported
    assert {f"mirrorcalc.{m}" for m in modules if m != "cli"} <= imported


def test_modular_error_loads_no_series():
    """A tau off the upper half-plane raises kernels' SeriesError without
    compiling ``series``."""
    code, loaded, *_ = _python("-c", RUN_PROBE, "modular", "--tau", "-1i")
    assert code == 1
    assert loaded == ["cli", "inputs", "kernels", "modular"]


def test_csv_loaded_only_for_csv_output():
    code, loaded, csv_loaded, heavy, parser = _python(
        "-c", RUN_PROBE, "--output", "csv", "extract-gw", "--order", "3")
    assert code == 0
    assert loaded == ["cli", "kernels"]
    assert csv_loaded
    assert heavy == parser == []
