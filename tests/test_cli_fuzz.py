"""Fuzz the command line with small malformed JSON files and number
strings: every run ends in exit 0 with strict JSON on stdout, or in
exit 1 or 2 with nothing on stdout and a message on stderr.  A
malformed argv ends in exit 2 with one ``usage error:`` line."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from mirrorcalc.cli import run
from mirrorcalc.divisor import FamilyData
from mirrorcalc.lattice import enriques_invariant_gram

LATTICE = {"rank": 2, "cubic": [[0, 0, 0, "6"], [0, 0, 1, "1"]],
           "kappa": ["1", "0"]}
GRAM = enriques_invariant_gram()
H = [1, 1] + [0] * 8
FAMILY = FamilyData.quintic_mirror().to_json_dict()
N0 = {"n0": {"1": "2875", "2": "4876875/8"}}
NON_FINITE = ["nan", "nan+1i", "1e400", "-1e400", "1e400i", "1+nani",
              "1.7e308+1.7e308i"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats()
    | st.text(max_size=4) | st.sampled_from(["1/0", "-1/2", "7", *NON_FINITE]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=8)


def _paths(obj, prefix=()):
    if prefix:
        yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one entry, at any depth, replaced or removed."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(json_values)
    else:
        del parent[path[-1]]
    return doc


def documents(valid):
    """File contents: ``valid`` itself or mutated, any small JSON value,
    or text that is mostly not JSON at all."""
    return (st.one_of(st.just(valid), mutated(valid), json_values)
            .map(json.dumps) | st.text(max_size=8))


def _complex_text(re, im):
    return f"{re!r}+{im!r}i".replace("+-", "-")


finite = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
          | st.builds(_complex_text,
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.floats(allow_nan=False, allow_infinity=False)))
malformed = st.text(max_size=6)


@st.composite
def invocations(draw):
    """(argv, {placeholder: file text}) for one fuzzed command."""
    command = draw(st.sampled_from(["covolume", "fhsv", "bcov-factor",
                                    "extract-gw", "modular", "delta"]))
    if command == "covolume":
        return ["covolume", "--lattice", "LATTICE"], {
            "LATTICE": draw(documents(LATTICE))}
    if command == "fhsv":
        return ["fhsv", "--gram", "GRAM", f"--h={draw(documents(H))}"], {
            "GRAM": draw(documents(GRAM))}
    if command == "bcov-factor":
        argv = ["bcov-factor", "--family", "FAMILY"]
        if draw(st.booleans()):
            value = draw(finite | st.sampled_from(NON_FINITE) | malformed)
            argv.append(f"--eval-at={value}")
        return argv, {"FAMILY": draw(documents(FAMILY))}
    if command == "extract-gw":
        order = draw(st.integers(1, 4))
        return ["extract-gw", f"--order={order}", "--n0-file", "N0"], {
            "N0": draw(documents(N0))}
    if command == "modular":
        tau = draw(finite | st.sampled_from(NON_FINITE) | malformed)
        return ["modular", f"--tau={tau}"], {}
    return ["delta", f"--table={draw(st.integers(-3, 4))}"], {}


def _reject_constant(name):
    raise AssertionError(f"stdout holds the non-JSON constant {name}")


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_cli_ends_cleanly(invocation):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(text, encoding="utf-8")
        argv = [paths.get(a, a) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error:", "usage error:"))


# Well-formed argv of every subcommand; their files are never read,
# because every argv drawn from them is broken before the subcommand runs.
ARGVS = [["mirror-map", "--order", "3"], ["f1", "--order", "2"],
         ["extract-gw", "--order", "2", "--n0-file", "N0"],
         ["delta", "--table", "3"], ["delta", "--n", "3", "--p", "1"],
         ["covolume", "--lattice", "LATTICE"],
         ["fhsv", "--gram", "GRAM", "--h", "[1]"], ["modular", "--tau", "1i"],
         ["bcov-factor", "--family", "FAMILY", "--eval-at", "2"]]
FLAGS = {"-h", "--help", "--output", *(a for argv in ARGVS for a in argv
                                      if a.startswith("--"))}


@st.composite
def malformed_argvs(draw):
    """A well-formed argv broken one way: a random token added, an unknown
    or abbreviated flag, a flag without its value, or an option moved to
    the other side of the subcommand."""
    argv = draw(st.sampled_from([[], ["--output", "json"],
                                 ["--output", "csv"]])) + draw(
        st.sampled_from(ARGVS))
    sub = 2 if argv[0] == "--output" else 0     # the subcommand's index
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    how = draw(st.sampled_from(["token", "unknown", "abbreviated",
                                "no value", "moved"]))
    if how == "token":
        token = draw(st.text(max_size=6))
        assume(token.partition("=")[0] not in FLAGS)
        argv.insert(draw(st.integers(0, len(argv))), token)
    elif how == "unknown":
        name = "--" + draw(st.text("abcdefghijklmnopqrstuvwxyz0-",
                                   min_size=1, max_size=8))
        assume(name not in FLAGS)
        value = draw(st.sampled_from(["", "=1"]))
        argv.insert(draw(st.sampled_from([sub, *flags, len(argv)])),
                    name + value)
    elif how == "abbreviated":
        i = draw(st.sampled_from(flags))
        assume(len(argv[i]) > 3)
        argv[i] = argv[i][:draw(st.integers(3, len(argv[i]) - 1))]
    elif how == "no value":
        del argv[draw(st.sampled_from(flags)) + 1]
    elif sub and draw(st.booleans()):         # --output after the subcommand
        argv = argv[2:]
        argv[1:1] = ["--output", "json"]
    else:                                     # a flag before the subcommand
        i = draw(st.sampled_from([i for i in flags if i > sub]))
        argv[sub:sub] = [argv.pop(i), argv.pop(i)]
    return argv


@settings(max_examples=300, deadline=None)
@given(malformed_argvs())
def test_malformed_argv_is_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("usage error: ")
    assert err.getvalue().count("\n") == 1


def _covolume_code(doc) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            return run(["covolume", "--lattice", str(path)])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 1), st.permutations(range(3)), json_values,
       st.text(max_size=4))
def test_lattice_repeat_or_string_kappa_exits_1(entry, order, value, kappa):
    """A cubic triple given again in any index order, whatever its
    value, or a kappa given as a string, is refused."""
    repeated = copy.deepcopy(LATTICE)
    triple = LATTICE["cubic"][entry][:3]
    repeated["cubic"].append([triple[i] for i in order] + [value])
    assert _covolume_code(repeated) == 1
    assert _covolume_code(dict(LATTICE, kappa=kappa)) == 1
