"""Command-line front end: every capability behind one subcommand, with
deterministic JSON (default) or CSV output.  Rationals always serialize
as strings "p/q"; floats appear only where the quantity itself is
numeric (Petersson norms, Green potentials).

Exit codes: 0 success, 1 domain error (a violated precondition), 2
argument errors.
"""

import io
import json
import reprlib
import sys

# Each handler imports the modules it runs, so a cold process loads only
# what its subcommand needs: ``kernels`` for the pipeline subcommands,
# and ``inputs`` where a value is read from a file or a flag.


class UsageError(Exception):
    """Bad flags; maps to exit code 2."""


def _json_int(literal: str) -> int:
    """A JSON integer literal as an int, refused past 4300 digits as the
    exact readers refuse a longer numerator or denominator."""
    if (digits := len(literal.lstrip("-"))) > 4300:
        raise ValueError(f"an integer literal has {digits} digits, "
                         "more than 4300")
    return int(literal)


def _load_json(what: str, path: str | None = None, text: str | None = None):
    """JSON from the UTF-8 file ``path`` or ``text``; any error names ``what``."""
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _emit(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            writer.writerow([prefix, obj])
    walk("", payload)
    return buf.getvalue()


def _cmd_mirror_map(order) -> dict:
    from . import kernels as k

    chart = k.mirror_map(order)
    return {"order": order,
            **{name: k.series_json(s, 1, tag)
               for name, s, tag in zip(k.CHART[:4], chart, "xxqq")}}


def _cmd_f1(order) -> dict:
    from . import kernels as k

    x, u, y = k.q_chart(order)
    G = k.f1_log_derivative(u, k.log_derivatives(x, u, y))
    return {"G": k.series_json(*G, "q")}


def _cmd_extract_gw(order, n0_file) -> dict:
    from . import kernels as k

    x, u, y = k.q_chart(order)
    logs = k.log_derivatives(x, u, y)       # read by both genus stages
    G = k.f1_log_derivative(u, logs)
    if n0_file:        # c[d] = d^3 N0(d) den, as the Yukawa K holds it
        from .inputs import n0_map_from_json_dict, scaled

        n0 = n0_map_from_json_dict(_load_json("--n0-file", n0_file))
        nums, den = scaled([n0.get(d, 0) for d in range(1, order + 1)])
        c = [0, *(d ** 3 * v for d, v in enumerate(nums, 1))]
    else:
        c, den = k.genus_zero(u, y, logs)
    inst = k.instanton_numbers(c, den)
    n1 = k.extract_gv(k.extract_n1(*G, [0, *inst.values()], 1))
    return {"max_degree": order,
            "n0": {str(d): k.ratio(c[d], den * d ** 3) for d in inst},
            "n1": {str(d): str(v) for d, v in n1.items()},
            "instanton_n0": {str(d): str(v) for d, v in inst.items()}}


def _cmd_delta(n, p, table) -> dict:
    from math import factorial
    from .deltacoeff import delta, delta_row

    if table is not None and (n is not None or p is not None):
        raise UsageError("delta takes --table N or --n and --p, not both")
    if table is None and (n is None or p is None):
        raise UsageError("delta needs either --table N or both --n and --p")
    # delta(n, p) is in [0, 1] over a divisor of (n+2)!, and delta(n, 0) =
    # 1/(n+2)!: all are written within 4300 digits iff (n+2)! is; 2000! is not
    dim = n if table is None else table
    if dim > 0 and factorial(min(dim + 2, 2000)) >= 10 ** 4300:
        raise ValueError(f"dimension n = {dim} gives delta the denominator "
                         "(n+2)!, which has more than 4300 digits")
    if table is not None:
        return {"n": table, "row": [str(v) for v in delta_row(table)]}
    return {"value": str(delta(n, p))}


def _load_lattice(path: str) -> "lattice.CubicLattice":
    from . import lattice

    data = _load_json("--lattice", path)
    try:
        cubic = data["cubic"]
        for row in cubic if isinstance(cubic, list) else [cubic]:
            if not isinstance(row, list) or len(row) != 4:
                raise lattice.LatticeError(f"cubic row {reprlib.repr(row)} "
                                           "is not [i, j, k, value]")
        entries = [((i, j, k), v) for i, j, k, v in cubic]
        return lattice.CubicLattice.from_entries(
            rank=data["rank"], entries=entries, kappa=data["kappa"])
    except KeyError as exc:
        raise lattice.LatticeError(f"lattice file lacks the key {exc}")
    except TypeError as exc:
        raise lattice.LatticeError(f"malformed lattice file: {exc}")


def _cmd_covolume(lattice) -> dict:
    from .lattice import covolume

    L = _load_lattice(lattice)
    res = covolume(L)
    return {
        "rank": L.rank,
        "gram": [[str(v) for v in row] for row in res.gram],
        "covolume": res.covolume.to_json_dict(),
    }


def _cmd_fhsv(gram, h) -> dict:
    from . import lattice

    A = _load_json("--gram", gram)
    h = _load_json("--h", text=h)
    cov, vol = lattice.fhsv_covolume(A, h).covolume, lattice.fhsv_volume(A, h)
    return {
        "covolume": cov.to_json_dict(),
        "volume": vol.to_json_dict(),
        "constant_check": lattice.fhsv_constant(vol, cov).to_json_dict(),
    }


def _cmd_modular(tau) -> dict:
    from . import modular
    from .inputs import parse_complex

    return modular.petersson_delta(parse_complex(tau)).to_json_dict()


def _cmd_bcov_factor(family, eval_at) -> dict:
    from . import divisor
    from .inputs import parse_complex

    data = divisor.family_from_json_dict(_load_json("--family", family))
    factor = divisor.assemble_factor(data)
    out = {"factor": factor.to_json_dict()}
    if eval_at:
        psi = parse_complex(eval_at)
        out["green_potential"], out["error_bound"] = (
            divisor.green_potential(data, psi))
    return out


def _output_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(text)
    return text


REQUIRED = object()     # the default of a flag that must be given

# The largest --order: at 1233 the period's coefficient (5N)!/(N!)^5,
# which mirror-map writes, has more than the 4300 digits CPython writes.
# One bound for the three pipeline subcommands, checked when parsed.
MAX_ORDER = 1232

# Flag -> (type, help, default or REQUIRED).  ``--order`` is the one
# series-order knob, shared by the three pipeline subcommands.
OUTPUT = {"--output": (_output_format, "json or csv", "json")}
ORDER = {"--order": (int, f"series order N, 1 <= N <= {MAX_ORDER}", 30)}

# Subcommand -> (handler, help, flags); the handler takes each flag as a
# keyword (``--n0-file`` as ``n0_file``).
COMMANDS = {
    "mirror-map": (_cmd_mirror_map, "period, mirror map and inverse", ORDER),
    "f1": (_cmd_f1, "genus-one amplitude log-derivative G(q)", ORDER),
    "extract-gw": (
        _cmd_extract_gw, "extract genus-one instanton numbers from G(q)",
        {**ORDER, "--n0-file": (str, "JSON file with genus-0 Gromov-Witten "
                                "invariants; default uses the built-in "
                                "genus-0 pipeline", None)}),
    "delta": (_cmd_delta, "double-point coefficients delta(n,p)", {
        "--n": (int, "dimension n", None),
        "--p": (int, "form degree p, 0 <= p <= n", None),
        "--table": (int, "print the full row for dimension N", None)}),
    "covolume": (_cmd_covolume, "L2 Gram matrix and covolume", {
        "--lattice": (str, "JSON lattice file", REQUIRED)}),
    "fhsv": (_cmd_fhsv, "rank-11 covolume from rank-10 data", {
        "--gram": (str, "JSON file with the 10x10 Gram matrix", REQUIRED),
        "--h": (str, 'JSON vector, e.g. "[1,1,0,...]"', REQUIRED)}),
    "modular": (_cmd_modular, "Petersson norm of the discriminant", {
        "--tau": (str, 'complex, e.g. "0.5+2i"', REQUIRED)}),
    "bcov-factor": (_cmd_bcov_factor, "assemble the divisor factor", {
        "--family": (str, "JSON family file", REQUIRED),
        "--eval-at": (str, "complex psi for the Green potential", None)}),
}


class HelpRequest(Exception):
    """``--help`` or ``-h``; the message is the help text, for stdout."""


def _help(command=None) -> str:
    """Help built from the tables: every subcommand, or every flag of one."""
    rows = COMMANDS[command][2] if command else {**OUTPUT, **COMMANDS}
    width = max(map(len, rows)) + 2
    return (f"usage: mirrorcalc {command or '[--output FORMAT] COMMAND'} "
            "[FLAGS]\n\n" + "".join(
                f"  {name:<{width}}{row[1]}"
                f"{' (required)' * (row[2] is REQUIRED)}\n"
                for name, row in rows.items()))


def _is_flag(token: str) -> bool:
    """A flag starts with "--" (or is "-h"); any other token is a value,
    so ``--order -1`` and ``--tau -1+2i`` read as they look."""
    return token[:2] == "--" or token == "-h"


def _read_flags(argv: list, flags: dict, values: dict, command=None):
    """Pop ``--flag value`` and ``--flag=value`` off the front of ``argv``
    into ``values``, up to the first token that is no flag."""
    while argv and _is_flag(argv[0]):
        name, eq, text = argv.pop(0).partition("=")
        if name in ("-h", "--help") and not eq:
            raise HelpRequest(_help(command))
        if name not in flags:
            raise UsageError(f"{command or 'mirrorcalc'} has no flag "
                             f"{reprlib.repr(name)}")
        if not eq:
            if not argv or _is_flag(argv[0]):
                raise UsageError(f"{name} needs a value")
            text = argv.pop(0)
        try:
            values[name] = flags[name][0](text)
        except ValueError:
            raise UsageError(f"bad value for {name}: {reprlib.repr(text)}")


def parse(argv: list[str]):
    """(handler, output format, keyword arguments) for ``argv``, which is
    ``[--output FORMAT] COMMAND [FLAGS]``.  Raises ``UsageError`` for any
    other argv, ``HelpRequest`` for ``--help``/``-h``, and ``ValueError``
    (exit 1, as for an order below 1) for an order above MAX_ORDER."""
    argv, top = list(argv), {"--output": "json"}
    _read_flags(argv, OUTPUT, top)
    command = argv.pop(0) if argv else None
    if command not in COMMANDS:
        raise UsageError(f"give one subcommand of {', '.join(COMMANDS)}")
    fn, _, flags = COMMANDS[command]
    values = {name: default for name, (_, _, default) in flags.items()}
    _read_flags(argv, flags, values, command)
    if argv:
        raise UsageError(f"{command} takes no {reprlib.repr(argv[0])}")
    missing = " and ".join(n for n, v in values.items() if v is REQUIRED)
    if missing:
        raise UsageError(f"{command} needs {missing}")
    if values.get("--order", 0) > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}, "
                         f"not {reprlib.repr(values['--order'])}")
    return fn, top["--output"], {
        name[2:].replace("-", "_"): value for name, value in values.items()}


def run(argv=None) -> int:
    try:
        fn, fmt, kwargs = parse(sys.argv[1:] if argv is None else argv)
        payload = fn(**kwargs)
    except HelpRequest as exc:
        sys.stdout.write(str(exc))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_emit(payload, fmt))
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
