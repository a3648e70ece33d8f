"""Command-line front end: every capability behind one subcommand, with
deterministic JSON (default) or CSV output.  Rationals always serialize
as strings "p/q"; floats appear only where the quantity itself is
numeric (Petersson norms, Green potentials).

Exit codes: 0 success, 1 domain error (a violated precondition), 2
argument errors.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import reprlib
import sys

# Each handler imports the modules it runs, so a cold process loads
# only what its subcommand needs.


class UsageError(Exception):
    """Bad flags; maps to exit code 2."""


def _parse_complex(text: str) -> complex:
    z = complex(text.replace(" ", "").replace("i", "j"))
    # hypot, unlike abs, gives inf rather than raising when |z| overflows
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise ValueError(f"{reprlib.repr(text)} has no finite modulus")
    return z


def _load_json(what: str, path: str | None = None, text: str | None = None):
    """JSON from the file ``path`` or ``text``; too deep is a ValueError."""
    if path is not None:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


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


def _cmd_mirror_map(args) -> dict:
    from . import quintic

    chart = quintic.mirror_map(args.order)
    return {
        "order": chart.order,
        "y0": chart.y0.to_json_dict(),
        "q_of_x": chart.q_of_x.to_json_dict(),
        "x_of_q": chart.x_of_q.to_json_dict(),
        "u_of_q": chart.u_of_q.to_json_dict(),
    }


def _cmd_f1(args) -> dict:
    from . import quintic

    G = quintic.f1_log_derivative(quintic.mirror_map(args.order))
    return {"G": G.to_json_dict()}


def _cmd_extract_gw(args) -> dict:
    from . import gw, quintic

    chart = quintic.mirror_map(args.order)
    G = quintic.f1_log_derivative(chart)
    if args.n0_file:
        genus0 = gw.genus0_table(gw.n0_map_from_json_dict(
            _load_json("--n0-file", args.n0_file)), chart.order)
    else:
        genus0 = gw.genus0_pipeline(chart)
    return gw.table_to_json_dict(gw.extract_gv(G, genus0))


def _cmd_delta(args) -> dict:
    from .deltacoeff import delta, delta_row

    if args.table is not None:
        row = delta_row(args.table)
        return {"n": args.table, "row": [str(v) for v in row]}
    if args.n is None or args.p is None:
        raise UsageError("delta needs either --table N or both --n and --p")
    return {"value": str(delta(args.n, args.p))}


def _load_lattice(path: str) -> lattice.CubicLattice:
    from . import lattice

    data = _load_json("--lattice", path)
    try:
        entries = [((i, j, k), v) for i, j, k, v in data["cubic"]]
        return lattice.CubicLattice.from_entries(
            rank=data["rank"], entries=entries, kappa=data["kappa"])
    except KeyError as exc:
        raise lattice.LatticeError(f"lattice file lacks the key {exc}")
    except TypeError as exc:
        raise lattice.LatticeError(f"malformed lattice file: {exc}")


def _cmd_covolume(args) -> dict:
    from . import lattice

    L = _load_lattice(args.lattice)
    res = lattice.covolume(L)
    return {
        "rank": L.rank,
        "gram": [[str(v) for v in row] for row in res.gram],
        "covolume": res.covolume.to_json_dict(),
    }


def _cmd_fhsv(args) -> dict:
    from . import lattice

    A = _load_json("--gram", args.gram)
    h = _load_json("--h", text=args.h)
    cov, vol = lattice.fhsv_covolume(A, h).covolume, lattice.fhsv_volume(A, h)
    return {
        "covolume": cov.to_json_dict(),
        "volume": vol.to_json_dict(),
        "constant_check": lattice.fhsv_constant(vol, cov).to_json_dict(),
    }


def _cmd_modular(args) -> dict:
    from . import modular

    return modular.petersson_delta(_parse_complex(args.tau)).to_json_dict()


def _cmd_bcov_factor(args) -> dict:
    from . import divisor

    data = divisor.family_from_json_dict(_load_json("--family", args.family))
    factor = divisor.assemble_factor(data)
    out = {"factor": factor.to_json_dict()}
    if args.eval_at:
        psi = _parse_complex(args.eval_at)
        out["green_potential"] = divisor.green_potential(data, psi)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorcalc",
        description="Exact closed-form invariants of the quintic mirror "
                    "family and related lattices and modular forms.")
    parser.add_argument("--output", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # the one series-order knob, shared by the three pipeline subcommands
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--order", type=int, default=30)

    p = sub.add_parser("mirror-map", parents=[order],
                       help="period, mirror map and inverse")
    p.set_defaults(fn=_cmd_mirror_map)

    p = sub.add_parser("f1", parents=[order],
                       help="genus-one amplitude log-derivative G(q)")
    p.set_defaults(fn=_cmd_f1)

    p = sub.add_parser("extract-gw", parents=[order],
                       help="extract genus-one instanton numbers from G(q)")
    p.add_argument("--n0-file", default=None,
                   help="JSON file with genus-0 Gromov-Witten invariants; "
                        "default uses the built-in genus-0 pipeline")
    p.set_defaults(fn=_cmd_extract_gw)

    p = sub.add_parser("delta", help="double-point coefficients delta(n,p)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--table", type=int, default=None,
                   help="print the full row for dimension N")
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("covolume", help="L2 Gram matrix and covolume")
    p.add_argument("--lattice", required=True)
    p.set_defaults(fn=_cmd_covolume)

    p = sub.add_parser("fhsv", help="rank-11 covolume from rank-10 data")
    p.add_argument("--gram", required=True)
    p.add_argument("--h", required=True, help='JSON vector, e.g. "[1,1,0,...]"')
    p.set_defaults(fn=_cmd_fhsv)

    p = sub.add_parser("modular", help="Petersson norm of the discriminant")
    p.add_argument("--tau", required=True, help='complex, e.g. "0.5+2i"')
    p.set_defaults(fn=_cmd_modular)

    p = sub.add_parser("bcov-factor", help="assemble the divisor factor")
    p.add_argument("--family", required=True)
    p.add_argument("--eval-at", default=None)
    p.set_defaults(fn=_cmd_bcov_factor)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload = args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_emit(payload, args.output))
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
