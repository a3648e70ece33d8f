"""Time the BCOV pipeline stage by stage over a fixed sweep of orders.

    python3 scripts/order_sweep.py

Each order in ORDERS runs in a freshly spawned process on the ``src/``
next to this script: ``mirror_map``, ``f1_log_derivative``,
``genus0_pipeline`` and ``extract_gv``, as ``extract-gw`` runs them.
Per order it records each stage's wall time, the largest bit length of
a numerator or denominator in x(q) (``max_coeff_bits``, as the
benchmark's traced runs define it) and the process's peak RSS.

The run is appended to ``BENCH_order_sweep.json`` at the repository
root with its UTC start time and the SHA-256 of ``src/mirrorcalc``.
Every run is kept, oldest first, so repeated runs of one source tree
show the machine's run-to-run spread.
"""

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # inherited by the spawned children
OUT = ROOT / "BENCH_order_sweep.json"
ORDERS = (10, 30, 50, 100, 200, 300)


def measure(order: int) -> dict:
    """Stage times in seconds, max_coeff_bits and peak RSS in MiB for
    one pipeline run at ``order`` in this process."""
    from mirrorcalc import gw, quintic

    times = {}

    def stage(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[name] = round(time.perf_counter() - start, 6)
        return result

    chart = stage("mirror_map_s", quintic.mirror_map, order)
    G = stage("f1_log_derivative_s", quintic.f1_log_derivative, chart)
    genus0 = stage("genus0_pipeline_s", gw.genus0_pipeline, chart)
    stage("extract_gv_s", gw.extract_gv, G, genus0)
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in chart.x_of_q.coeffs)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**times, "max_coeff_bits": bits, "peak_rss_mib": round(rss, 2)}


def _in_child(order: int) -> dict:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(measure, (order,))


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mirrorcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    run = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "orders": {},
    }
    for order in ORDERS:
        run["orders"][str(order)] = _in_child(order)
        print(order, run["orders"][str(order)], flush=True)
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    OUT.write_text(json.dumps({"orders": list(ORDERS), "runs": runs + [run]},
                              indent=2) + "\n")


if __name__ == "__main__":
    main()
