"""Time the BCOV pipeline stage by stage over a fixed sweep of orders,
and the lattice and modular layers on fixed inputs.

    python3 scripts/order_sweep.py

Each order in ORDERS runs in a freshly spawned process on the ``src/``
next to this script, through the ``kernels`` calls that ``extract-gw``
makes, one stage each: ``q_chart``, ``f1_log_derivative``
(``log_derivatives``, the q-chart log-derivatives that both genus stages
read, and ``f1_log_derivative``), ``genus0_pipeline`` (``genus_zero``
and ``instanton_numbers``) and ``extract_gv`` (``extract_n1`` and
``extract_gv``).  The child runs the pipeline once as a warm-up and then
REPEATS times.  Per order it records each stage's median wall time under
the stage's name and its lower and upper quartiles under
``<stage>_quartiles``, the largest bit length of a coefficient of the
integral x(q) (``max_coeff_bits``, as the benchmark's traced runs define
it) and the process's peak RSS.

The lattice layer runs in one more spawned process, with the same
warm-up and repeats, on LATTICE_BATCH inputs per stage drawn from
LATTICE_SEED: ``_det`` on symmetric and on general int matrices at each
rank in LATTICE_RANKS, ``covolume`` at rank 4 and ``fhsv_covolume``.
Each sample is the mean time per call over the batch, in microseconds.

The modular layer runs the same way in one more spawned process:
``eta_series`` and ``delta_series`` LATTICE_BATCH times at each order in
MODULAR_ORDERS, and ``petersson_delta`` once at each of LATTICE_BATCH
points tau of the strip |Re tau| <= 1/2, 0.01 <= Im tau <= 2, drawn from
LATTICE_SEED.

The runs are appended to ``BENCH_order_sweep.json``,
``BENCH_lattice.json`` and ``BENCH_modular.json`` at the repository root
with their UTC start time and the SHA-256 of ``src/mirrorcalc``.  Every
run is kept, oldest first, so repeated runs of one source tree show the
machine's run-to-run spread.
"""

import hashlib
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # inherited by the spawned children
OUT = ROOT / "BENCH_order_sweep.json"
LATTICE_OUT = ROOT / "BENCH_lattice.json"
MODULAR_OUT = ROOT / "BENCH_modular.json"
ORDERS = (10, 30, 50, 100, 200, 300, 500)
REPEATS = 5
LATTICE_RANKS = (4, 8, 12, 16)
LATTICE_BATCH = 20
LATTICE_SEED = 7
MODULAR_ORDERS = (10, 30, 50, 100, 150)


def summarize(samples: list, digits: int) -> dict:
    """Each key's median over the sample dicts, and its lower and upper
    quartiles under ``<key>_quartiles``."""
    out = {}
    for name in samples[0]:
        q1, median, q3 = statistics.quantiles(
            [s[name] for s in samples], n=4, method="inclusive")
        out[name] = round(median, digits)
        out[f"{name}_quartiles"] = [round(q1, digits), round(q3, digits)]
    return out


def _pipeline(order: int) -> tuple:
    """({stage: seconds}, max_coeff_bits) for one pipeline run."""
    from mirrorcalc import kernels as k

    times = {}

    def stage(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[name] = time.perf_counter() - start
        return result

    x, u, y = stage("q_chart_s", k.q_chart, order)
    logs, G = stage("f1_log_derivative_s", lambda: (
        logs := k.log_derivatives(x, u, y), k.f1_log_derivative(u, logs)))
    inst = stage("genus0_pipeline_s",
                 lambda: k.instanton_numbers(*k.genus_zero(u, y, logs)))
    stage("extract_gv_s",
          lambda: k.extract_gv(k.extract_n1(*G, [0, *inst.values()], 1)))
    return times, max(v.bit_length() for v in x)  # x(q) has denominator 1


def measure(order: int) -> dict:
    """Stage medians and quartiles in seconds over REPEATS runs after a
    warm-up, max_coeff_bits and peak RSS in MiB, at ``order`` in this
    process."""
    _pipeline(order)
    runs = [_pipeline(order) for _ in range(REPEATS)]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**summarize([t for t, _ in runs], 6),
            "max_coeff_bits": runs[-1][1], "peak_rss_mib": round(rss, 2)}


def lattice_stages() -> dict:
    """{stage: (function, its LATTICE_BATCH argument tuples)} on inputs
    drawn from LATTICE_SEED."""
    from mirrorcalc import lattice

    rng = random.Random(LATTICE_SEED)
    batch = range(LATTICE_BATCH)

    def symmetric(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-5, 5)
        return m

    def cubic_lattice(rank):
        while True:
            entries = {(i, j, k): rng.randint(-3, 3) for i in range(rank)
                       for j in range(i, rank) for k in range(j, rank)}
            kappa = [rng.randint(-2, 2) for _ in range(rank)]
            try:
                return lattice.CubicLattice.from_entries(rank, entries, kappa)
            except lattice.LatticeError:
                pass

    def kahler(A):
        while True:
            h = [rng.randint(1, 3), rng.randint(1, 3)] + [
                rng.randint(-1, 1) for _ in range(8)]
            if sum(h[i] * A[i][j] * h[j] for i in range(10)
                   for j in range(10)) > 0:
                return h

    stages = {}
    for n in LATTICE_RANKS:
        stages[f"det_symmetric_r{n}_us"] = (
            lattice._det, [(symmetric(n),) for _ in batch])
        stages[f"det_general_r{n}_us"] = (lattice._det, [(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)],)
            for _ in batch])
    stages["covolume_r4_us"] = (
        lattice.covolume, [(cubic_lattice(4),) for _ in batch])
    A = lattice.enriques_invariant_gram()
    stages["fhsv_covolume_us"] = (
        lattice.fhsv_covolume, [(A, kahler(A)) for _ in batch])
    return stages


def modular_stages(orders) -> dict:
    """{stage: (function, its LATTICE_BATCH argument tuples)}: the eta and
    Delta series at each order, and the Petersson norm at points drawn
    from LATTICE_SEED."""
    from mirrorcalc import modular

    rng = random.Random(LATTICE_SEED)
    stages = {}
    for name in ("eta_series", "delta_series"):
        for n in orders:
            stages[f"{name}_o{n}_us"] = (
                getattr(modular, name), [(n,)] * LATTICE_BATCH)
    stages["petersson_delta_us"] = (modular.petersson_delta, [
        (complex(rng.uniform(-0.5, 0.5), rng.uniform(0.01, 2.0)),)
        for _ in range(LATTICE_BATCH)])
    return stages


def measure_stages(stages: dict) -> dict:
    """Per-call medians and quartiles in microseconds over REPEATS
    passes through each stage's batch, after a warm-up pass."""

    def sample():
        times = {}
        for name, (fn, args) in stages.items():
            start = time.perf_counter()
            for a in args:
                fn(*a)
            times[name] = (time.perf_counter() - start) / len(args) * 1e6
        return times

    sample()
    return summarize([sample() for _ in range(REPEATS)], 2)


def measure_lattice() -> dict:
    """``measure_stages`` on the lattice stages."""
    return measure_stages(lattice_stages())


def measure_modular(orders) -> dict:
    """``measure_stages`` on the modular stages at ``orders``."""
    return measure_stages(modular_stages(orders))


def _in_child(fn, *args):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mirrorcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _append(path: Path, head: dict, run: dict) -> None:
    """Write ``head`` and the runs already in ``path`` plus ``run``."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    path.write_text(json.dumps({**head, "runs": runs + [run]}, indent=2)
                    + "\n")


def main() -> None:
    run = {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
    }
    orders = {}
    for order in ORDERS:
        orders[str(order)] = _in_child(measure, order)
        print(order, orders[str(order)], flush=True)
    stages = _in_child(measure_lattice)
    print("lattice", stages, flush=True)
    modular = _in_child(measure_modular, MODULAR_ORDERS)
    print("modular", modular, flush=True)
    _append(OUT, {"orders": list(ORDERS)}, {**run, "orders": orders})
    _append(LATTICE_OUT, {"batch": LATTICE_BATCH, "seed": LATTICE_SEED},
            {**run, "stages": stages})
    _append(MODULAR_OUT, {"batch": LATTICE_BATCH, "seed": LATTICE_SEED,
                          "orders": list(MODULAR_ORDERS)},
            {**run, "stages": modular})


if __name__ == "__main__":
    main()
