"""Time the BCOV pipeline stage by stage over a fixed sweep of orders,
and the lattice, modular and genus-one layers on fixed inputs.

    python3 scripts/order_sweep.py

The sweep is REPEATS passes over its jobs: each order in ORDERS, then
each layer group.  Every job runs once per pass in a freshly spawned
process on the ``src/`` next to this script, which warms up and then
takes one sample, so a slow spell of the machine falls on one sample of
each job rather than on every sample of one.  Each stage key holds the
median over the passes and ``<stage>_quartiles`` the lower and upper
quartiles.

Each order runs through the ``kernels`` calls that ``extract-gw`` makes,
one stage each: ``q_chart``, ``f1_log_derivative`` (``log_derivatives``,
the q-chart log-derivatives that both genus stages read, and
``f1_log_derivative``), ``genus0_pipeline`` (``genus_zero`` and
``instanton_numbers``) and ``extract_gv`` (``extract_n1`` and
``extract_gv``), after one warm-up run of the pipeline.  Per order it
also records the largest bit length of a coefficient of the integral
x(q) (``max_coeff_bits``, as the benchmark's traced runs define it) and
the largest peak RSS of its processes.

The lattice layer runs on LATTICE_BATCH inputs per stage drawn from
LATTICE_SEED: the two elimination kernels at each rank in LATTICE_RANKS,
``_det_symmetric`` on the upper triangle of symmetric int matrices
(``_triangle`` included, as ``bareiss_det`` calls it) and
``_det_general`` on general ones, ``covolume`` at rank 4,
``fhsv_covolume``, ``CubicLattice.basis_change`` at rank 4 by a
unimodular U (3n row additions, each by c in [-2, 2]), and
``rank1_update_det_check`` on 12x12 inputs drawn by perfbench's own
``workloads.draw_rank1``, the ``lattice-modular`` draws.  The basis
changes, then the rank-one inputs, are drawn after every other stage's
inputs, so that adding a stage moved none of them.  ``covolume`` also
runs on LATTICE_BATCH copies of the rank-60 diagonal cubic (c(e_i, e_i,
e_i) = 1, kappa all ones), whose Gram (3J - 120 I)/120 has a zero leading
40x40 minor, so the symmetric kernel hands its last 22x22 block to the
general one; the stage draws no random numbers.  Each lattice is built
by ``from_entries`` outside the timed calls.  Each group takes one warm-up
pass over its stages, then one sample: the mean time per call over the
batch, in microseconds.

The modular layer: ``eta_series`` and ``delta_series`` LATTICE_BATCH
times at each order in MODULAR_ORDERS, and ``petersson_delta`` once at
each of LATTICE_BATCH points tau of the strip |Re tau| <= 1/2,
0.01 <= Im tau <= 2, drawn from LATTICE_SEED.

The genus-one layer: ``lambert_series``, ``eta_product_log_derivative``
and ``extract_n1`` LATTICE_BATCH times at each order in GENUS_ONE_ORDERS,
on one table drawn from LATTICE_SEED as perfbench's ``eta-lambert`` draws
it, cut to the order.  Each form runs on a fresh ``GWTable`` of the same
columns, so that each call pays the table's scaling.

The runs are appended to ``BENCH_order_sweep.json``,
``BENCH_lattice.json``, ``BENCH_modular.json`` and
``BENCH_genus_one.json`` at the repository root with their UTC start
time and the SHA-256 of ``src/mirrorcalc``.  Every run is kept, oldest
first, so repeated runs of one source tree show the machine's run-to-run
spread.
"""

import hashlib
import importlib.util
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
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # inherited by the spawned children
OUT = ROOT / "BENCH_order_sweep.json"
LATTICE_OUT = ROOT / "BENCH_lattice.json"
MODULAR_OUT = ROOT / "BENCH_modular.json"
GENUS_ONE_OUT = ROOT / "BENCH_genus_one.json"
ORDERS = (10, 30, 50, 100, 200, 300, 500)
REPEATS = 5
LATTICE_RANKS = (4, 8, 12, 16)
LATTICE_BATCH = 20
LATTICE_SEED = 7
MODULAR_ORDERS = (10, 30, 50, 100, 150)
GENUS_ONE_ORDERS = (10, 30, 50, 100)


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
    """One sample at ``order`` in this process, after a warm-up run: each
    stage's wall time in seconds, max_coeff_bits and peak RSS in MiB."""
    _pipeline(order)
    times, bits = _pipeline(order)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**times, "max_coeff_bits": bits, "peak_rss_mib": round(rss, 2)}


def summarize_pipeline(samples: list) -> dict:
    """``summarize`` on the stage times of ``measure`` samples, with the
    last sample's max_coeff_bits and the largest peak RSS."""
    extra = ("max_coeff_bits", "peak_rss_mib")
    return {**summarize([{k: v for k, v in s.items() if k not in extra}
                         for s in samples], 6),
            "max_coeff_bits": samples[-1]["max_coeff_bits"],
            "peak_rss_mib": max(s["peak_rss_mib"] for s in samples)}


def perfbench_workloads():
    """perfbench/workloads.py, loaded by path as ``perfbench_workloads``."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


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

    def unimodular(n):
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        return U

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
            lambda m: lattice._det_symmetric(lattice._triangle(m)),
            [(symmetric(n),) for _ in batch])
        stages[f"det_general_r{n}_us"] = (lattice._det_general, [(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)],)
            for _ in batch])
    stages["covolume_r4_us"] = (
        lattice.covolume, [(cubic_lattice(4),) for _ in batch])
    stages["covolume_diag_r60_us"] = (lattice.covolume, [(
        lattice.CubicLattice.from_entries(
            60, {(i, i, i): 1 for i in range(60)}, [1] * 60),) for _ in batch])
    A = lattice.enriques_invariant_gram()
    stages["fhsv_covolume_us"] = (
        lattice.fhsv_covolume, [(A, kahler(A)) for _ in batch])
    stages["basis_change_r4_us"] = (lattice.CubicLattice.basis_change, [
        (cubic_lattice(4), unimodular(4)) for _ in batch])
    workloads = perfbench_workloads()
    stages[f"rank1_update_r{workloads.MATRIX_SIZE}_us"] = (
        lattice.rank1_update_det_check,
        [workloads.draw_rank1(rng) for _ in batch])
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


def genus_one_stages(orders) -> dict:
    """{stage: (function, its LATTICE_BATCH argument tuples)}: both
    genus-one forms and ``extract_n1`` at each order, on N0 and N1 = p/q,
    p in [-400, 400], q in [1, 12], at degrees 1..max(orders), drawn from
    LATTICE_SEED and cut to the order.  Each form is called on a fresh
    ``GWTable`` of the same columns; ``extract_n1`` reads the Lambert
    series of the table."""
    from mirrorcalc import gw

    rng = random.Random(LATTICE_SEED)
    top = max(orders)
    n0, n1 = ({d: Fraction(rng.randint(-400, 400), rng.randint(1, 12))
               for d in range(1, top + 1)} for _ in range(2))

    def on_fresh_table(form):
        return lambda n0, n1, n: form(gw.GWTable(n, n0, n1), n)

    stages = {}
    for n in orders:
        cut = [{d: col[d] for d in range(1, n + 1)} for col in (n0, n1)]
        for form in (gw.lambert_series, gw.eta_product_log_derivative):
            stages[f"{form.__name__}_o{n}_us"] = (
                on_fresh_table(form), [(*cut, n)] * LATTICE_BATCH)
        G = gw.lambert_series(gw.GWTable(n, *cut), n)
        stages[f"extract_n1_o{n}_us"] = (
            gw.extract_n1, [(G, cut[0])] * LATTICE_BATCH)
    return stages


def measure_stages(stages: dict) -> dict:
    """One sample in this process after a warm-up pass: the mean time
    per call over each stage's batch, in microseconds."""

    def sample():
        times = {}
        for name, (fn, args) in stages.items():
            start = time.perf_counter()
            for a in args:
                fn(*a)
            times[name] = (time.perf_counter() - start) / len(args) * 1e6
        return times

    sample()
    return sample()


def measure_lattice() -> dict:
    """``measure_stages`` on the lattice stages."""
    return measure_stages(lattice_stages())


def measure_modular(orders) -> dict:
    """``measure_stages`` on the modular stages at ``orders``."""
    return measure_stages(modular_stages(orders))


def measure_genus_one(orders) -> dict:
    """``measure_stages`` on the genus-one stages at ``orders``."""
    return measure_stages(genus_one_stages(orders))


def _in_child(fn, *args):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def _passes(jobs: dict) -> dict:
    """{job: its REPEATS samples} for jobs {job: (function, *args)}: one
    pass over all the jobs after another, each job in a fresh child."""
    samples = {job: [] for job in jobs}
    for _ in range(REPEATS):
        for job, (fn, *args) in jobs.items():
            samples[job].append(_in_child(fn, *args))
    return samples


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
    samples = _passes({
        **{order: (measure, order) for order in ORDERS},
        "lattice": (measure_lattice,),
        "modular": (measure_modular, MODULAR_ORDERS),
        "genus_one": (measure_genus_one, GENUS_ONE_ORDERS)})
    orders = {str(order): summarize_pipeline(samples[order])
              for order in ORDERS}
    stages, modular, genus_one = (summarize(samples[group], 2) for group in
                                  ("lattice", "modular", "genus_one"))
    for name, row in [*orders.items(), ("lattice", stages),
                      ("modular", modular), ("genus_one", genus_one)]:
        print(name, row, flush=True)
    _append(OUT, {"orders": list(ORDERS)}, {**run, "orders": orders})
    _append(LATTICE_OUT, {"batch": LATTICE_BATCH, "seed": LATTICE_SEED},
            {**run, "stages": stages})
    _append(MODULAR_OUT, {"batch": LATTICE_BATCH, "seed": LATTICE_SEED,
                          "orders": list(MODULAR_ORDERS)},
            {**run, "stages": modular})
    _append(GENUS_ONE_OUT, {"batch": LATTICE_BATCH, "seed": LATTICE_SEED,
                            "orders": list(GENUS_ONE_ORDERS)},
            {**run, "stages": genus_one})


if __name__ == "__main__":
    main()
