"""Inputs, jobs and output checks of the three benchmark workloads.

Every input comes from the ``random.Random`` handed to a ``draw``
function, so one seed always gives the same inputs.  A job or check
returns the list of problems it found; an empty list means every
output was right.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mirrorcalc import gw, lattice, modular
from mirrorcalc.lattice import PiScaled

# -- quintic-gw: cold `python -m mirrorcalc.cli extract-gw --order 40` --

QUINTIC_ORDER = 40
QUINTIC_ARGV = ("extract-gw", "--order", str(QUINTIC_ORDER))

# Genus-zero Gromov-Witten invariants N0(1..4) of the quintic
# (Candelas, de la Ossa, Green, Parkes 1991).
GENUS0_ANCHORS = {1: Fraction(2875), 2: Fraction(4876875, 8),
                  3: Fraction(8564575000, 27),
                  4: Fraction(15517926796875, 64)}
# Genus-one instanton numbers n1(1..5) of the quintic
# (Bershadsky, Cecotti, Ooguri, Vafa 1993).
GENUS1_ANCHORS = {1: 0, 2: 0, 3: 609250, 4: 3721431625, 5: 12129909700200}


def check_quintic(payload: dict,
                  order: int = QUINTIC_ORDER) -> tuple[list[str], int]:
    """Problems in an ``extract-gw`` payload, and how many genus-one
    anchors its ``n1`` column misses.

    Genus zero is a hard check: the anchors N0(1..4), and integral
    instanton numbers from multicover inversion of the whole ``n0``
    column.  Genus-one misses are only counted.
    """
    try:
        n0 = {int(d): Fraction(v) for d, v in payload["n0"].items()}
        n1 = {int(d): Fraction(v) for d, v in payload["n1"].items()}
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return [f"malformed payload: {exc!r}"], len(GENUS1_ANCHORS)
    degrees = list(range(1, order + 1))
    if (payload.get("max_degree") != order or sorted(n0) != degrees
            or sorted(n1) != degrees):
        return [f"payload does not cover degrees 1..{order}"], \
            len(GENUS1_ANCHORS)
    problems = [f"N0({d}) = {n0[d]}, expected {want}"
                for d, want in GENUS0_ANCHORS.items() if n0[d] != want]
    instanton: dict[int, int] = {}
    for d in degrees:
        n = n0[d] - sum(Fraction(instanton[d // k], k ** 3)
                        for k in range(2, d + 1) if d % k == 0)
        if n.denominator != 1:
            problems.append(f"instanton number at degree {d} is {n}, "
                            "not an integer")
            break
        instanton[d] = n.numerator
    misses = sum(n1.get(d) != want for d, want in GENUS1_ANCHORS.items())
    return problems, misses


# -- eta-lambert: random GW tables through both genus-one forms --------

ETA_DEGREE = 24


def draw_gw_table(rng: random.Random) -> gw.GWTable:
    """N0 and N1 at degrees 1..24, each p/q with p in [-400, 400] and
    q in [1, 12]."""
    def rand_frac():
        return Fraction(rng.randint(-400, 400), rng.randint(1, 12))
    n0 = {d: rand_frac() for d in range(1, ETA_DEGREE + 1)}
    n1 = {d: rand_frac() for d in range(1, ETA_DEGREE + 1)}
    return gw.GWTable.from_maps(n0, n1)


def eta_lambert_job(table: gw.GWTable) -> list[str]:
    problems = []
    G = gw.lambert_series(table, table.max_degree)
    if gw.eta_product_log_derivative(table, table.max_degree) != G:
        problems.append("Lambert series differs from the eta-product "
                        "log-derivative")
    if gw.extract_n1(G, dict(table.n0)).n1 != table.n1:
        problems.append("extract_n1 does not recover N1")
    return problems


# -- lattice-modular: Bareiss, covolumes, Delta and Petersson ----------

MATRIX_SIZE = 12
RANK1_DRAWS = 16
CUBIC_DRAWS = 2
DELTA_ORDER = 150
PETERSSON_DRAWS = 1
TAU_IM_RANGE = (0.01, 2.0)
FHSV_CONSTANT = PiScaled(Fraction(2 ** 50), 42)
# Ramanujan tau(1..5), the coefficients of Delta = q prod (1 - q^n)^24.
TAU_ANCHORS = (1, -24, 252, -1472, 4830)


@dataclass(frozen=True)
class LatticeModularInput:
    rank1: tuple          # (A, h): symmetric invertible A, h^T A h != 0
    cubic: tuple          # (CubicLattice, unimodular U)
    fhsv_h: tuple         # Kahler vector with h^T A h > 0
    taus: tuple           # points of the strip |Re tau| <= 1/2


def _quadratic(A, h) -> Fraction:
    return sum(h[i] * A[i][j] * h[j]
               for i in range(len(h)) for j in range(len(h)))


def draw_rank1(rng: random.Random) -> tuple:
    """A random symmetric 12x12 matrix with entries p/q, p in [-5, 5],
    q in [1, 3], and h in [-4, 4]^12, redrawn until they meet the
    preconditions of ``rank1_update_det_check``."""
    n = MATRIX_SIZE
    while True:
        A = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 3))
        h = [rng.randint(-4, 4) for _ in range(n)]
        if _quadratic(A, h) and lattice.bareiss_det(A):
            return A, h


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            U[i][k] += c * U[j][k]
    return U


def draw_cubic(rng: random.Random) -> tuple:
    """A rank-3 or rank-4 lattice with cubic entries in [-3, 3] and
    kappa in [-2, 2]^r, redrawn until c(kappa, kappa, kappa) > 0, and a
    random unimodular basis change."""
    rank = rng.choice((3, 4))
    while True:
        entries = {(i, j, k): rng.randint(-3, 3) for i in range(rank)
                   for j in range(i, rank) for k in range(j, rank)}
        kappa = [rng.randint(-2, 2) for _ in range(rank)]
        try:
            L = lattice.CubicLattice.from_entries(rank, entries, kappa)
        except lattice.LatticeError:
            continue
        return L, random_unimodular(rng, rank)


def draw_fhsv_h(rng: random.Random) -> tuple:
    A = lattice.enriques_invariant_gram()
    while True:
        h = tuple(rng.randint(-3, 3) for _ in range(10))
        if _quadratic(A, h) > 0:
            return h


def draw_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(*TAU_IM_RANGE))


def draw_lattice_modular(rng: random.Random) -> LatticeModularInput:
    return LatticeModularInput(
        rank1=tuple(draw_rank1(rng) for _ in range(RANK1_DRAWS)),
        cubic=tuple(draw_cubic(rng) for _ in range(CUBIC_DRAWS)),
        fhsv_h=draw_fhsv_h(rng),
        taus=tuple(draw_tau(rng) for _ in range(PETERSSON_DRAWS)))


def check_delta(coeffs) -> list[str]:
    """Delta's q-expansion: tau(1..5) and tau(mn) = tau(m) tau(n) for
    coprime m, n in range."""
    n = len(coeffs) - 1
    problems = []
    if coeffs[0] != 0 or tuple(coeffs[1:6]) != TAU_ANCHORS:
        problems.append(f"Delta starts {list(coeffs[:6])}, expected "
                        f"[0, *{list(TAU_ANCHORS)}]")
    for a in range(2, n + 1):
        for b in range(a + 1, n // a + 1):
            if math.gcd(a, b) == 1 and coeffs[a * b] != coeffs[a] * coeffs[b]:
                problems.append(f"tau({a * b}) != tau({a}) tau({b})")
    return problems


def check_petersson(tau: complex) -> list[str]:
    """S-invariance of (Im tau)^12 |Delta|^2, to within both values'
    own error bounds plus 1e-10 (relative)."""
    here = modular.petersson_delta(tau)
    there = modular.petersson_delta(-1 / tau)
    slack = (here.error_bound + there.error_bound + 1e-10) * abs(here.norm_sq)
    if not abs(here.norm_sq - there.norm_sq) <= slack:
        return [f"S-invariance fails at tau = {tau}: {here.norm_sq!r} "
                f"vs {there.norm_sq!r}"]
    return []


def lattice_modular_job(inp: LatticeModularInput) -> list[str]:
    problems = []
    for A, h in inp.rank1:
        if not lattice.rank1_update_det_check(A, h):
            problems.append("rank-1 update did not negate the determinant")
    for L, U in inp.cubic:
        if (lattice.covolume(L.basis_change(U)).covolume
                != lattice.covolume(L).covolume):
            problems.append("covolume changed under a unimodular basis change")
    A = lattice.enriques_invariant_gram()
    expected = PiScaled(_quadratic(A, inp.fhsv_h) / 2 ** 35, -33)
    if lattice.fhsv_covolume(A, inp.fhsv_h).covolume != expected:
        problems.append("FHSV covolume is not <H,H>/(2^35 pi^33)")
    if lattice.fhsv_constant_check(A, inp.fhsv_h) != FHSV_CONSTANT:
        problems.append("FHSV constant is not 2^50 pi^42")
    problems += check_delta(modular.delta_series(DELTA_ORDER).coeffs)
    for tau in inp.taus:
        problems += check_petersson(tau)
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    size: dict                                  # input size, for provenance
    draw: Callable[[random.Random], object]
    job: Callable[[object], list[str]] | None   # None: a cold CLI process
    # Reference computations timed before and after each job, about an
    # eighth of a job's time on each side.
    ref_calls: int


WORKLOADS = {w.name: w for w in (
    Workload("quintic-gw",
             {"argv": list(QUINTIC_ARGV), "order": QUINTIC_ORDER},
             lambda rng: QUINTIC_ARGV, None, ref_calls=20),
    Workload("eta-lambert",
             {"max_degree": ETA_DEGREE, "series_order": ETA_DEGREE,
              "numerators": [-400, 400], "denominators": [1, 12]},
             draw_gw_table, eta_lambert_job, ref_calls=2),
    Workload("lattice-modular",
             {"rank1_draws": RANK1_DRAWS, "matrix_size": MATRIX_SIZE,
              "cubic_draws": CUBIC_DRAWS, "cubic_ranks": [3, 4],
              "fhsv_draws": 1, "delta_order": DELTA_ORDER,
              "petersson_draws": PETERSSON_DRAWS, "petersson_terms": 200,
              "tau_im_range": list(TAU_IM_RANGE)},
             draw_lattice_modular, lattice_modular_job, ref_calls=5),
)}
