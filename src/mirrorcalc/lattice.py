"""The kappa-dependent L2 inner product on H^2 induced by a cubic form,
the Gram covolume of the integral cohomology lattice, and the rank-11
specialization for the (K3 x elliptic curve)/Z2 family.

Transcendental content lives in an integer power of pi carried
symbolically next to a rational mantissa; the (2pi)^-3 normalization of
the cubic form is absorbed into that exponent, so cubic tensors are
rational.

The exact kernels run on Python ``int``: a rational matrix is scaled
to integers over one common denominator once, determinants use
fraction-free Bareiss elimination on that integer matrix, the L2 Gram
matrix comes from one contraction of the cubic form with kappa, and a
basis change contracts one tensor index at a time.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, List, Mapping, Sequence, Tuple

Vector = Sequence[Fraction]
Triple = Tuple[int, int, int]


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class PiScaled:
    """Exact value mantissa * pi^pi_exponent."""

    mantissa: Fraction
    pi_exponent: int

    def __mul__(self, other: "PiScaled") -> "PiScaled":
        return PiScaled(self.mantissa * other.mantissa,
                        self.pi_exponent + other.pi_exponent)

    def __pow__(self, k: int) -> "PiScaled":
        return PiScaled(self.mantissa ** k, self.pi_exponent * k)

    def inverse(self) -> "PiScaled":
        if not self.mantissa:
            raise ZeroDivisionError("zero mantissa")
        return PiScaled(1 / self.mantissa, -self.pi_exponent)

    def __str__(self):
        return f"{self.mantissa} * pi^{self.pi_exponent}"

    def to_json_dict(self) -> dict:
        return {"mantissa": str(self.mantissa),
                "pi_exponent": self.pi_exponent}


def _rational(x) -> int | Fraction:
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise LatticeError(f"entry {reprlib.repr(x)} is not an int, a "
                       "Fraction or a rational string")


def _integral(rows: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """(D*M, D) for a rational matrix M given as a list of equally long
    rows, D the least common denominator of its entries.

    Raises LatticeError for anything else: a non-list, a ragged
    matrix, or an entry that is not an int, a Fraction or a rational
    string.
    """
    if (not isinstance(rows, (list, tuple))
            or not all(isinstance(row, (list, tuple)) for row in rows)):
        raise LatticeError("expected a matrix given as a list of rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise LatticeError("matrix rows differ in length")
    m = [[_rational(x) for x in row] for row in rows]
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in m], d


def bareiss_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    The entries are scaled to integers over one common denominator D,
    every elimination step divides exactly on int, and the result is
    det(D*M) / D^n.  The 0x0 determinant is 1.
    """
    m, d = _integral(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise LatticeError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot, top = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            row[k + 1:] = [(x * pivot - f * y) // prev
                           for x, y in zip(row[k + 1:], top)]
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1] if n else 1, d ** n)


@dataclass(frozen=True)
class CubicLattice:
    """Integral lattice of rank b2 with a symmetric cubic form and a
    distinguished Kahler-type class kappa (coordinates in the basis).

    The cubic tensor is stored densely and must be totally symmetric.
    """

    rank: int
    cubic: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    kappa: Tuple[Fraction, ...]

    @classmethod
    def from_entries(cls, rank: int,
                     entries: Mapping[Triple, Fraction] | Iterable[
                         Tuple[Triple, Fraction]],
                     kappa: Sequence) -> "CubicLattice":
        """Build from {(i,j,k): value}, or the same as ((i,j,k), value)
        pairs, with each unordered triple given once in any index order.

        The rank and the indices must be ints (not bools); kappa a list
        or tuple; the values and kappa's entries ints, Fractions or
        rational strings.  A triple given twice, in the same or another
        index order, raises LatticeError.
        """
        if type(rank) is not int:
            raise LatticeError(f"rank {reprlib.repr(rank)} is not an integer")
        if not isinstance(kappa, (list, tuple)):
            raise LatticeError(f"kappa {reprlib.repr(kappa)} is not a list")
        kappa = tuple(Fraction(_rational(v)) for v in kappa)
        if len(kappa) != rank:  # before the rank^3 tensor is allocated
            raise LatticeError("dimension mismatch")
        t = [[[Fraction(0)] * rank for _ in range(rank)] for _ in range(rank)]
        seen = set()
        if isinstance(entries, Mapping):
            entries = entries.items()
        for (i, j, k), v in entries:
            if not all(type(x) is int and 0 <= x < rank for x in (i, j, k)):
                raise LatticeError(f"index {reprlib.repr((i, j, k))} is not "
                                   f"an integer triple in range for rank {rank}")
            triple = tuple(sorted((i, j, k)))
            if triple in seen:
                raise LatticeError(f"index triple {triple} given twice")
            seen.add(triple)
            v = Fraction(_rational(v))
            for (a, b, c) in {(i, j, k), (i, k, j), (j, i, k),
                              (j, k, i), (k, i, j), (k, j, i)}:
                t[a][b][c] = v
        return cls(rank=rank,
                   cubic=tuple(tuple(tuple(r) for r in p) for p in t),
                   kappa=kappa)

    def __post_init__(self):
        r = self.rank
        if len(self.kappa) != r or len(self.cubic) != r:
            raise LatticeError("dimension mismatch")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    v = self.cubic[i][j][k]
                    if (v != self.cubic[j][i][k] or v != self.cubic[i][k][j]):
                        raise LatticeError("cubic form is not symmetric")
        if self.c(self.kappa, self.kappa, self.kappa) <= 0:
            raise LatticeError("c(kappa,kappa,kappa) must be positive")

    def c(self, a: Vector, b: Vector, g: Vector) -> Fraction:
        """Trilinear evaluation of the cubic form."""
        total = Fraction(0)
        for i in range(self.rank):
            if not a[i]:
                continue
            for j in range(self.rank):
                if not b[j]:
                    continue
                row = self.cubic[i][j]
                total += a[i] * b[j] * sum(
                    row[k] * g[k] for k in range(self.rank) if g[k])
        return total

    def basis_change(self, U: Sequence[Sequence[int]]) -> "CubicLattice":
        """Lattice in the new basis e'_j = sum_i U[i][j] e_i; kappa is
        the same class, re-expressed via U^-1 by Cramer's rule.
        """
        r = self.rank
        det_u = bareiss_det(U)
        if not det_u:
            raise LatticeError("singular basis-change matrix")
        if len(U) != r:
            raise LatticeError(f"U is {len(U)}x{len(U)}, the rank is {r}")
        # kappa'_j = det(U with column j replaced by kappa) / det U
        kappa_new = [bareiss_det([[*row[:j], k, *row[j + 1:]]
                                  for row, k in zip(U, self.kappa)]) / det_u
                     for j in range(r)]
        t, d = _integral([row for plane in self.cubic for row in plane])
        t = [t[i * r:(i + 1) * r] for i in range(r)]
        u, du = _integral(U)
        cols = list(zip(*u))
        # Each pass contracts the last index with U and moves it to the
        # front; after three passes t[a][b][g] = c(U e_a, U e_b, U e_g).
        for _ in range(3):
            t = [[[sum(map(mul, tij, col)) for tij in ti] for ti in t]
                 for col in cols]
        den = d * du ** 3
        return CubicLattice(rank=r,
                            cubic=tuple(tuple(tuple(Fraction(x, den)
                                                    for x in row)
                                              for row in p) for p in t),
                            kappa=tuple(kappa_new))


@dataclass(frozen=True)
class GramResult:
    """Gram matrix of the integral basis under the L2 pairing (rational
    part; the global pi power is tracked in covolume) and its Gram
    determinant as an exact pi-scaled value.
    """

    gram: Tuple[Tuple[Fraction, ...], ...]
    covolume: PiScaled


def l2_pairing(L: CubicLattice, a: Vector, b: Vector) -> Fraction:
    """<a,b> = (3/2) c(a,k,k) c(b,k,k)/c(k,k,k) - c(a,b,k), k = kappa.

    This is the rational part; the global (2 pi)^-3 scale of the cubic
    form is tracked at the covolume level.
    """
    k = L.kappa
    ckkk = L.c(k, k, k)
    return (Fraction(3, 2) * L.c(a, k, k) * L.c(b, k, k) / ckkk
            - L.c(a, b, k))


def covolume(L: CubicLattice) -> GramResult:
    """Gram determinant of the standard basis under the L2 pairing.

    Each Gram entry carries the suppressed (2 pi)^-3 = 2^-3 pi^-3 scale,
    so the covolume of a rank-r lattice is det(gram) * (2 pi)^(-3r).
    The cubic form is contracted with kappa once, giving the matrix
    M[i][j] = c(e_i,e_j,k), the vector v[i] = c(e_i,k,k) and c(k,k,k);
    then gram = 3/2 v v^T / c(k,k,k) - M.
    """
    r = L.rank
    k = L.kappa
    M = [[sum(map(mul, row, k)) for row in p] for p in L.cubic]
    v = [sum(map(mul, row, k)) for row in M]
    ckkk = sum(map(mul, v, k))
    gram = tuple(tuple(Fraction(3, 2) * vi * vj / ckkk - mij
                       for vj, mij in zip(v, row))
                 for vi, row in zip(v, M))
    det = bareiss_det(gram)
    return GramResult(gram=gram,
                      covolume=PiScaled(det * Fraction(1, 2 ** (3 * r)),
                                        -3 * r))


def _int_pairing(A: Sequence[Sequence], h: Sequence):
    """(A_i, D, c, a, s): a square rational A and an h of its size
    scaled to integers, A_i = D A and h_i = c h, with a = A_i h_i and
    s = h_i^T A_i h_i (so A h = a / (D c) and h^T A h = s / (D c^2)).
    """
    (Ai, d), ((hi,), c) = _integral(A), _integral([h])
    n = len(Ai)
    if any(len(row) != n for row in Ai):
        raise LatticeError("A must be square")
    if len(hi) != n:
        raise LatticeError(f"h has {len(hi)} entries, A is {n}x{n}")
    a = [sum(map(mul, row, hi)) for row in Ai]
    return Ai, d, c, a, sum(map(mul, hi, a))


def rank1_update_det_check(A: Sequence[Sequence[Fraction]],
                           h: Vector) -> bool:
    """True iff det(A - 2 (Ah)(h^T A)/(h^T A h)) = -det(A) exactly,
    for symmetric invertible A and h with h^T A h != 0.

    On A_i = D A, a = A_i h_i and s = h_i^T A_i h_i (see _int_pairing;
    the update does not change when h is scaled), the updated matrix
    times D s is the integer matrix s A_i - 2 a a^T, so the identity
    reads det(s A_i - 2 a a^T) = -s^n det(A_i).
    """
    Ai, _, _, a, s = _int_pairing(A, h)
    det_a = bareiss_det(Ai)
    if not det_a:
        raise LatticeError("A must be invertible")
    if not s:
        raise LatticeError("h^T A h must be nonzero")
    B = [[s * x - 2 * ai * aj for x, aj in zip(row, a)]
         for row, ai in zip(Ai, a)]
    return bareiss_det(B) == -s ** len(Ai) * det_a


def fhsv_covolume(A: Sequence[Sequence[int]],
                  h: Sequence[int]) -> GramResult:
    """Covolume of the rank-11 lattice of the (K3 x E)/Z2 family from
    the rank-10 invariant-lattice Gram matrix A (det A = -2^10) and the
    Kahler vector h (h^T A h > 0).

    Builds the 11x11 L2 Gram per the block formulas: entries
    (2 pi)^-3 [ <e_i,H><e_j,H>/<H,H> - <e_i,e_j>/2 ] on the rank-10
    block, zero mixed column, and (2 pi)^-3 <H,H>/4 in the corner.
    The determinant collapses to <H,H> / (2^35 pi^33).
    """
    Ai, d, c, a, s = _int_pairing(A, h)
    if len(Ai) != 10:
        raise LatticeError("A must be 10x10")
    if any(Ai[i][j] != Ai[j][i] for i in range(10) for j in range(10)):
        raise LatticeError("A must be symmetric")
    if bareiss_det(Ai) != -(2 ** 10) * d ** 10:  # det(D A) = D^10 det A
        raise LatticeError("det A must equal -2^10")
    if s <= 0:
        raise LatticeError("h^T A h must be positive")
    hAh = Fraction(s, d * c * c)

    # <e_i,H><e_j,H>/<H,H> - <e_i,e_j>/2 = (2 a_i a_j - s A_i[i][j]) / (2 D s)
    gram = [[Fraction(2 * ai * aj - s * x, 2 * d * s)
             for x, aj in zip(row, a)] + [Fraction(0)]
            for row, ai in zip(Ai, a)]
    gram.append([Fraction(0)] * 10 + [hAh / 4])
    det = bareiss_det(gram)
    result = GramResult(
        gram=tuple(tuple(r) for r in gram),
        covolume=PiScaled(det * Fraction(1, 2 ** 33), -33))
    expected = PiScaled(hAh * Fraction(1, 2 ** 35), -33)
    if result.covolume != expected:
        raise LatticeError("covolume does not collapse to <H,H>/2^35 pi^33")
    return result


def fhsv_volume(A: Sequence[Sequence[int]], h: Sequence[int]) -> PiScaled:
    """Riemannian volume companion <H,H> / (2^5 pi^3)."""
    _, d, c, _, s = _int_pairing(A, h)
    if s <= 0:
        raise LatticeError("h^T A h must be positive")
    return PiScaled(Fraction(s, d * c * c * 2 ** 5), -3)


def fhsv_constant(volume: PiScaled, covolume: PiScaled) -> PiScaled:
    """Vol^-3 * covolume^-1 * <H,H>^4 from the values of fhsv_volume and
    fhsv_covolume, with <H,H> = 2^5 volume.mantissa."""
    return (volume.inverse() ** 3 * covolume.inverse()
            * PiScaled(2 ** 5 * volume.mantissa, 0) ** 4)


def fhsv_constant_check(A: Sequence[Sequence[int]],
                        h: Sequence[int]) -> PiScaled:
    """fhsv_constant for A and h: independent of h, 2^50 pi^42 exactly."""
    return fhsv_constant(fhsv_volume(A, h), fhsv_covolume(A, h).covolume)


def enriques_invariant_gram() -> List[List[int]]:
    """A concrete rank-10 even lattice with determinant -2^10: the
    hyperbolic plane scaled by 2 plus E8 scaled by -2.
    """
    e8 = [
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, -1],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, -1, 0, 0, 0, 0, 2],
    ]
    out = [[0] * 10 for _ in range(10)]
    out[0][1] = out[1][0] = 2
    for i in range(8):
        for j in range(8):
            out[2 + i][2 + j] = -2 * e8[i][j]
    return out
