"""The kappa-dependent L2 inner product on H^2 induced by a cubic form,
the Gram covolume of the integral cohomology lattice, and the rank-11
specialization for the (K3 x elliptic curve)/Z2 family.

Transcendental content lives in an integer power of pi carried
symbolically next to a rational mantissa; the (2pi)^-3 normalization of
the cubic form is absorbed into that exponent, so cubic tensors are
rational.  Determinants use fraction-free Bareiss elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Vector = Sequence[Fraction]


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


def bareiss_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    Works over Fraction entries; intermediate entries stay controlled
    (for integer input they are integers).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise LatticeError("matrix must be square")
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
                     entries: Dict[Tuple[int, int, int], Fraction],
                     kappa: Sequence) -> "CubicLattice":
        """Build from {(i,j,k): value} given on sorted index triples."""
        t = [[[Fraction(0)] * rank for _ in range(rank)] for _ in range(rank)]
        for (i, j, k), v in entries.items():
            v = Fraction(v)
            for (a, b, c) in {(i, j, k), (i, k, j), (j, i, k),
                              (j, k, i), (k, i, j), (k, j, i)}:
                t[a][b][c] = v
        return cls(rank=rank,
                   cubic=tuple(tuple(tuple(r) for r in p) for p in t),
                   kappa=tuple(Fraction(v) for v in kappa))

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
        the same class, re-expressed via U^-1.
        """
        r = self.rank
        t = [[[Fraction(0)] * r for _ in range(r)] for _ in range(r)]
        cols = [[Fraction(U[i][j]) for i in range(r)] for j in range(r)]
        for a in range(r):
            for b in range(r):
                for g in range(r):
                    t[a][b][g] = self.c(cols[a], cols[b], cols[g])
        kappa_new = _solve_linear(U, self.kappa)
        return CubicLattice(rank=r,
                            cubic=tuple(tuple(tuple(row) for row in p)
                                        for p in t),
                            kappa=tuple(kappa_new))


def _solve_linear(U: Sequence[Sequence], rhs: Vector) -> List[Fraction]:
    """Solve U x = rhs exactly by Gaussian elimination."""
    n = len(rhs)
    m = [[Fraction(U[i][j]) for j in range(n)] + [Fraction(rhs[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            raise LatticeError("singular basis-change matrix")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


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
    """
    r = L.rank
    basis = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    gram = tuple(tuple(l2_pairing(L, basis[i], basis[j]) for j in range(r))
                 for i in range(r))
    det = bareiss_det(gram)
    return GramResult(gram=gram,
                      covolume=PiScaled(det * Fraction(1, 2 ** (3 * r)),
                                        -3 * r))


def _h_pairing(A: Sequence[Sequence], h: Sequence):
    """(A h, h^T A h), exactly, for a square A and h of its size."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise LatticeError("A must be square")
    if len(h) != n:
        raise LatticeError(f"h has {len(h)} entries, A is {n}x{n}")
    hf = [Fraction(x) for x in h]
    Ah = [sum(Fraction(a) * x for a, x in zip(row, hf)) for row in A]
    return Ah, sum(x * y for x, y in zip(hf, Ah))


def rank1_update_det_check(A: Sequence[Sequence[Fraction]],
                           h: Vector) -> bool:
    """True iff det(A - 2 (Ah)(h^T A)/(h^T A h)) = -det(A) exactly,
    for symmetric invertible A and h with h^T A h != 0.
    """
    n = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    det_a = bareiss_det(A)
    if not det_a:
        raise LatticeError("A must be invertible")
    Ah, hAh = _h_pairing(A, h)
    if not hAh:
        raise LatticeError("h^T A h must be nonzero")
    B = [[A[i][j] - 2 * Ah[i] * Ah[j] / hAh for j in range(n)]
         for i in range(n)]
    return bareiss_det(B) == -det_a


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
    n = len(A)
    if n != 10 or any(len(r) != 10 for r in A):
        raise LatticeError("A must be 10x10")
    Af = [[Fraction(x) for x in row] for row in A]
    if any(Af[i][j] != Af[j][i] for i in range(10) for j in range(10)):
        raise LatticeError("A must be symmetric")
    if bareiss_det(Af) != -(2 ** 10):
        raise LatticeError("det A must equal -2^10")
    Ah, hAh = _h_pairing(Af, h)
    if hAh <= 0:
        raise LatticeError("h^T A h must be positive")

    gram = [[Ah[i] * Ah[j] / hAh - Af[i][j] / 2 for j in range(10)]
            for i in range(10)]
    for row in gram:
        row.append(Fraction(0))
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
    _, hAh = _h_pairing(A, h)
    if hAh <= 0:
        raise LatticeError("h^T A h must be positive")
    return PiScaled(hAh / 2 ** 5, -3)


def fhsv_constant_check(A: Sequence[Sequence[int]],
                        h: Sequence[int]) -> PiScaled:
    """Vol^-3 * covolume^-1 * <H,H>^4, which is independent of h and
    equals 2^50 pi^42 exactly.
    """
    _, hAh = _h_pairing(A, h)
    vol = fhsv_volume(A, h)
    cov = fhsv_covolume(A, h).covolume
    return vol.inverse() ** 3 * cov.inverse() * PiScaled(hAh, 0) ** 4


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
