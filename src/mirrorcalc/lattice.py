"""The kappa-dependent L2 inner product on H^2 induced by a cubic form,
the Gram covolume of the integral cohomology lattice, and the rank-11
specialization for the (K3 x elliptic curve)/Z2 family.

Transcendental content lives in an integer power of pi carried
symbolically next to a rational mantissa; the (2pi)^-3 normalization of
the cubic form is absorbed into that exponent, so cubic tensors are
rational.

The exact kernels run on Python ``int``, each input read once over one
common denominator; determinants are two-step fraction-free Bareiss
elimination (Math. Comp. 22, 1968: one exact division per entry per two
pivots).  A symmetric matrix (every Gram matrix here, A and its rank-1
update) is held and eliminated as its reversed upper-triangle rows, half
the square that a basis change and its Cramer matrices take.  The Gram
matrix is one integer contraction of the cubic form with kappa, a basis
change contracts one index at a time, and Fractions are built on read.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations
from math import gcd, prod
from operator import mul
from typing import Iterable, List, Mapping, Sequence, Tuple

from .inputs import exact, scaled

Vector = Sequence[Fraction]
Triple = Tuple[int, int, int]


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class PiScaled:
    """Exact value mantissa * pi^pi_exponent."""

    mantissa: Fraction
    pi_exponent: int

    def __str__(self):
        return f"{self.mantissa} * pi^{self.pi_exponent}"

    def to_json_dict(self) -> dict:
        return {"mantissa": str(self.mantissa),
                "pi_exponent": self.pi_exponent}


def _entry(x) -> Fraction:
    """x by ``inputs.exact``, its refusal raised as LatticeError."""
    try:
        return exact(x)
    except ValueError:
        raise LatticeError(f"entry {reprlib.repr(x)} is not an int, a "
                           "Fraction or a rational string") from None


def _integral(rows: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """(D*M, D) for a rational matrix M given as a list of equally long
    rows, D the least common denominator of its entries: all-int rows
    are copied with D = 1, ints and Fractions go to ``inputs.scaled``,
    and other entries to _entry first.

    Raises LatticeError for anything else: a non-list, a ragged
    matrix, or an entry that is not an int, a Fraction or a rational
    string.
    """
    if (not isinstance(rows, (list, tuple))
            or not all(isinstance(row, (list, tuple)) for row in rows)):
        raise LatticeError("expected a matrix given as a list of rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise LatticeError("matrix rows differ in length")
    flat = list(chain.from_iterable(rows))
    kinds = set(map(type, flat))
    if kinds <= {int}:
        return list(map(list, rows)), 1
    m, d = scaled(flat if kinds <= {int, Fraction} else map(_entry, flat))
    w = len(rows[0])
    return [m[i * w:(i + 1) * w] for i in range(len(rows))], d


def _symmetric(m: Sequence[Sequence[int]]) -> bool:
    """True iff m is a list of list rows equal to its transpose."""
    return m == [*map(list, zip(*m))]


def _triangle(m: Sequence[Sequence]) -> List[list]:
    """The upper-triangle rows m[i][i:] of a square m, each reversed."""
    return [row[:i - len(m) - 1:-1] for i, row in enumerate(m)]


def _square(u: Sequence[Sequence]) -> Tuple[tuple, ...]:
    """The symmetric matrix, tuple rows, whose _triangle is u."""
    r = range(len(u))
    return tuple(tuple(u[min(i, j)][~abs(i - j)] for j in r) for i in r)


def _det_general(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix by two-step fraction-free
    Bareiss elimination.  Each pass takes pivot rows (a, b, y1..), a != 0,
    and (c, d, y2..), c0 = (a d - b c) / prev != 0, and replaces each other
    row (p, q, x..) by (x c0 + y1 e1 + y2 e2) / prev, e1 = (c q - d p) / prev,
    e2 = (b p - a q) / prev: one exact division per entry per two pivots,
    prev the last c0.  With no such (c, d) the first two columns are
    proportional, so the determinant is 0 and no one-step pass is needed."""
    sign = prev = 1
    while len(m) > 1:
        for i, (a, b, *y1) in enumerate(m):
            if a:
                break
        else:
            return 0
        rest = m[:i] + m[i + 1:]
        for j, (c, d, *y2) in enumerate(rest):
            if c0 := a * d - b * c:
                break
        else:
            return 0
        sign *= (-1) ** (i + j)  # row i to the top, row j of rest second
        c0 //= prev
        m = [[(x * c0 + u * e1 + w * e2) // prev
              for x, u, w in zip(row, y1, y2)]
             for p, q, *row in rest[:j] + rest[j + 1:]
             for e1, e2 in [((c * q - d * p) // prev, (b * p - a * q) // prev)]]
        prev = c0
    return sign * (m[0][0] if m else prev)


def _det_symmetric(u: Sequence[Sequence[int]], d: int = 1) -> int:
    """det m / d^(n-1) for the n x n symmetric int m whose _triangle is
    u, by the passes of _det_general from prev = d, pivot rows (a, b, p..)
    and (b, e, q..) first: row i becomes (x c0 + p_j e1_i + q_j e2_i) /
    prev, symmetric again; ending on its diagonal, it zips with the tails
    of p and q it needs.  At a leading minor a e - b^2 = 0 the block T
    left (bordered minors of m) goes to _det_general, and the result is
    det T / prev^(len T - 1) (Sylvester).  0x0 gives d.

    Precondition: d != 0 and every (k+1)-minor of m is divisible by d^k.
    After k one-step passes the entries are those minors over d^k, so
    every division is exact.  d = 1 always qualifies, and so does d = s
    for m = s X - 2 a a^T on int X and a: each (k+1)-square block has
    det(s Y - 2 v w^T) = s^(k+1) det Y - 2 s^k w^T adj(Y) v."""
    prev = d
    while len(u) > 1:
        (*p, b, a), (*q, e) = u[0], u[1]
        c0 = a * e - b * b
        if not c0:
            return _det_general(_square(u)) // prev ** (len(u) - 1)
        c0 //= prev
        u = [[(x * c0 + pj * e1 + qj * e2) // prev
              for x, pj, qj in zip(row, p, q)]
             for row, pk, qk in zip(u[2:], reversed(p), reversed(q))
             for e1, e2 in [((b * qk - e * pk) // prev,
                             (b * pk - a * qk) // prev)]]
        prev = c0
    return u[0][0] if u else prev


def bareiss_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant det(D*M) / D^n, D the lcd of M's entries; D*M is
    eliminated on its upper triangle when symmetric.  0x0 gives 1."""
    m, d = _integral(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise LatticeError("matrix must be square")
    det = _det_symmetric(_triangle(m)) if _symmetric(m) else _det_general(m)
    return Fraction(det, d ** n)


def _content(den: int, ints: Iterable[int]) -> int:
    """gcd(den, *ints) with the sign of den != 0: dividing den and each of
    ints by it leaves them in lowest terms over a positive denominator."""
    return gcd(den, *ints) * (-1 if den < 0 else 1)


@dataclass(frozen=True)
class CubicLattice:
    """Integral lattice of rank b2 with a symmetric cubic form and a
    distinguished Kahler-type class kappa (coordinates in the basis).

    The dense, totally symmetric cubic tensor is held as int tuples t
    over d and kappa as k over dk, each pair in lowest terms; ``cubic``
    and ``kappa`` build their Fractions on each read.  Build a lattice
    with from_entries; the constructor trusts its arguments.
    """

    rank: int
    t: Tuple[Tuple[Tuple[int, ...], ...], ...]
    d: int
    k: Tuple[int, ...]
    dk: int

    @property
    def cubic(self) -> Tuple[Tuple[Tuple[Fraction, ...], ...], ...]:
        return tuple(tuple(tuple(Fraction(x, self.d) for x in row)
                           for row in p) for p in self.t)

    @property
    def kappa(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.dk) for x in self.k)

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
        index order, or c(kappa,kappa,kappa) <= 0 raises LatticeError.
        """
        if type(rank) is not int:
            raise LatticeError(f"rank {reprlib.repr(rank)} is not an integer")
        if not isinstance(kappa, (list, tuple)):
            raise LatticeError(f"kappa {reprlib.repr(kappa)} is not a list")
        k, dk = scaled([_entry(v) for v in kappa])
        if len(k) != rank:  # before the rank^3 tensor is allocated
            raise LatticeError("dimension mismatch")
        seen = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j, l), v in items:
            if not all(type(x) is int and 0 <= x < rank for x in (i, j, l)):
                raise LatticeError(f"index {reprlib.repr((i, j, l))} is not "
                                   f"an integer triple in range for rank {rank}")
            triple = tuple(sorted((i, j, l)))
            if triple in seen:
                raise LatticeError(f"index triple {triple} given twice")
            seen[triple] = _entry(v)
        values, d = scaled(seen.values())
        t = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
        for (i, j, l), v in zip(seen, values):
            for a, b, c in permutations((i, j, l)):
                t[a][b][c] = v
        L = cls(rank, tuple(tuple(map(tuple, p)) for p in t), d, tuple(k), dk)
        if L.c(k, k, k) <= 0:  # dk^3 c(kappa,kappa,kappa)
            raise LatticeError("c(kappa,kappa,kappa) must be positive")
        return L

    def c(self, a: Vector, b: Vector, g: Vector) -> Fraction:
        """Trilinear evaluation of the cubic form."""
        r = range(self.rank)
        return Fraction(sum(a[i] * b[j] * sum(map(mul, self.t[i][j], g))
                            for i in r if a[i] for j in r if b[j]), self.d)

    def basis_change(self, U: Sequence[Sequence[int]]) -> "CubicLattice":
        """Lattice in the new basis e'_j = sum_i U[i][j] e_i; kappa is
        the same class, re-expressed via U^-1 by Cramer's rule.  The
        result is symmetric with the same c(kappa,kappa,kappa), unchecked.
        """
        r = self.rank
        u, du = _integral(U)
        if len(u) != r or any(len(row) != r for row in u):
            raise LatticeError(f"U must be square, {r}x{r}: the rank is {r}")
        det_u = _det_general(u)
        if not det_u:
            raise LatticeError("singular basis-change matrix")
        # kappa'_j = det(U with column j replaced by kappa) / det U, which
        # on U = u/du and kappa = k/dk is det(u, column j := k) du / (det u dk)
        k = [_det_general([[*row[:j], kj, *row[j + 1:]]
                           for row, kj in zip(u, self.k)]) * du
             for j in range(r)]
        t, cols = self.t, list(zip(*u))
        # Each pass contracts the last index with U and moves it to the
        # front; after three passes t[a][b][g] = c(U e_a, U e_b, U e_g).
        for _ in range(3):
            t = [[[sum(map(mul, tij, col)) for tij in ti] for ti in t]
                 for col in cols]
        d, dk = self.d * du ** 3, det_u * self.dk
        g, gk = _content(d, chain(*chain(*t))), _content(dk, k)
        return CubicLattice(r, tuple(tuple(tuple(x // g for x in row)
                                           for row in p) for p in t), d // g,
                            tuple(x // gk for x in k), dk // gk)


@dataclass(frozen=True)
class GramResult:
    """Gram matrix of the integral basis under the L2 pairing (rational
    part; the global pi power is tracked in covolume), kept as an int
    _triangle over a denominator per row in lowest terms, ``gram``
    building its Fractions on each read; and its Gram determinant as an
    exact pi-scaled value."""

    rows: Tuple[Tuple[int, ...], ...]
    dens: Tuple[int, ...]
    covolume: PiScaled

    @property
    def gram(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return _square([[Fraction(x, e) for x in row]
                        for row, e in zip(self.rows, self.dens)])


def _gram_result(u: List[List[int]], dens: List[int]) -> GramResult:
    """The symmetric Gram matrix whose _triangle row i is u[i] over
    dens[i] > 0, and its covolume det * (2 pi)^(-3r), r = len(u)."""
    r, g = len(u), [_content(e, row) for row, e in zip(u, dens)]
    rows = tuple(tuple(x // k for x in row) for row, k in zip(u, g))
    return GramResult(rows, tuple(e // k for e, k in zip(dens, g)), PiScaled(
        Fraction(_det_symmetric(u), prod(dens) * 8 ** r), -3 * r))


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
    then gram = 3/2 v v^T / c(k,k,k) - M.  On the tensor t/d and kappa
    k/dk that is N / (2 c d dk), N = 3 v v^T - 2 c M, all on int.
    """
    M = [[sum(map(mul, row, L.k)) for row in p] for p in L.t]
    v = [sum(map(mul, row, L.k)) for row in M]
    c = sum(map(mul, v, L.k))
    N = [[3 * vi * vj - 2 * c * mij for vj, mij in zip(v[::-1], row)]
         for vi, row in zip(v, _triangle(M))]
    return _gram_result(N, [2 * c * L.d * L.dk] * L.rank)


def _int_pairing(A: Sequence[Sequence], h: Sequence):
    """(A_i, D, c, a, s): a square rational A and an h of its size
    scaled to integers, A_i = D A and h_i = c h, with a = A_i h_i and
    s = h_i^T A_i h_i (so A h = a / (D c) and h^T A h = s / (D c^2)).
    """
    Ai, d = _integral(A)
    if not isinstance(h, (list, tuple)):
        raise LatticeError("h must be a list of entries")
    (hi,), c = _integral([h])
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
    for symmetric invertible A and h with h^T A h != 0; any other A or
    h raises LatticeError.

    On A_i = D A, a = A_i h_i and s = h_i^T A_i h_i (see _int_pairing;
    the update does not change when h is scaled), the updated matrix
    times D s is the integer matrix B = s A_i - 2 a a^T, so the identity
    reads det B = -s^n det(A_i).  B is eliminated in full, not taken from
    the determinant lemma, but with divisor s (see _det_symmetric: every
    (k+1)-minor of B is divisible by s^k), which keeps its entries near
    the size of A_i's and returns det B / s^(n-1): the test is that this
    equals -s det(A_i).
    """
    Ai, _, _, a, s = _int_pairing(A, h)
    if not _symmetric(Ai):
        raise LatticeError("A must be symmetric")
    u = _triangle(Ai)
    det_a = _det_symmetric(u)
    if not det_a:
        raise LatticeError("A must be invertible")
    if not s:
        raise LatticeError("h^T A h must be nonzero")
    B = [[s * x - 2 * ai * aj for x, aj in zip(row, a[::-1])]
         for row, ai in zip(u, a)]
    return _det_symmetric(B, s) == -s * det_a


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
    if not _symmetric(Ai):
        raise LatticeError("A must be symmetric")
    u = _triangle(Ai)
    if _det_symmetric(u) != -(2 ** 10) * d ** 10:  # det(D A) = D^10 det A
        raise LatticeError("det A must equal -2^10")
    if s <= 0:
        raise LatticeError("h^T A h must be positive")
    # Gram rows are N's over 2 D s (<e_i,H><e_j,H>/<H,H> - <e_i,e_j>/2 =
    # (2 a_i a_j - s A_i[i][j]) / (2 D s)), the last over 4 D c^2 (<H,H>/4).
    N = [[0] + [2 * ai * aj - s * x for x, aj in zip(row, a[::-1])]
         for row, ai in zip(u, a)] + [[s]]
    result = _gram_result(N, [2 * d * s] * 10 + [4 * d * c * c])
    expected = PiScaled(Fraction(s, d * c * c * 2 ** 35), -33)
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
    fhsv_covolume, with <H,H> = 2^5 volume.mantissa; a zero mantissa
    raises ZeroDivisionError."""
    if not (volume.mantissa and covolume.mantissa):
        raise ZeroDivisionError("zero mantissa")
    return PiScaled(Fraction(2 ** 20 * volume.mantissa, covolume.mantissa),
                    -3 * volume.pi_exponent - covolume.pi_exponent)


def fhsv_constant_check(A: Sequence[Sequence[int]],
                        h: Sequence[int]) -> PiScaled:
    """fhsv_constant for A and h: independent of h, 2^50 pi^42 exactly."""
    return fhsv_constant(fhsv_volume(A, h), fhsv_covolume(A, h).covolume)


def enriques_invariant_gram() -> List[List[int]]:
    """A concrete rank-10 even lattice with determinant -2^10: the
    hyperbolic plane scaled by 2 plus E8 scaled by -2.
    """
    out = [[-4 * (i == j > 1) for j in range(10)] for i in range(10)]
    # U(2) on 0, 1; on 2..9 the E8 Dynkin edges, the chain 2..8 and 4-9
    for i, j in [(0, 1), *((k, k + 1) for k in range(2, 8)), (4, 9)]:
        out[i][j] = out[j][i] = 2
    return out
