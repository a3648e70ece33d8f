import enum
import itertools
import math
import random
import re
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from mirrorcalc import lattice
from mirrorcalc.inputs import exact
from mirrorcalc.lattice import (CubicLattice, PiScaled, bareiss_det,
                                l2_pairing, covolume, fhsv_covolume,
                                fhsv_volume, fhsv_constant,
                                fhsv_constant_check, rank1_update_det_check,
                                enriques_invariant_gram, LatticeError)


def random_lattice(rng, rank=3):
    while True:
        entries = {}
        for i in range(rank):
            for j in range(i, rank):
                for k in range(j, rank):
                    entries[(i, j, k)] = F(rng.randint(-4, 4))
        kappa = [F(rng.randint(-3, 3)) for _ in range(rank)]
        try:
            return CubicLattice.from_entries(rank, entries, kappa)
        except LatticeError:
            continue


def random_unimodular(rng, n):
    """Product of elementary integer row operations; determinant +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        m[0], m[1] = m[1], m[0]
    return m


rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def rational_matrices(draw, max_n=5):
    """Square rational matrices of size 0..max_n, some with zero pivots
    forced at the first or second elimination step, some with a row
    that is a multiple of another."""
    n = draw(st.integers(0, max_n))
    m = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if n >= 2:
        for i in range(draw(st.integers(0, n))):
            m[i][0] = F(0)
        if m[0][0] and draw(st.booleans()):
            # leading 2x2 minor zero: the second pivot vanishes
            m[1][1] = m[1][0] * m[0][1] / m[0][0]
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(rationals)
            m[i] = [c * x for x in m[j]]
    return m


@st.composite
def int_matrices(draw, max_n=6):
    """Square int matrices of size 0..max_n, each shaped to send the
    two-step kernel down one path: a first pivot below the top row (and
    a second one above it), a zero leading 2x2 minor (the second pivot
    row found below row 1), a zero column or a column that depends on
    the ones before it (a pass with no pivot or no nonzero 2x2 minor,
    at the pass that reaches it), or a row that is a multiple of
    another."""
    n = draw(st.integers(0, max_n))
    m = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
         for _ in range(n)]
    if n < 2:
        return m
    shape = draw(st.sampled_from(["pivot-below", "second-pivot-below",
                                  "zero-column", "dependent-column",
                                  "multiple-row"]))
    if shape == "pivot-below":
        for i in range(draw(st.integers(1, n - 1))):
            m[i][0] = 0
    elif shape == "second-pivot-below":
        c = draw(st.integers(-2, 2))
        m[1][:2] = [c * m[0][0], c * m[0][1]]
    elif shape == "zero-column":
        k = draw(st.integers(0, n - 1))
        for row in m:
            row[k] = 0
    elif shape == "dependent-column":
        k = draw(st.integers(1, n - 1))
        f = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        for row in m:
            row[k] = sum(map(mul, f, row))
    else:
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        m[i] = [c * x for x in m[j]]
    return m


@st.composite
def symmetric_int_matrices(draw, max_n=6):
    """Symmetric int matrices (list rows) of size 0..max_n, some with a
    zero leading block, so that a leading 2x2 minor vanishes at the
    first pass, and some with a row and column that are a multiple of
    another, so that the matrix is singular."""
    n = draw(st.integers(0, max_n))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-4, 4))
    if n >= 2:
        shape = draw(st.sampled_from(["plain", "zero-block", "multiple"]))
        if shape == "zero-block":
            k = draw(st.integers(1, n))
            for i in range(k):
                m[i][:k] = [0] * k
        elif shape == "multiple":
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-2, 2))
            m[i] = [c * x for x in m[j]]
            for row in m:
                row[i] = c * row[j]
    return m


def spy_kernels(monkeypatch):
    """[path, m, det, d] for every call of the two elimination kernels
    from now on, in call order: m the matrix as a full square (the
    symmetric kernel's _triangle squared up), d the divisor the kernel
    was given (1 for the general one) and det the determinant of m, what
    the kernel returned times d^(n-1)."""
    seen = []
    for path, square in (("symmetric", lattice._square), ("general", list)):
        kernel = getattr(lattice, f"_det_{path}")

        def spy(m, *d, path=path, kernel=kernel, square=square):
            seen.append(call := [path, [list(row) for row in square(m)]])
            out = kernel(m, *d)
            d = d[0] if d else 1
            call += [out * F(d) ** (len(m) - 1), d]
            return out
        monkeypatch.setattr(lattice, f"_det_{path}", spy)
    return seen


def gauss_det(m):
    """Determinant by Gaussian elimination on Fraction, with the first
    nonzero entry of each column as the pivot."""
    m = [[F(x) for x in row] for row in m]
    det = F(1)
    for k in range(len(m)):
        i = next((i for i in range(k, len(m)) if m[i][k]), None)
        if i is None:
            return F(0)
        if i != k:
            m[k], m[i] = m[i], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], m[k][k:])]
    return det


def symmetric_rank1_input(rng, n):
    """A symmetric n x n A with entries p/q, p in [-5, 5], q in [1, 3],
    and h in [-4, 4]^n meeting the preconditions of
    rank1_update_det_check."""
    while True:
        A = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = F(rng.randint(-5, 5), rng.randint(1, 3))
        h = [rng.randint(-4, 4) for _ in range(n)]
        hAh = sum(h[i] * A[i][j] * h[j] for i in range(n) for j in range(n))
        if hAh and bareiss_det(A):
            return A, h


def leibniz_det(m):
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(
            (m[i][perm[i]] for i in range(n)), start=F(1))
    return total


@st.composite
def lattices(draw, min_rank=1, max_rank=5):
    """Cubic lattices with rational entries and kappa, c(k,k,k) > 0."""
    rank = draw(st.integers(min_rank, max_rank))
    entries = {(i, j, k): draw(rationals) for i in range(rank)
               for j in range(i, rank) for k in range(j, rank)}
    kappa = [draw(rationals) for _ in range(rank)]
    try:
        return CubicLattice.from_entries(rank, entries, kappa)
    except LatticeError:
        assume(False)


class TestBareiss:
    def test_known_det(self):
        assert bareiss_det([[1, 2], [3, 4]]) == -2

    def test_singular(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0

    def test_rational_entries(self):
        assert bareiss_det([[F(1, 2), 0], [0, F(2, 3)]]) == F(1, 3)

    def test_pivot_swap(self):
        assert bareiss_det([[0, 1], [1, 0]]) == -1

    def test_empty_matrix(self):
        assert bareiss_det([]) == 1

    def test_rational_strings(self):
        assert bareiss_det([["1/2", 0], [0, "2/3"]]) == F(1, 3)

    @pytest.mark.parametrize("bad", [
        5, [1, 2], [[1, 2], [3]], [[1.5]], [["x"]], [[True]], [[None]],
        [[1, 2], [3, 4], [5, 6]],
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(LatticeError):
            bareiss_det(bad)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_leibniz(self, data):
        m = data.draw(rational_matrices())
        assert bareiss_det(m) == leibniz_det(m)


class TestDet:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_matches_leibniz(self, m):
        det = lattice._det_general(m)
        assert type(det) is int
        assert det == leibniz_det(m)

    @settings(max_examples=60, deadline=None)
    @given(int_matrices(max_n=13))
    def test_matches_fraction_gauss(self, m):
        """Sizes up to 13, where Leibniz is too slow."""
        assert lattice._det_general(m) == gauss_det(m)

    @settings(max_examples=50, deadline=None)
    @given(int_matrices())
    def test_argument_unchanged(self, m):
        before = [row[:] for row in m]
        lattice._det_general(m)
        bareiss_det(m)
        assert m == before

    @pytest.mark.parametrize("m, det", [
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
        ([[1, 2, 3], [2, 4, 7], [0, 5, 1]], -5),
        ([[0, 2, 1], [3, 1, 4], [1, 5, 9]], -32),
        ([[1, 2, 3], [2, 4, 6], [3, 6, 1]], 0),
        ([[1, 2, 0, 0], [0, 0, 1, 1], [3, 4, 2, 2], [5, 6, 3, 3]], 0),
        ([[2, 1, 0, 0, 1], [1, 2, 1, 0, 0], [0, 1, 2, 1, 0],
          [0, 0, 1, 2, 1], [1, 0, 0, 1, 2]], 4),
    ], ids=["swap", "reversal", "cycle", "zero-second-pivot",
            "second-pivot-above", "proportional-columns",
            "proportional-in-second-pass", "odd-size"])
    def test_permutations_and_pivots(self, m, det):
        assert lattice._det_general(m) == bareiss_det(m) == det == gauss_det(m)

    @pytest.mark.parametrize("caller, args, sizes", [
        (rank1_update_det_check,
         lambda: symmetric_rank1_input(random.Random(1), 12), [12, 12]),
        (fhsv_covolume,
         lambda: (enriques_invariant_gram(), [1, 1] + [0] * 8), [10, 11]),
        (fhsv_covolume,
         lambda: (enriques_invariant_gram(), [2, 3, 0, 1] + [0] * 6),
         [10, 11]),
    ], ids=["rank1-update", "fhsv-h-1-1", "fhsv-h-2-3-0-1"])
    def test_caller_matrices(self, monkeypatch, caller, args, sizes):
        """The matrices the callers eliminate, and their determinants:
        A_i and s A_i - 2 a a^T of rank1_update_det_check, and the
        Enriques Gram (zero leading diagonal) and 11x11 FHSV Gram (zero
        mixed column) of fhsv_covolume."""
        args = args()
        seen = spy_kernels(monkeypatch)
        caller(*args)
        assert [len(m) for _, m, _, _ in seen] == sizes
        for _, m, det, _ in seen:
            assert det == gauss_det(m)


class TestSymmetricDet:
    @settings(max_examples=50, deadline=None)
    @given(symmetric_int_matrices())
    def test_triangle_round_trip(self, m):
        """_triangle keeps row i from the diagonal on, reversed, and
        _square restores the whole symmetric matrix from it."""
        n, u = len(m), lattice._triangle(m)
        assert [len(row) for row in u] == list(range(n, 0, -1))
        assert [row[-1] for row in u] == [m[i][i] for i in range(n)]
        assert [row[0] for row in u] == [m[i][-1] for i in range(n)]
        assert [list(row) for row in lattice._square(u)] == m

    @settings(max_examples=150, deadline=None)
    @given(symmetric_int_matrices())
    def test_matches_leibniz(self, m):
        det = lattice._det_symmetric(lattice._triangle(m))
        assert type(det) is int
        assert det == leibniz_det(m)

    @settings(max_examples=60, deadline=None)
    @given(symmetric_int_matrices(max_n=13))
    def test_matches_fraction_gauss(self, m):
        """Sizes up to 13, where Leibniz is too slow."""
        before = [row[:] for row in m]
        assert lattice._det_symmetric(lattice._triangle(m)) == gauss_det(m)
        assert bareiss_det(m) == gauss_det(m)
        assert m == before

    @pytest.mark.parametrize("m, det, paths", [
        # every 2x2 principal minor is 0: the whole matrix goes general
        ([[1, 1, 1], [1, 1, -1], [1, -1, 1]], -4,
         [("symmetric", 3), ("general", 3)]),
        # leading minors 2, 5, 5, 0, -20: the 4x4 one vanishes in the
        # second pass, and the 3x3 block left over goes general
        ([[2, 1, 1, 2, -1], [1, 3, -2, 6, 2], [1, -2, 4, -2, 0],
          [2, 6, -2, 16, 8], [-1, 2, 0, 8, 4]], -20,
         [("symmetric", 5), ("general", 3)]),
        ([[2, 1, 3], [1, 1, 2], [3, 2, 5]], 0, [("symmetric", 3)]),
        ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 0,
         [("symmetric", 3), ("general", 3)]),
        ([], 1, [("symmetric", 0)]),
        ([[-7]], -7, [("symmetric", 1)]),
        (enriques_invariant_gram(), -(2 ** 10), [("symmetric", 10)]),
        (((1, 2), (2, 5)), 1, [("symmetric", 2)]),
        ([[1, 2], [3, 5]], -1, [("general", 2)]),
    ], ids=["no-nonzero-2x2-minor", "zero-minor-in-second-pass",
            "singular", "singular-at-first-pass", "0x0", "1x1", "enriques",
            "tuple-rows", "not-symmetric"])
    def test_paths(self, monkeypatch, m, det, paths):
        """bareiss_det sends a symmetric matrix, tuple rows included (it
        reads rows as lists), to the upper-triangle kernel, which hands the
        block left at a vanishing leading 2x2 minor to the general one;
        every other matrix takes the general one."""
        seen = spy_kernels(monkeypatch)
        assert bareiss_det(m) == det == gauss_det(m)
        assert [(path, len(m)) for path, m, _, _ in seen] == paths

    @pytest.mark.parametrize("caller, args, paths", [
        (rank1_update_det_check,
         lambda: symmetric_rank1_input(random.Random(1), 12),
         [("symmetric", 12)] * 2),
        (fhsv_covolume, lambda: (enriques_invariant_gram(), [1, 1] + [0] * 8),
         [("symmetric", 10), ("symmetric", 11)]),
        (lambda: covolume(random_lattice(random.Random(2))), list,
         [("symmetric", 3)]),
        (lambda: random_lattice(random.Random(3)).basis_change(
            random_unimodular(random.Random(3), 3)), list,
         [("general", 3)] * 4),
    ], ids=["rank1-update", "fhsv", "covolume", "basis-change"])
    def test_caller_paths(self, monkeypatch, caller, args, paths):
        """Every Gram matrix, A and its rank-1 update are symmetric; a
        basis change's U and its Cramer matrices are not."""
        args = args()
        seen = spy_kernels(monkeypatch)
        caller(*args)
        assert [(path, len(m)) for path, m, _, _ in seen] == paths


    @settings(max_examples=80, deadline=None)
    @given(st.one_of(int_matrices(), symmetric_int_matrices()))
    def test_bareiss_det_takes_the_symmetric_kernel_iff_symmetric(self, m):
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_kernels(mp)
            assert bareiss_det(m) == gauss_det(m)
        if m == [list(col) for col in zip(*m)] or not m:
            assert seen[0][0] == "symmetric"
        else:
            assert [path for path, *_ in seen] == ["general"]

    @pytest.mark.parametrize("U", [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
        random_unimodular(random.Random(4), 3),
    ], ids=["identity", "symmetric", "general"])
    def test_basis_change_never_tests_symmetry(self, monkeypatch, U):
        """U and its Cramer matrices are general by construction: even a
        symmetric U goes straight to the general kernel."""
        tested, real = [], lattice._symmetric
        monkeypatch.setattr(lattice, "_symmetric",
                            lambda m: tested.append(m) or real(m))
        seen = spy_kernels(monkeypatch)
        random_lattice(random.Random(9)).basis_change(U)
        assert tested == []
        assert [path for path, *_ in seen] == ["general"] * 4


def rank_one_update(X, a, s):
    """s X - 2 a a^T on int X, a and s."""
    return [[s * x - 2 * ai * aj for x, aj in zip(row, a)]
            for row, ai in zip(X, a)]


class TestDivisor:
    """_det_symmetric(u, d) = det m / d^(n-1) when every (k+1)-minor of m
    is divisible by d^k, as on rank-one updates s X - 2 a a^T with d = s."""

    @settings(max_examples=100, deadline=None)
    @given(symmetric_int_matrices(max_n=8), st.data())
    def test_rank_one_updates(self, X, data):
        """Any int X and a and s of either sign; a zero head of a keeps a
        zero leading block of X, so some leading 2x2 minors vanish."""
        n = len(X)
        zeros = data.draw(st.integers(0, n))
        a = [0] * zeros + data.draw(st.lists(
            st.integers(-6, 6), min_size=n - zeros, max_size=n - zeros))
        s = data.draw(st.integers(-30, 30).filter(bool))
        B = rank_one_update(X, a, s)
        det = lattice._det_symmetric(lattice._triangle(B), s)
        assert type(det) is int
        assert det * F(s) ** (n - 1) == gauss_det(B)

    @pytest.mark.parametrize("seed, sign", [(1, -1), (3, 1)])
    def test_rank1_inputs_of_either_sign(self, monkeypatch, seed, sign):
        """The check's own B, with s = h_i^T A_i h_i < 0 and > 0."""
        A, h = symmetric_rank1_input(random.Random(seed), 12)
        s = lattice._int_pairing(A, h)[4]
        assert s * sign > 0
        seen = spy_kernels(monkeypatch)
        assert rank1_update_det_check(A, h)
        (_, _, det_a, _), (_, B, det_b, d) = seen
        assert d == s and det_b == gauss_det(B) == -s ** 12 * det_a

    @pytest.mark.parametrize("s", [-3, 5])
    def test_zero_leading_minor(self, monkeypatch, s):
        """A zero leading 2x2 minor sends B from prev = s to the general
        kernel, and det T / s^(n-1) is exact there too (Sylvester)."""
        X = [[0, 0, 1, 2], [0, 0, 3, -1], [1, 3, 2, 0], [2, -1, 0, 1]]
        B = rank_one_update(X, [0, 0, 1, -2], s)
        seen = spy_kernels(monkeypatch)
        det = lattice._det_symmetric(lattice._triangle(B), s)
        assert [(path, d) for path, _, _, d in seen] == [
            ("symmetric", s), ("general", 1)]
        assert det * s ** 3 == gauss_det(B) == 49 * s ** 4

    @pytest.mark.parametrize("m, d, det", [
        ([], 7, 7),
        ([[-6]], -3, -6),
        ([[4, 2], [2, -2]], -2, 6),
    ], ids=["0x0", "1x1", "2x2"])
    def test_small(self, m, d, det):
        """det m / d^(n-1): d at n = 0, m[0][0] at n = 1."""
        assert lattice._det_symmetric(lattice._triangle(m), d) == det
        assert det * F(d) ** (len(m) - 1) == gauss_det(m)


class TestL2Pairing:
    def setup_method(self):
        # rank-2 lattice with c(e0,e0,e0)=6, c(e0,e0,e1)=1 and kappa=e0
        self.L = CubicLattice.from_entries(
            2, {(0, 0, 0): F(6), (0, 0, 1): F(1)}, [1, 0])

    def test_kappa_squared_norm(self):
        # <k,k> = (1/2) c(k,k,k)
        k = self.L.kappa
        assert l2_pairing(self.L, k, k) == F(1, 2) * self.L.c(k, k, k)

    def test_primitive_class(self):
        # a with c(a,k,k) = 0: <a,a> = -c(a,a,k)
        a = (F(-1), F(6))  # c(a,k,k) = -6 + 6 = 0
        assert self.L.c(a, self.L.kappa, self.L.kappa) == 0
        assert l2_pairing(self.L, a, a) == -self.L.c(a, a, self.L.kappa)

    def test_lefschetz_orthogonality(self):
        k = self.L.kappa
        ckkk = self.L.c(k, k, k)
        a = (F(2), F(5))
        proj = self.L.c(a, k, k) / ckkk
        prim = tuple(ai - proj * ki for ai, ki in zip(a, k))
        assert l2_pairing(self.L, prim, k) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_bilinear_symmetric(self, seed):
        rng = random.Random(seed)
        L = random_lattice(rng)
        a = [F(rng.randint(-3, 3)) for _ in range(3)]
        b = [F(rng.randint(-3, 3)) for _ in range(3)]
        c = [F(rng.randint(-3, 3)) for _ in range(3)]
        s = F(rng.randint(-3, 3))
        assert l2_pairing(L, a, b) == l2_pairing(L, b, a)
        ab = [x + s * y for x, y in zip(a, b)]
        assert (l2_pairing(L, ab, c)
                == l2_pairing(L, a, c) + s * l2_pairing(L, b, c))


class TestCovolume:
    @pytest.mark.parametrize("index", [(0, 0, 2), (-1, 0, 0)])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(LatticeError):
            CubicLattice.from_entries(2, {index: F(5), (0, 0, 0): F(1)},
                                      [1, 0])

    @pytest.mark.parametrize("rank, index, value, kappa", [
        (2.0, (0, 0, 0), 1, [1, 0]),
        (True, (0, 0, 0), 1, [1]),
        (2, (0, 0.0, 1), 1, [1, 0]),
        (2, (0, 0, False), 1, [1, 0]),
        (2, (0, 0, 0), 0.5, [1, 0]),
        (2, (0, 0, 0), True, [1, 0]),
        (2, (0, 0, 0), 1, [1.0, 0]),
        (2, (0, 0, 0), 1, ["1", "1/0"]),
        (10 ** 6, (0, 0, 0), 1, [1]),
        (2, (0, 0, 0), 1, "10"),
        (2, (0, 0, 0), "1e5000", [1, 0]),
        (2, (0, 0, 0), 1, ["1", "1e-5000"]),
    ], ids=["rank-float", "rank-bool", "index-float", "index-bool",
            "value-float", "value-bool", "kappa-float", "kappa-1/0",
            "rank-beyond-kappa", "kappa-string", "value-1e5000",
            "kappa-1e-5000"])
    def test_malformed_input_rejected(self, rank, index, value, kappa):
        # rank-beyond-kappa must fail before a rank^3 tensor is built
        with pytest.raises(LatticeError):
            CubicLattice.from_entries(rank, {index: value}, kappa)

    @pytest.mark.parametrize("repeat", [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    def test_repeated_triple_rejected(self, repeat):
        pairs = [((0, 0, 0), 6), ((0, 0, 1), 1), (repeat, 2)]
        with pytest.raises(LatticeError, match="given twice"):
            CubicLattice.from_entries(2, pairs, [1, 0])

    def test_permuted_triple_in_mapping_rejected(self):
        entries = {(0, 0, 0): 6, (0, 0, 1): 1, (1, 0, 0): 2}
        with pytest.raises(LatticeError, match="given twice"):
            CubicLattice.from_entries(2, entries, [1, 0])

    @pytest.mark.parametrize("rank, entries, kappa", [
        (1, {(0, 0, 0): 0}, [1]),
        (1, {(0, 0, 0): 1}, [0]),
        (1, {(0, 0, 0): -1}, [1]),
        # 3 c_001 k0^2 k1 + c_111 k1^3 = -3 + 2: (0,0,1) has 3 index orders
        (2, {(0, 0, 1): -1, (1, 1, 1): 2}, [1, 1]),
        (2, {}, [1, 1]),
    ], ids=["zero-value", "zero-kappa", "negative", "three-orders",
            "no-entries"])
    def test_nonpositive_kappa_cube_rejected(self, rank, entries, kappa):
        with pytest.raises(LatticeError,
                           match=r"c\(kappa,kappa,kappa\) must be positive"):
            CubicLattice.from_entries(rank, entries, kappa)

    def test_pairs_and_mapping_agree(self):
        pairs = [((1, 0, 0), F(1)), ((0, 0, 0), "6")]
        assert (CubicLattice.from_entries(2, pairs, ("1", "0"))
                == CubicLattice.from_entries(2, dict(pairs), [1, 0]))

    def test_rational_strings_accepted(self):
        assert (CubicLattice.from_entries(1, {(0, 0, 0): "7/2"}, ["2"])
                == CubicLattice.from_entries(1, {(0, 0, 0): F(7, 2)}, [2]))

    def test_rank_one(self):
        L = CubicLattice.from_entries(1, {(0, 0, 0): F(7)}, [1])
        res = covolume(L)
        assert res.gram == ((F(7, 2),),)
        assert res.covolume == PiScaled(F(7, 2) / 8, -3)

    def test_rationality(self):
        rng = random.Random(11)
        for _ in range(5):
            L = random_lattice(rng)
            assert isinstance(covolume(L).covolume.mantissa, F)

    @pytest.mark.parametrize("seed", range(10))
    def test_unimodular_invariance(self, seed):
        rng = random.Random(200 + seed)
        L = random_lattice(rng)
        U = random_unimodular(rng, L.rank)
        assert covolume(L.basis_change(U)).covolume == covolume(L).covolume

    @pytest.mark.parametrize("U, message", [
        ([[1, 2, 0], [2, 4, 0], [0, 0, 1]], "singular"),
        ([[1, 0, 0], [0, 1, 0]], "square"),
        ([[1, 0], [0, 1]], "rank is 3"),
    ], ids=["singular", "non-square", "wrong-size"])
    def test_basis_change_rejects(self, U, message):
        L = random_lattice(random.Random(5))
        with pytest.raises(LatticeError, match=message):
            L.basis_change(U)

    def test_basis_change_evaluates_no_cubic_form(self, monkeypatch):
        L = random_lattice(random.Random(7), rank=4)
        calls = []
        c = CubicLattice.c
        monkeypatch.setattr(CubicLattice, "c",
                            lambda *args: calls.append(1) or c(*args))
        L.basis_change(random_unimodular(random.Random(8), 4))
        assert calls == []


    @pytest.mark.parametrize("rank, seed", [(3, 1), (3, 2), (4, 3), (4, 4)])
    def test_basis_change_builds_one_fraction_per_value(self, monkeypatch,
                                                        rank, seed):
        """No Fraction at all: the new tensor and kappa' stay on int.
        The result is the lattice of the definitions:
        c'(a, b, g) = c(U e_a, U e_b, U e_g), kappa' by Cramer's rule."""
        rng = random.Random(seed)
        L, U = random_lattice(rng, rank), random_unimodular(rng, rank)
        built, new = [], F.__new__
        monkeypatch.setattr(F, "__new__", lambda cls, *args, **kwargs: (
            built.append(args) or new(cls, *args, **kwargs)))
        L2 = L.basis_change(U)
        monkeypatch.undo()
        assert built == []
        r = range(rank)
        cols = [[U[i][j] for i in r] for j in r]
        assert L2.cubic == tuple(tuple(tuple(
            L.c(cols[a], cols[b], cols[g]) for g in r) for b in r) for a in r)
        det_u = leibniz_det(U)
        assert L2.kappa == tuple(leibniz_det([[*row[:j], k, *row[j + 1:]]
                                              for row, k in zip(U, L.kappa)])
                                 / det_u for j in r)


def in_lowest_terms(L):
    """L holds ints: t over d and k over dk, each pair in lowest terms."""
    ints = [x for p in L.t for row in p for x in row]
    assert all(type(x) is int for x in [*ints, L.d, *L.k, L.dk])
    assert L.d > 0 and math.gcd(L.d, *ints) == 1
    assert L.dk > 0 and math.gcd(L.dk, *L.k) == 1
    return L


def inverse(U):
    """U^-1 by cofactors over Fractions; int rows when det U = +-1."""
    r = range(len(U))
    det = leibniz_det(U)
    inv = [[(-1) ** (i + j) * leibniz_det(
        [row[:i] + row[i + 1:] for k, row in enumerate(U) if k != j]) / det
        for j in r] for i in r]
    return [[int(x) if x.denominator == 1 else x for x in row]
            for row in inv]


class TestRepresentation:
    """CubicLattice stores the cubic tensor as int t over d and kappa as
    int k over dk in lowest terms; cubic and kappa are built on read."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_basis_change_round_trip(self, rank, seed):
        """L.basis_change(U).basis_change(U^-1) == L, for unimodular U
        and for U scaled by 2/3, which moves the denominators."""
        rng = random.Random(seed)
        L = in_lowest_terms(random_lattice(rng, rank))
        U = (random_unimodular(rng, rank) if rank > 1
             else [[rng.choice((1, -1))]])
        assert leibniz_det(U) in (1, -1)
        for V in (U, [[F(2, 3) * x for x in row] for row in U]):
            there = in_lowest_terms(L.basis_change(V))
            back = in_lowest_terms(there.basis_change(inverse(V)))
            assert back == L
            assert (back.cubic, back.kappa) == (L.cubic, L.kappa)

    @settings(max_examples=40, deadline=None)
    @given(lattices(max_rank=4), st.data())
    def test_equal_exactly_when_cubic_and_kappa_are(self, L, data):
        """A basis change by a rational U gives lowest terms again, and
        two lattices are equal just when cubic and kappa are."""
        r = L.rank
        U = [[data.draw(rationals) for _ in range(r)] for _ in range(r)]
        assume(leibniz_det(U))
        L2 = in_lowest_terms(L.basis_change(U))
        for M in (L, L2, in_lowest_terms(L.basis_change(
                [[F(2) * (i == j) for j in range(r)] for i in range(r)]))):
            assert (M == L) == ((M.cubic, M.kappa) == (L.cubic, L.kappa))
            assert (M == L2) == ((M.cubic, M.kappa) == (L2.cubic, L2.kappa))

    @pytest.mark.parametrize("seed", range(4))
    def test_int_fraction_and_string_build_equal_lattices(self, seed):
        rng = random.Random(seed)
        rank = rng.randint(1, 4)
        entries = {(i, j, k): rng.randint(-6, 6) for i in range(rank)
                   for j in range(i, rank) for k in range(j, rank)}
        entries[(0, 0, 0)] = 40 * rank ** 3  # so that c(k,k,k) > 0
        kappa = [1] + [rng.randint(-1, 1) for _ in range(rank - 1)]
        L, *others = [CubicLattice.from_entries(
            rank, {t: kind(v) for t, v in entries.items()},
            [kind(v) for v in kappa]) for kind in (int, F, str)]
        assert others == [L, L] and in_lowest_terms(L).d == L.dk == 1
        r = range(rank)
        assert L.cubic == tuple(tuple(tuple(
            entries[tuple(sorted((a, b, g)))] for g in r) for b in r)
            for a in r)
        assert L.kappa == tuple(kappa)

    @pytest.mark.parametrize("pairs, message", [
        ([((0, 0, 0), "x"), ((0, 0, 5), 1)],
         "entry 'x' is not an int, a Fraction or a rational string"),
        ([((0, 0, 5), 1), ((0, 0, 0), "x")],
         "index (0, 0, 5) is not an integer triple in range for rank 2"),
        ([((0, 0, 1), "x"), ((1, 0, 0), 1)],
         "entry 'x' is not an int, a Fraction or a rational string"),
        ([((0, 0, 1), 1), ((1, 0, 0), "x")],
         "index triple (0, 0, 1) given twice"),
    ], ids=["value-then-index", "index-then-value", "value-then-repeat",
            "repeat-then-value"])
    def test_first_bad_entry_is_refused(self, pairs, message):
        """Entries are read in order, each checked for its index, then
        for a repeat, then for its value."""
        with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
            CubicLattice.from_entries(2, pairs, [1, 0])


class TestKernelsAgainstDefinitions:
    @settings(max_examples=20, deadline=None)
    @given(lattices(min_rank=2), st.randoms(use_true_random=False))
    def test_basis_change(self, L, rng):
        U = random_unimodular(rng, L.rank)
        L2 = L.basis_change(U)
        cols = [[U[i][j] for i in range(L.rank)] for j in range(L.rank)]
        for a, b, g in itertools.product(range(L.rank), repeat=3):
            assert L2.cubic[a][b][g] == L.c(cols[a], cols[b], cols[g])
        # kappa is the same class: U kappa' = kappa
        assert [sum(U[i][j] * L2.kappa[j] for j in range(L.rank))
                for i in range(L.rank)] == list(L.kappa)

    @settings(max_examples=30, deadline=None)
    @given(lattices())
    def test_covolume_gram_is_l2_pairing(self, L):
        basis = [[int(i == j) for j in range(L.rank)] for i in range(L.rank)]
        gram = covolume(L).gram
        for i, j in itertools.product(range(L.rank), repeat=2):
            assert gram[i][j] == l2_pairing(L, basis[i], basis[j])

    @settings(max_examples=40, deadline=None)
    @given(lattices(max_rank=4))
    def test_covolume_against_fraction_reference(self, L):
        """The gram entry by entry from l2_pairing on Fraction, and its
        determinant by Leibniz, times (2 pi)^(-3r)."""
        r = L.rank
        basis = [[F(int(i == j)) for j in range(r)] for i in range(r)]
        gram = tuple(tuple(l2_pairing(L, a, b) for b in basis)
                     for a in basis)
        res = covolume(L)
        assert res.gram == gram
        assert res.covolume == PiScaled(leibniz_det(gram) / 2 ** (3 * r),
                                        -3 * r)

    @settings(max_examples=40, deadline=None)
    @given(lattices(max_rank=4), st.data())
    def test_basis_change_kappa_by_cramer(self, L, data):
        """kappa' = U^-1 kappa by Cramer's rule on Fraction, for rational
        U: kappa'_j = det(U, column j := kappa) / det U."""
        r = L.rank
        U = [[data.draw(rationals) for _ in range(r)] for _ in range(r)]
        det_u = leibniz_det(U)
        assume(det_u)
        cramer = tuple(leibniz_det([[*row[:j], k, *row[j + 1:]]
                                    for row, k in zip(U, L.kappa)]) / det_u
                       for j in range(r))
        assert L.basis_change(U).kappa == cramer

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_from_entries_kappa_cube_check(self, rank, data):
        """from_entries accepts exactly when the dense sum over all
        ordered triples, c(k,k,k) = sum t_ijk k_i k_j k_k, is positive."""
        triples = [t for t in itertools.combinations_with_replacement(
            range(rank), 3) if data.draw(st.booleans())]
        entries = {t: data.draw(rationals) for t in triples}
        kappa = [data.draw(rationals) for _ in range(rank)]
        ckkk = sum(entries.get(tuple(sorted(t)), 0)
                   * math.prod(kappa[i] for i in t)
                   for t in itertools.product(range(rank), repeat=3))
        if ckkk > 0:
            L = CubicLattice.from_entries(rank, entries, kappa)
            assert L.c(L.kappa, L.kappa, L.kappa) == ckkk
        else:
            with pytest.raises(LatticeError, match="must be positive"):
                CubicLattice.from_entries(rank, entries, kappa)

    @settings(max_examples=40, deadline=None)
    @given(lattices(max_rank=4), st.data())
    def test_basis_change_keeps_kappa_cube(self, L, data):
        """The invariant that lets basis_change skip every check: the
        result is symmetric and c(k',k',k') = c(k,k,k)."""
        r = L.rank
        U = [[data.draw(rationals) for _ in range(r)] for _ in range(r)]
        assume(leibniz_det(U))
        L2 = L.basis_change(U)
        for a, b, g in itertools.product(range(r), repeat=3):
            assert L2.cubic[a][b][g] == L2.cubic[b][a][g] == L2.cubic[a][g][b]
        assert (L2.c(L2.kappa, L2.kappa, L2.kappa)
                == L.c(L.kappa, L.kappa, L.kappa))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["int", "fraction", "non-integral"]))
    def test_rank1_update(self, data, kind):
        n = data.draw(st.integers(1, 5))
        A = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = data.draw(rationals)
        ints = data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                  max_size=n))
        if kind == "int":
            h = ints
        elif kind == "fraction":
            h = [F(x) for x in ints]
        else:
            h = [F(x, data.draw(st.integers(2, 5))) for x in ints]
            assume(any(x.denominator > 1 for x in h))
        hAh = sum(h[i] * A[i][j] * h[j] for i in range(n) for j in range(n))
        assume(bareiss_det(A) and hAh)
        assert rank1_update_det_check(A, h)


class TestFHSV:
    def setup_method(self):
        self.A = enriques_invariant_gram()
        self.h = [1, 1] + [0] * 8

    def test_enriques_gram_determinant(self):
        assert bareiss_det(self.A) == -(2 ** 10)

    def test_covolume_formula(self):
        hAh = 4  # h^T A h for the hyperbolic vector (1,1)
        res = fhsv_covolume(self.A, self.h)
        assert res.covolume == PiScaled(F(hAh, 2 ** 35), -33)

    def test_volume_companion(self):
        assert fhsv_volume(self.A, self.h) == PiScaled(F(4, 2 ** 5), -3)

    def test_constant_independent_of_h(self):
        expected = PiScaled(F(2 ** 50), 42)
        assert fhsv_constant_check(self.A, self.h) == expected
        assert fhsv_constant_check(self.A, [2, 3] + [0] * 8) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.fractions().filter(bool), st.fractions().filter(bool),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_constant_is_vol_cov_hh_product(self, v, c, ev, ec):
        # Vol^-3 cov^-1 <H,H>^4 with <H,H> = 2^5 v, by Fraction powers
        got = fhsv_constant(PiScaled(v, ev), PiScaled(c, ec))
        assert got == PiScaled(v ** -3 / c * (2 ** 5 * v) ** 4, -3 * ev - ec)

    @pytest.mark.parametrize("vol, cov", [(0, 1), (F(1, 8), 0), (0, 0)])
    def test_constant_zero_mantissa_raises(self, vol, cov):
        with pytest.raises(ZeroDivisionError):
            fhsv_constant(PiScaled(F(vol), -3), PiScaled(F(cov), -33))

    def test_rational_gram(self):
        # P^T A P for P = diag(1, 1, 1, 1/3, 3, 1, ...) has det A = -2^10
        # and denominators 9; h lives on the first two coordinates
        p = [1, 1, 1, F(1, 3), 3] + [1] * 5
        A = [[x * p[i] * p[j] for j, x in enumerate(row)]
             for i, row in enumerate(self.A)]
        assert (fhsv_covolume(A, self.h).covolume
                == fhsv_covolume(self.A, self.h).covolume)
        halved = [[F(x, 2) for x in row] for row in self.A]
        with pytest.raises(LatticeError, match="det A"):
            fhsv_covolume(halved, self.h)

    @pytest.mark.parametrize("h", [[1, 1] + [0] * 8,
                                   [2, 3, 0, 1] + [0] * 6,
                                   [3, 1] + [0] * 8])
    def test_block_formula_is_the_general_covolume(self, h):
        """The rank-11 lattice on the invariant lattice plus Z f, with
        c(e_i, e_j, f) = A_ij / 2, every other triple 0, and kappa =
        h + f: its L2 covolume from the definition is fhsv_covolume."""
        entries = {(i, j, 10): F(self.A[i][j], 2)
                   for i in range(10) for j in range(i, 10)}
        general = covolume(CubicLattice.from_entries(11, entries, h + [1]))
        block = fhsv_covolume(self.A, h)
        assert general.gram == block.gram
        assert general.covolume == block.covolume
        # built from different int rows, equal as Gram matrices
        assert general == block and hash(general) == hash(block)

    def test_pi_scaled_json(self):
        assert (PiScaled(F(-3, 4), -33).to_json_dict()
                == {"mantissa": "-3/4", "pi_exponent": -33})

    def test_wrong_determinant_rejected(self):
        bad = [row[:] for row in self.A]
        bad[0][1] = bad[1][0] = 1
        with pytest.raises(LatticeError):
            fhsv_covolume(bad, self.h)

    def test_non_kahler_rejected(self):
        with pytest.raises(LatticeError):
            fhsv_covolume(self.A, [1, -1] + [0] * 8)


class TestRank1Update:
    def test_two_by_two_hand(self):
        assert rank1_update_det_check([[1, 0], [0, -1]], [1, 0])

    def test_identity_reflection(self):
        for n in (2, 3, 5):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert rank1_update_det_check(eye, [1] * n)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_symmetric(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(2, 5)
        while True:
            A = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    A[i][j] = A[j][i] = F(rng.randint(-5, 5), rng.randint(1, 3))
            h = [F(rng.randint(-3, 3)) for _ in range(n)]
            if bareiss_det(A) and any(h):
                hAh = sum(h[i] * sum(A[i][j] * h[j] for j in range(n))
                          for i in range(n))
                if hAh:
                    break
        assert rank1_update_det_check(A, h)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_two_determinants(self, monkeypatch, n):
        """det(s A_i - 2 a a^T) is eliminated, not taken from the
        determinant lemma that the check is there to confirm."""
        A, h = symmetric_rank1_input(random.Random(n), n)
        s = lattice._int_pairing(A, h)[4]
        seen = spy_kernels(monkeypatch)
        assert rank1_update_det_check(A, h)
        assert [len(m) for _, m, _, _ in seen] == [n, n]
        assert [d for *_, d in seen] == [1, s]  # A_i, then B with divisor s
        for _, m, det, _ in seen:
            assert det == gauss_det(m)

    def test_preconditions(self):
        with pytest.raises(LatticeError):
            rank1_update_det_check([[1, 1], [1, 1]], [1, 0])
        with pytest.raises(LatticeError):
            rank1_update_det_check([[1, 0], [0, -1]], [1, 1])

    @pytest.mark.parametrize("A", [
        [[1, 2], [0, 1]],
        [[2, 1, 0], [1, 3, 1], [0, 2, 5]],
        [["1/2", F(1, 3)], [F(1, 4), 2]],
    ], ids=["upper-unitriangular", "one-entry-off", "rational"])
    def test_non_symmetric_rejected(self, monkeypatch, A):
        """An invertible A that is not symmetric would give a wrong a =
        A h; it is refused before any determinant is taken."""
        seen = spy_kernels(monkeypatch)
        with pytest.raises(LatticeError, match="A must be symmetric"):
            rank1_update_det_check(A, [1] + [0] * (len(A) - 1))
        assert seen == [] and bareiss_det(A)

    def test_symmetric_once_scaled(self):
        """Entries written differently but equal as rationals."""
        assert rank1_update_det_check([["1/2", F(1, 3)], ["2/6", 2]], [1, 0])

    @pytest.mark.parametrize("h", ["abc", None, 1, F(1)])
    def test_h_not_a_list_rejected(self, h):
        with pytest.raises(LatticeError, match="^h must be a list of entries"):
            rank1_update_det_check([[1, 0], [0, -1]], h)


class Two(enum.IntEnum):
    TWO = 2


def scaled_per_entry(rows):
    """(D*M, D) by inputs.exact on each entry, then each entry times D."""
    m = [[exact(x) for x in row] for row in rows]
    d = math.lcm(*(x.denominator for row in m for x in row))
    return [[int(x * d) for x in row] for row in m], d


def written_as(m, kind):
    """The int matrix m with its entries written as one kind: ints, ints
    and Fractions (every other entry), rational strings (each over 3),
    tuple rows, or ints with each 2 an IntEnum member."""
    if kind == "int":
        return [row[:] for row in m]
    if kind == "int-and-fraction":
        return [[F(x) if (i + j) % 2 else x for j, x in enumerate(row)]
                for i, row in enumerate(m)]
    if kind == "string":
        return [[f"{3 * x}/3" for x in row] for row in m]
    if kind == "tuple-rows":
        return [tuple(row) for row in m]
    assert any(2 in row for row in m)
    return [[Two.TWO if x == 2 else x for x in row] for row in m]


# caller: (the call on a matrix, an int matrix it accepts)
ENTRY_CALLERS = {
    "bareiss_det": (bareiss_det, [[2, 1, 3], [0, 2, 5], [1, 4, 2]]),
    "rank1_update_det_check": (
        lambda A: rank1_update_det_check(A, [1, 0, 0, 1]),
        [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]),
    "fhsv_covolume": (lambda A: fhsv_covolume(A, [2, 1] + [0] * 8),
                      enriques_invariant_gram()),
    "basis_change": (
        lambda U: random_lattice(random.Random(4)).basis_change(U),
        [[1, 2, 0], [0, 1, 0], [2, 3, 1]]),
}


class TestEntryKinds:
    """Every caller reads its matrix through _integral, which picks its
    path by the set of entry types; each way of writing the same matrix
    gives the integers and result that inputs.exact and a per-entry
    scaling give, and True or a float is refused whatever the path."""

    @pytest.mark.parametrize("kind", ["int", "int-and-fraction", "string",
                                      "tuple-rows", "int-enum"])
    @pytest.mark.parametrize("caller", ENTRY_CALLERS)
    def test_same_matrix_same_result(self, monkeypatch, caller, kind):
        call, m = ENTRY_CALLERS[caller]
        written = written_as(m, kind)
        scaled, scaled_calls = lattice.scaled, []
        monkeypatch.setattr(lattice, "scaled", lambda coeffs: scaled_calls
                            .append(1) or scaled(coeffs))
        ints, d = lattice._integral(written)
        # an all-int matrix is copied; any other goes through scaled
        assert scaled_calls == ([] if kind in ("int", "tuple-rows") else [1])
        assert (ints, d) == scaled_per_entry(written) == (m, 1)
        assert all(type(x) is int for row in ints for x in row)
        assert call(written) == call([[F(x) for x in row] for row in m])

    def test_rational_entries(self):
        """An int, Fractions, rational strings and an IntEnum member in
        one matrix with denominators 2, 3, 4 and 6."""
        m = [[F(1, 2), 3, "2/3"], [0, Two.TWO, F(5, 4)], ["-1/6", 1, 2]]
        ints, d = lattice._integral(m)
        assert (ints, d) == scaled_per_entry(m)
        assert d == 12 and bareiss_det(m) == gauss_det(ints) / d ** 3

    @pytest.mark.parametrize("bad", [True, 1.5])
    @pytest.mark.parametrize("caller", ENTRY_CALLERS)
    def test_refused(self, caller, bad):
        call, m = ENTRY_CALLERS[caller]
        for kind in ("int", "int-and-fraction", "string"):
            written = written_as(m, kind)
            written[0] = [bad, *written[0][1:]]
            with pytest.raises(LatticeError, match=re.escape(
                    f"entry {bad!r} is not an int, a Fraction or a "
                    "rational string")):
                call(written)
