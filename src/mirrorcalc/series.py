"""Truncated formal power series with exact rational coefficients.

Every series carries an explicit truncation order (inclusive) and a
variable tag ("x", "q", "psi-inv", ...).  Binary operations require
matching tags and truncate to the minimum of the two orders; nothing
ever extends precision silently.  No floating point enters anywhere:
every value a caller hands in (coefficients, constants, scalar operands)
passes ``_exact``, which admits only ints, Fractions and rational strings.

A series is stored as Python ``int`` numerators ``nums`` over one
denominator ``den > 0`` with gcd(den, *nums) = 1: ``den`` is the least
common denominator of the coefficients, so a series is integral exactly
when ``den == 1``.  Every operation computes on that form, and
``coeffs`` builds the ``fractions.Fraction`` coefficients when read.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Union

Scalar = Union[int, str, Fraction]


class SeriesError(ValueError):
    """Base class for series domain errors."""


class TagMismatchError(SeriesError):
    """Raised when two series in different formal variables are combined."""


class NonUnitError(SeriesError):
    """Raised when division/log requires an invertible constant term."""


class CompositionError(SeriesError):
    """Raised when substitution or reversion preconditions fail."""


def _exact(v) -> Fraction:
    """v as a Fraction if it is an int (not a bool), a Fraction or a
    rational string; anything else raises SeriesError."""
    if isinstance(v, (int, Fraction, str)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise SeriesError(f"{reprlib.repr(v)} is not an exact rational "
                      "(an int, a Fraction or a rational string)")


def _scaled(coeffs) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` (ints or Fractions) over their
    least common denominator, and that denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _solve(c: list[int], dc: int, w, d: list[int]) -> tuple[list[int], int]:
    """The triangular recurrence
    out[m] = (c[m]/dc + sum_{k=1}^{m} w[k] out[m-k]) / d[m], m = 0..len(c)-1,
    for integers c, dc, w and nonzero integers d.

    The solved out[j] are kept as integer numerators over their running
    least common denominator, which is returned with them; each out[m]
    is reduced once, and integral results keep that denominator at 1.
    """
    nums: list[int] = []          # out[j] * den, oldest first
    den = 1
    for m in range(len(c)):
        s = sum(map(mul, w[1:m + 1], reversed(nums)))
        p, q = c[m] * den + dc * s, dc * den * d[m]
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        p, q = p // g, q // g
        if den % q:
            k = q // gcd(den, q)
            nums = [v * k for v in nums]
            den *= k
        nums.append(p * (den // q))
    return nums, den


def _convolve(a, b, n: int) -> list[int]:
    """The product of two integer series, (a b)[k] = sum_j a[j] b[k-j],
    k = 0..n."""
    return [sum(map(mul, a[:k + 1], b[k::-1])) for k in range(n + 1)]


class ExactSeries:
    """A polynomial truncation of a formal power series over Q.

    Immutable.  The coefficient of t**n, n = 0..order, is
    nums[n] / den; ``coeffs`` lists them as Fractions.  Every series is
    built by ``from_nums``.
    """

    __slots__ = ("nums", "den", "order", "tag")

    def __new__(cls, coeffs: Iterable[Scalar], tag: str = "q",
                order: int | None = None):
        cs = [_exact(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise SeriesError("order must be non-negative")
        return cls.from_nums(
            *_scaled(cs[:order + 1] + [0] * (order + 1 - len(cs))), tag)

    def __setattr__(self, name, value):
        raise AttributeError("ExactSeries is immutable")

    def __reduce__(self):
        return ExactSeries.from_nums, (self.nums, self.den, self.tag)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_nums(cls, nums, den: int, tag: str) -> "ExactSeries":
        """The series nums[n]/den, n < len(nums), for ints nums and den != 0,
        reduced to den > 0 and gcd(den, *nums) = 1."""
        nums = list(nums)
        if not nums or not den:
            raise SeriesError("a series needs a numerator and den != 0")
        if den != 1:
            if den < 0:
                nums, den = [-v for v in nums], -den
            if (g := gcd(den, *nums)) != 1:
                nums, den = [v // g for v in nums], den // g
        s = object.__new__(cls)
        for name, v in zip(ExactSeries.__slots__,
                           (tuple(nums), den, len(nums) - 1, tag)):
            object.__setattr__(s, name, v)
        return s

    @classmethod
    def constant(cls, value: Scalar, order: int, tag: str = "q") -> "ExactSeries":
        v = _exact(value)
        return cls.from_nums([v.numerator] + [0] * order, v.denominator, tag)

    @classmethod
    def identity(cls, order: int, tag: str = "q") -> "ExactSeries":
        """The series t itself."""
        if order < 1:
            raise SeriesError("identity needs order >= 1")
        return cls.from_nums([0, 1] + [0] * (order - 1), 1, tag)

    # -- basics -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on each read."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def __repr__(self):
        body = " + ".join(f"{c}*{self.tag}^{n}" if n else f"{c}"
                          for n, c in enumerate(self.coeffs) if c) or "0"
        return f"ExactSeries({body} + O({self.tag}^{self.order + 1}))"

    def __eq__(self, other):
        if not isinstance(other, ExactSeries):
            return NotImplemented
        return (self.tag, self.den, self.nums) == (other.tag, other.den,
                                                    other.nums)

    def __hash__(self):
        return hash((self.tag, self.den, self.nums))

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den)

    def _check_tag(self, other: "ExactSeries"):
        if self.tag != other.tag:
            raise TagMismatchError(
                f"variable tags differ: {self.tag!r} vs {other.tag!r}")

    def truncate(self, order: int) -> "ExactSeries":
        if order > self.order:
            raise SeriesError("cannot extend truncation order")
        return ExactSeries.from_nums(self.nums[:order + 1], self.den, self.tag)

    # -- ring operations (a scalar operand passes _exact) -------------

    def __add__(self, other):
        if not isinstance(other, ExactSeries):
            other = ExactSeries.constant(other, self.order, self.tag)
        self._check_tag(other)
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        return ExactSeries.from_nums(
            [a * ka + b * kb for a, b in zip(self.nums, other.nums)],
            den, self.tag)

    __radd__ = __add__

    def __neg__(self):
        return ExactSeries.from_nums([-v for v in self.nums], self.den,
                                     self.tag)

    def __sub__(self, other):
        return self + -(other if isinstance(other, ExactSeries)
                        else _exact(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ExactSeries):
            v = _exact(other)
            return ExactSeries.from_nums([a * v.numerator for a in self.nums],
                                         self.den * v.denominator, self.tag)
        self._check_tag(other)
        n = min(self.order, other.order)
        return ExactSeries.from_nums(_convolve(self.nums, other.nums, n),
                                     self.den * other.den, self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, ExactSeries):
            return self * (1 / _exact(other))
        self._check_tag(other)
        b = other.nums
        if not b[0]:
            raise NonUnitError("divisor has zero constant term")
        n = min(self.order, other.order)
        # out[m] = (a[m] - sum_{k>=1} b[k] out[m-k]) / b[0], with a = A/da
        # and b = B/db: c = A db over da, w = -B, divisor B[0].
        return ExactSeries.from_nums(*_solve(
            [v * other.den for v in self.nums[:n + 1]], self.den,
            [-v for v in b[:n + 1]], [b[0]] * (n + 1)), self.tag)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return ExactSeries.constant(1, self.order, self.tag) / self ** -k
        result = self if k else ExactSeries.constant(1, self.order, self.tag)
        for bit in bin(k)[3:]:          # square and multiply
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- transcendental-style operations --------------------------------

    def exp(self) -> "ExactSeries":
        """Formal exponential; requires zero constant term.

        Uses the recurrence f' = a' f, i.e.
        n f_n = sum_{k=1}^{n} k a_k f_{n-k}.
        """
        a, n = self.nums, self.order
        if a[0]:
            raise NonUnitError("exp needs zero constant term")
        return ExactSeries.from_nums(*_solve(
            [1] + [0] * n, 1, [k * v for k, v in enumerate(a)],
            [1] + [m * self.den for m in range(1, n + 1)]), self.tag)

    def log_derivative(self) -> "ExactSeries":
        """The logarithmic derivative t f'/f = (t d/dt) log f, by one
        division on the numerators (a constant factor of f drops out);
        a zero constant term raises NonUnitError."""
        a = self.nums
        if not a[0]:
            raise NonUnitError("log_derivative needs nonzero constant term")
        return ExactSeries.from_nums(*_solve(
            [m * v for m, v in enumerate(a)], 1, [-v for v in a],
            [a[0]] * len(a)), self.tag)

    def log(self) -> "ExactSeries":
        """Formal logarithm; requires constant term 1.

        The term-by-term integral of the logarithmic derivative D:
        the t^m coefficient is D[m]/m.
        """
        if self.nums[0] != self.den:
            raise NonUnitError("log needs constant term 1")
        D = self.log_derivative()
        k = lcm(*range(1, self.order + 1))
        return ExactSeries.from_nums(
            [0, *(D.nums[m] * (k // m) for m in range(1, self.order + 1))],
            D.den * k, self.tag)

    # -- composition ----------------------------------------------------

    def compose(self, inner: "ExactSeries") -> "ExactSeries":
        """Substitute ``inner`` (zero constant term) into this series.

        The result lives in the inner series' variable.  Horner in the
        inner variable: since ``inner`` starts at t^1, the partial sum
        from coefficient k upward is needed only to order n - k, so the
        whole substitution costs O(n^3) integer products.
        """
        if inner.nums[0]:
            raise CompositionError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        c, x, dx = self.nums, inner.nums, inner.den
        # acc holds the partial sum from coefficient k up, to order n - k,
        # as numerators over den * dx^(n-k).
        acc = [c[n]]
        scale = 1
        for k in range(n - 1, -1, -1):
            scale *= dx
            acc = [c[k] * scale] + [sum(map(mul, x[1:j + 1], acc[j - 1::-1]))
                                    for j in range(1, n - k + 1)]
        return ExactSeries.from_nums(acc, self.den * scale, inner.tag)

    def reverse(self, *outer: "ExactSeries", tag: str | None = None):
        """Compositional inverse g of a series a1*t + O(t^2), a1 != 0.

        Rescales to the monic h(s) = self(s/a1) = s + sum_{k>=2} H_k s^k / L
        with integers H_k and L, and solves h(g(t)) = t for g degree by
        degree; the inverse is g/a1.  Weighted homogeneity makes
        G_m = g_m L^(m-1) and P_k[m] = [t^m] g^k L^(m-k) integers, and
        the running power table P costs O(n^3) integer products.

        Given series f_1, ..., f_r, returns the tuple
        (inverse, f_1(inverse), ..., f_r(inverse)), each transport read
        from the same table in O(n^2):
        [t^m] f(inverse) = sum_k f_k P_k[m] / (a1^k L^(m-k)).
        The table is dropped on return.  Every result is a series in
        ``tag``, by default this series' own variable.
        """
        a, n, D = self.nums, self.order, self.den
        if a[0]:
            raise CompositionError("reversion needs zero constant term")
        if n < 1 or not a[1]:
            raise CompositionError("reversion needs nonzero linear term")
        tag = self.tag if tag is None else tag
        # a_k / a1^k = a[k] D^(k-1) / a[1]^k, over a[1]^n
        h = ExactSeries.from_nums([0, *(a[k] * D ** (k - 1) * a[1] ** (n - k)
                                        for k in range(1, n + 1))],
                                  a[1] ** n, tag)
        H, L = h.nums, h.den
        HL = [0, 0] + [H[k] * L ** (k - 2) for k in range(2, n + 1)]
        G = [0, 1]
        P = [None, G] + [[0] * (n + 1) for _ in range(2, n + 1)]
        for m in range(2, n + 1):
            # [t^m] g^k = sum_{j>=1} g_j [t^(m-j)] g^(k-1); g_1 = 1
            for k in range(2, m):
                P[k][m] = sum(map(mul, G[1:m - k + 2],
                                  P[k - 1][m - 1:k - 2:-1]))
            P[m][m] = 1
            G.append(-sum(HL[k] * P[k][m] for k in range(2, m + 1)))
        g = gcd(a[1], D)
        p, r = a[1] // g, D // g          # a1 = p/r, r > 0
        inverse = ExactSeries.from_nums(
            [0, *(G[m] * r * L ** (n - m) for m in range(1, n + 1))],
            L ** (n - 1) * p, tag)
        if not outer:
            return inverse

        def transport(f: "ExactSeries") -> "ExactSeries":
            # over the common denominator df p^N L^N, the k-th term of
            # [t^m] is c_k r^k L^k p^(N-k) P_k[m] L^(N-m), a1 = p/r
            N = min(f.order, n)
            c, scale = f.nums, p ** N * L ** N
            w = [v * (r * L) ** k * p ** (N - k)
                 for k, v in enumerate(c[:N + 1])]
            return ExactSeries.from_nums(
                [c[0] * scale, *(sum(map(mul, w[1:m + 1],
                                         map(itemgetter(m), P[1:m + 1])))
                                 * L ** (N - m) for m in range(1, N + 1))],
                f.den * scale, tag)

        return (inverse, *map(transport, outer))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "variable_tag": self.tag,
            "order": self.order,
            "coefficients": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExactSeries":
        return cls(d["coefficients"], tag=d["variable_tag"],
                   order=int(d["order"]))
