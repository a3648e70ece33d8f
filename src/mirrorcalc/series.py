"""Truncated formal power series with exact rational coefficients.

Every series carries an explicit truncation order (inclusive) and a
variable tag ("x", "q", "psi-inv", ...).  Binary operations require
matching tags and truncate to the minimum of the two orders; nothing
ever extends precision silently.  All coefficients are
``fractions.Fraction``; no floating point enters anywhere.

The coefficient arithmetic of products, quotients, exp, log,
composition and reversion runs on Python ``int``: each operand is
scaled to integers over one common denominator, and each result
coefficient is reduced to a ``Fraction`` once.
"""

from __future__ import annotations

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


def _frac(v: Scalar) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _scaled(coeffs) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over their least common
    denominator, and that denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _solve(c: list[int], dc: int, w: list[int],
           d: list[int]) -> list[Fraction]:
    """The triangular recurrence
    out[m] = (c[m]/dc + sum_{k=1}^{m} w[k] out[m-k]) / d[m], m = 0..len(c)-1,
    for integers c, dc, w and nonzero integers d.

    The solved out[j] are kept as integers over their running least
    common denominator, so each inner sum runs on int and each out[m]
    is reduced once.  Integral results keep that denominator at 1.
    """
    out: list[Fraction] = []
    nums: list[int] = []          # out[j] * den, oldest first
    den = 1
    for m in range(len(c)):
        s = sum(map(mul, w[1:m + 1], reversed(nums)))
        f = Fraction(c[m] * den + dc * s, dc * den * d[m])
        out.append(f)
        if den % f.denominator:
            g = f.denominator // gcd(den, f.denominator)
            nums = [v * g for v in nums]
            den *= g
        nums.append(f.numerator * (den // f.denominator))
    return out


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """The product of two integer series, (a b)[k] = sum_j a[j] b[k-j],
    k = 0..n."""
    return [sum(map(mul, a[:k + 1], b[k::-1])) for k in range(n + 1)]


def _unit_divide(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer series, to the length of a, on int:
    out[m] = a[m] - sum_{k=1}^{m} b[k] out[m-k].  b[0] != 1 raises
    NonUnitError."""
    if b[0] != 1:
        raise NonUnitError(f"divisor must have constant term 1, not {b[0]}")
    out: list[int] = []
    for m, v in enumerate(a):
        out.append(v - sum(map(mul, b[1:m + 1], reversed(out))))
    return out


def _log_derivative(f: list[int]) -> list[int]:
    """t f'/f for an integer series f with f[0] = 1, on int."""
    return _unit_divide([m * c for m, c in enumerate(f)], f)


class ExactSeries:
    """A polynomial truncation of a formal power series over Q.

    Immutable.  ``coeffs[n]`` is the coefficient of t**n for
    n = 0..order.
    """

    __slots__ = ("coeffs", "order", "tag")

    def __init__(self, coeffs: Iterable[Scalar], tag: str = "q",
                 order: int | None = None):
        cs = [_frac(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise SeriesError("order must be non-negative")
        if len(cs) < order + 1:
            cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs[: order + 1]))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("ExactSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, order: int, tag: str = "q") -> "ExactSeries":
        return cls([_frac(value)], tag=tag, order=order)

    @classmethod
    def zero(cls, order: int, tag: str = "q") -> "ExactSeries":
        return cls.constant(0, order, tag)

    @classmethod
    def one(cls, order: int, tag: str = "q") -> "ExactSeries":
        return cls.constant(1, order, tag)

    @classmethod
    def identity(cls, order: int, tag: str = "q") -> "ExactSeries":
        """The series t itself."""
        if order < 1:
            raise SeriesError("identity needs order >= 1")
        return cls([0, 1], tag=tag, order=order)

    # -- basics -------------------------------------------------------

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*{self.tag}^{n}" if n else f"{c}")
        body = " + ".join(terms) if terms else "0"
        return f"ExactSeries({body} + O({self.tag}^{self.order + 1}))"

    def __eq__(self, other):
        if not isinstance(other, ExactSeries):
            return NotImplemented
        return (self.tag == other.tag and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.tag, self.order, self.coeffs))

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _check_tag(self, other: "ExactSeries"):
        if self.tag != other.tag:
            raise TagMismatchError(
                f"variable tags differ: {self.tag!r} vs {other.tag!r}")

    def truncate(self, order: int) -> "ExactSeries":
        if order > self.order:
            raise SeriesError("cannot extend truncation order")
        return ExactSeries(self.coeffs[: order + 1], tag=self.tag, order=order)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactSeries.constant(other, self.order, self.tag)
        if not isinstance(other, ExactSeries):
            return NotImplemented
        self._check_tag(other)
        n = min(self.order, other.order)
        return ExactSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)],
                           tag=self.tag, order=n)

    __radd__ = __add__

    def __neg__(self):
        return ExactSeries([-c for c in self.coeffs], tag=self.tag, order=self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactSeries.constant(other, self.order, self.tag)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _frac(other)
            return ExactSeries([c * k for c in self.coeffs],
                               tag=self.tag, order=self.order)
        if not isinstance(other, ExactSeries):
            return NotImplemented
        self._check_tag(other)
        n = min(self.order, other.order)
        a, da = _scaled(self.coeffs[:n + 1])
        b, db = _scaled(other.coeffs[:n + 1])
        return ExactSeries([Fraction(v, da * db) for v in _convolve(a, b, n)],
                           tag=self.tag, order=n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _frac(other)
            if not k:
                raise ZeroDivisionError("division by zero scalar")
            return ExactSeries([c / k for c in self.coeffs],
                               tag=self.tag, order=self.order)
        if not isinstance(other, ExactSeries):
            return NotImplemented
        self._check_tag(other)
        if not other.coeffs[0]:
            raise NonUnitError("divisor has zero constant term")
        n = min(self.order, other.order)
        # out[m] = (a[m] - sum_{k>=1} b[k] out[m-k]) / b[0], with a = A/da
        # and b = B/db: c = A db over da, w = -B, divisor B[0].
        a, da = _scaled(self.coeffs[:n + 1])
        b, db = _scaled(other.coeffs[:n + 1])
        out = _solve([v * db for v in a], da, [-v for v in b],
                     [b[0]] * (n + 1))
        return ExactSeries(out, tag=self.tag, order=n)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return ExactSeries.one(self.order, self.tag) / self ** (-k)
        result = ExactSeries.one(self.order, self.tag)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- transcendental-style operations --------------------------------

    def exp(self) -> "ExactSeries":
        """Formal exponential; requires zero constant term.

        Uses the recurrence f' = a' f, i.e.
        n f_n = sum_{k=1}^{n} k a_k f_{n-k}.
        """
        if self.coeffs[0]:
            raise NonUnitError("exp needs zero constant term")
        n = self.order
        a, den = _scaled(self.coeffs)
        out = _solve([1] + [0] * n, 1, [k * v for k, v in enumerate(a)],
                     [1] + [m * den for m in range(1, n + 1)])
        return ExactSeries(out, tag=self.tag, order=n)

    def log_derivative(self) -> "ExactSeries":
        """The logarithmic derivative t f'/f = (t d/dt) log f, by one
        division; a zero constant term raises NonUnitError.
        """
        return ExactSeries([n * c for n, c in enumerate(self.coeffs)],
                           tag=self.tag, order=self.order) / self

    def log(self) -> "ExactSeries":
        """Formal logarithm; requires constant term 1.

        The term-by-term integral of the logarithmic derivative D:
        the t^m coefficient is D[m]/m.
        """
        if self.coeffs[0] != 1:
            raise NonUnitError("log needs constant term 1")
        D = self.log_derivative().coeffs
        return ExactSeries([0, *(D[m] / m for m in range(1, self.order + 1))],
                           tag=self.tag, order=self.order)

    # -- composition ----------------------------------------------------

    def compose(self, inner: "ExactSeries") -> "ExactSeries":
        """Substitute ``inner`` (zero constant term) into this series.

        The result lives in the inner series' variable.  Horner in the
        inner variable: since ``inner`` starts at t^1, the partial sum
        from coefficient k upward is needed only to order n - k, so the
        whole substitution costs O(n^3) integer products.
        """
        if inner.coeffs[0]:
            raise CompositionError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        c, dc = _scaled(self.coeffs[:n + 1])
        x, dx = _scaled(inner.coeffs[:n + 1])
        # acc holds the partial sum from coefficient k up, to order n - k,
        # as numerators over dc * dx^(n-k).
        acc = [c[n]]
        scale = 1
        for k in range(n - 1, -1, -1):
            scale *= dx
            acc = [c[k] * scale] + [sum(map(mul, x[1:j + 1], acc[j - 1::-1]))
                                    for j in range(1, n - k + 1)]
        den = dc * scale
        return ExactSeries([Fraction(v, den) for v in acc],
                           tag=inner.tag, order=n)

    def reverse(self, *outer: "ExactSeries"):
        """Compositional inverse g of a series a1*t + O(t^2), a1 != 0.

        Rescales to the monic h(s) = self(s/a1) = s + sum_{k>=2} H_k s^k / L
        with integers H_k and L, and solves h(g(t)) = t for g degree by
        degree; the inverse is g/a1.  Weighted homogeneity makes
        G_m = g_m L^(m-1) and P_k[m] = [t^m] g^k L^(m-k) integers, and
        the running power table P costs O(n^3) integer products.

        Given series f_1, ..., f_r, returns the tuple
        (inverse, f_1(inverse), ..., f_r(inverse)), all tagged as this
        series and each transport read from the same table in O(n^2):
        [t^m] f(inverse) = sum_k f_k P_k[m] / (a1^k L^(m-k)).
        The table is dropped on return.
        """
        if self.coeffs[0]:
            raise CompositionError("reversion needs zero constant term")
        if self.order < 1 or not self.coeffs[1]:
            raise CompositionError("reversion needs nonzero linear term")
        n = self.order
        a1 = self.coeffs[1]
        H, L = _scaled([a / a1 ** k for k, a in enumerate(self.coeffs)])
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
        p, r = a1.numerator, a1.denominator
        inverse = ExactSeries([0, *(Fraction(G[m] * r, L ** (m - 1) * p)
                                    for m in range(1, n + 1))],
                              tag=self.tag, order=n)
        if not outer:
            return inverse

        def transport(f: "ExactSeries") -> "ExactSeries":
            # over the common denominator dc p^N L^m, the k-th term is
            # c_k r^k L^k p^(N-k) P_k[m], a1 = p/r
            N = min(f.order, n)
            c, dc = _scaled(f.coeffs[:N + 1])
            w = [v * (r * L) ** k * p ** (N - k) for k, v in enumerate(c)]
            return ExactSeries(
                [f.coeffs[0], *(Fraction(sum(map(mul, w[1:m + 1],
                                                 map(itemgetter(m),
                                                     P[1:m + 1]))),
                                         dc * p ** N * L ** m)
                                for m in range(1, N + 1))],
                tag=self.tag, order=N)

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
        return cls([Fraction(s) for s in d["coefficients"]],
                   tag=d["variable_tag"], order=int(d["order"]))

