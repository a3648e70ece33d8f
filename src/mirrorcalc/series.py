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
when ``den == 1``.  Every operation computes on that form, by the int
kernels of ``kernels``, and ``coeffs`` builds the ``Fraction``s.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Union

from . import kernels
from .inputs import exact, scaled
from .kernels import (CompositionError, NonUnitError, SeriesError,
                      TagMismatchError, _convolve)

Scalar = Union[int, str, Fraction]


def _exact(v) -> Fraction:
    """``inputs.exact(v)``, its ValueError raised as SeriesError."""
    try:
        return exact(v)
    except ValueError as exc:
        raise SeriesError(str(exc)) from None


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
        if type(order) is not int or not isinstance(tag, str):   # no bool
            raise SeriesError(f"order {reprlib.repr(order)} must be an int "
                              f"and tag {reprlib.repr(tag)} a str")
        if order < 0:
            raise SeriesError("order must be non-negative")
        return cls.from_nums(
            *scaled(cs[:order + 1] + [0] * (order + 1 - len(cs))), tag)

    def __setattr__(self, name, value=None):
        raise AttributeError("ExactSeries is immutable")

    __delattr__ = __setattr__

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
        nums, den = kernels.reduced(nums, den)
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
        if self.den == 1:
            return tuple(map(Fraction, self.nums))
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
        return ExactSeries.from_nums(*kernels.divide(
            self.nums, self.den, other.nums, other.den), self.tag)

    def __pow__(self, k: int):
        if type(k) is not int:                  # no bool
            raise SeriesError(f"exponent {reprlib.repr(k)} must be an int")
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
        """Formal exponential; requires zero constant term."""
        return ExactSeries.from_nums(*kernels.exp(self.nums, self.den),
                                     self.tag)

    def log_derivative(self) -> "ExactSeries":
        """The logarithmic derivative t f'/f = (t d/dt) log f; a zero
        constant term raises NonUnitError."""
        return ExactSeries.from_nums(*kernels.log_derivative(self.nums),
                                     self.tag)

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

    def reverse(self) -> "ExactSeries":
        """Compositional inverse g of f = a1 t + O(t^2), a1 != 0, in this
        tag: each ``compose`` in g = (t - (f - a1 t)(g)) / a1 fixes one
        more term."""
        if self.nums[0]:
            raise CompositionError("reversion needs zero constant term")
        if self.order < 1 or not self.nums[1]:
            raise CompositionError("reversion needs nonzero linear term")
        t, a1 = ExactSeries.identity(self.order, self.tag), self[1]
        g, rest = t / a1, self - t * a1
        for _ in range(self.order - 1):
            g = (t - rest.compose(g)) / a1
        return g
