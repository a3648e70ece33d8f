"""The closed-form divisor factor on the moduli line: ingestion of
family data, exponent assembly, divisor-level equality, and numeric
evaluation of the associated Green potential.

Points on the line are exact where possible: roots of unity are stored
symbolically as (order, index); other finite points are complex floats
compared to a relative 1e-12 (REL_TOL); infinity is first class but
never carries a stored exponent (its exponent is forced by the degree
balance and reported separately).
"""

from __future__ import annotations

import cmath
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .inputs import exact, parse_complex    # as the CLI reads --eval-at

REL_TOL = 1e-12  # relative tolerance of _coincide


class FamilyError(ValueError):
    pass


def _json_int(x, what: str) -> int:
    """x itself if it is an int (not a bool), else FamilyError."""
    if type(x) is not int:
        raise FamilyError(f"{what} {reprlib.repr(x)} is not an integer")
    return x


def _distance(a: complex, b: complex) -> float:
    """|a - b|, or inf where the modulus overflows float range."""
    try:
        return abs(a - b)
    except OverflowError:
        return math.inf


def _coincide(a: complex, b: complex) -> bool:
    """|a - b| <= REL_TOL * max(|a|, |b|): one test at every scale, so
    points of modulus 1e-14 stay apart, a point at 1e14 is not split by
    rounding, and only 0 itself coincides with 0."""
    return _distance(a, b) <= REL_TOL * max(math.hypot(a.real, a.imag),
                                            math.hypot(b.real, b.imag))


@dataclass(frozen=True)
class Point:
    """A point of the projective line: "inf", a root of unity
    ("zeta", n, k) meaning exp(2 pi i k/n), or a complex value.
    """

    kind: str                       # "inf" | "zeta" | "value"
    n: int = 0
    k: int = 0
    value: complex = 0j

    @classmethod
    def infinity(cls) -> "Point":
        return cls(kind="inf")

    @classmethod
    def root_of_unity(cls, n: int, k: int) -> "Point":
        if n < 1:
            raise FamilyError("root order must be positive")
        g = math.gcd(k % n, n)
        return cls(kind="zeta", n=n // g, k=(k % n) // g)

    @classmethod
    def of(cls, value: complex) -> "Point":
        return cls(kind="value", value=complex(value))

    def is_infinity(self) -> bool:
        return self.kind == "inf"

    def to_complex(self) -> complex:
        if self.kind == "inf":
            raise FamilyError("infinity has no finite coordinate")
        if self.kind == "zeta":
            # k / n first: int division is correctly rounded at any size
            return cmath.exp(2j * math.pi * (self.k / self.n))
        return self.value

    def same_as(self, other: "Point") -> bool:
        if self.kind == "inf" or other.kind == "inf":
            return self.kind == other.kind
        if self.kind == "zeta" and other.kind == "zeta":
            return (self.n, self.k) == (other.n, other.k)
        return _coincide(self.to_complex(), other.to_complex())

    def to_json(self):
        if self.kind == "inf":
            return "infinity"
        if self.kind == "zeta":
            return {"root_of_unity": [self.n, self.k]}
        v = self.value
        return {"value": f"{v.real}{v.imag:+}i" if v.imag else f"{v.real}"}

    @classmethod
    def from_json(cls, obj) -> "Point":
        if obj == "infinity":
            return cls.infinity()
        if isinstance(obj, dict) and "root_of_unity" in obj:
            nk = obj["root_of_unity"]
            if type(nk) is not list or len(nk) != 2:
                raise FamilyError("a root_of_unity point needs [n, k], not "
                                  f"{reprlib.repr(nk)}")
            n, k = nk
            return cls.root_of_unity(_json_int(n, "root order"),
                                     _json_int(k, "root index"))
        if isinstance(obj, dict) and "value" in obj:
            try:
                return cls.of(parse_complex(obj["value"]))
            except ValueError as exc:
                raise FamilyError(f"point value {exc}") from None
        raise FamilyError(f"unrecognized point: {reprlib.repr(obj)}")


@dataclass(frozen=True)
class FamilyData:
    """Divisor data of a one-parameter family: Euler number of the
    general fiber, div(Xi) with multiplicities, ramification points
    with indices r_j >= 2, and the double-point locus with r_k >= 1.
    """

    chi: int
    xi_divisor: Tuple[Tuple[Point, int], ...] = ()
    ramification: Tuple[Tuple[Point, int], ...] = ()
    odp_points: Tuple[Tuple[Point, int], ...] = ()

    def __post_init__(self):
        for pt, r in self.ramification:
            if r < 2:
                raise FamilyError("ramification index must be >= 2")
        for pt, r in self.odp_points:
            if r < 1:
                raise FamilyError("double-point index must be >= 1")
        pts = [(name, pt) for name, pairs in (
                   ("xi_divisor", self.xi_divisor),
                   ("ramification", self.ramification),
                   ("odp_points", self.odp_points)) for pt, _ in pairs]
        for i, (name, pt) in enumerate(pts):
            for other, pt2 in pts[i + 1:]:
                if pt.same_as(pt2):
                    raise FamilyError(
                        f"duplicate point in {name}" if other == name else
                        f"point lists {name} and {other} overlap; "
                        "family data ill-posed")

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi,
            "xi_divisor": [{"point": pt.to_json(), "multiplicity": m}
                           for pt, m in self.xi_divisor],
            "ramification": [{"point": pt.to_json(), "r": r}
                             for pt, r in self.ramification],
            "odp_points": [{"point": pt.to_json(), "r": r}
                           for pt, r in self.odp_points],
        }

    @classmethod
    def quintic_mirror(cls) -> "FamilyData":
        """chi = 200, div(Xi) = [0], reduced double-point divisor at the
        fifth roots of unity, no ramification.
        """
        return cls(
            chi=200,
            xi_divisor=((Point.of(0), 1),),
            ramification=(),
            odp_points=tuple((Point.root_of_unity(5, k), 1)
                             for k in range(5)),
        )


@dataclass(frozen=True)
class WeightedDivisor:
    """Formal sum of points with rational exponents, a rational power
    of the section Xi and of the vector field, and an outer norm root.

    Two weighted divisors are equal iff root-normalized exponent data
    coincide (every exponent times overall_root).
    """

    entries: Tuple[Tuple[Point, Fraction], ...]
    xi_power: Fraction
    vector_field_power: Fraction
    overall_root: Fraction

    @property
    def infinity_exponent(self) -> Fraction:
        """On P^1 the total degree is zero, which forces the exponent at
        infinity to minus the sum of the entries' exponents."""
        return -sum((e for _, e in self.entries), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "entries": [{"point": pt.to_json(), "exponent": str(e)}
                        for pt, e in self.entries],
            "xi_power": str(self.xi_power),
            "vector_field_power": str(self.vector_field_power),
            "overall_root": str(self.overall_root),
            "infinity_exponent": str(self.infinity_exponent),
        }


def assemble_factor(data: FamilyData) -> WeightedDivisor:
    """Exponent assembly of the closed-form factor: +2 r_k at each
    double point, -(48+chi) m_i at each zero/pole of Xi, -12 (r_j - 1)
    at each ramification point; Xi enters to the power 48+chi, the
    vector field to the power 12, under an outer 1/6 root.
    """
    w = 48 + data.chi
    entries: List[Tuple[Point, Fraction]] = []
    for pt, r in data.odp_points:
        if not pt.is_infinity():
            entries.append((pt, Fraction(2 * r)))
    for pt, m in data.xi_divisor:
        if not pt.is_infinity():
            entries.append((pt, Fraction(-w * m)))
    for pt, r in data.ramification:
        if not pt.is_infinity():
            entries.append((pt, Fraction(-12 * (r - 1))))
    return WeightedDivisor(entries=tuple(entries),
                           xi_power=Fraction(w),
                           vector_field_power=Fraction(12),
                           overall_root=Fraction(1, 6))


def divisor_equal(a: WeightedDivisor, b: WeightedDivisor) -> bool:
    """Equality after multiplying every exponent (point entries,
    xi_power, vector_field_power) by the respective overall_root.
    """
    if a.xi_power * a.overall_root != b.xi_power * b.overall_root:
        return False
    if (a.vector_field_power * a.overall_root
            != b.vector_field_power * b.overall_root):
        return False
    ours, remaining = ([(pt, e * w.overall_root) for pt, e in w.entries
                        if e and w.overall_root] for w in (a, b))
    for pt, exp in ours:
        for i, (pt2, exp2) in enumerate(remaining):
            if pt.same_as(pt2):
                if exp != exp2:
                    return False
                remaining.pop(i)
                break
        else:
            return False
    return not remaining


def quintic_normal_form() -> WeightedDivisor:
    """The rewritten quintic factor: {-62 at 0, +1/2 at each fifth root
    of unity}, Xi-power 62, vector-field power 3, outer root 2/3.
    """
    entries = [(Point.of(0), Fraction(-62))]
    entries += [(Point.root_of_unity(5, k), Fraction(1, 2)) for k in range(5)]
    return WeightedDivisor(entries=tuple(entries),
                           xi_power=Fraction(62),
                           vector_field_power=Fraction(3),
                           overall_root=Fraction(2, 3))


def green_potential(data: FamilyData, psi: complex) -> float:
    """log | prod (psi - D_k)^{2 r_k} / ((psi - P_i)^{(48+chi) m_i}
    (psi - R_j)^{12 (r_j - 1)}) | at a finite point psi away from the
    divisor support.
    """
    factor = assemble_factor(data)
    total = 0.0
    for pt, exp in factor.entries:
        if _coincide(complex(psi), z := pt.to_complex()):
            raise FamilyError(
                f"psi hits a divisor point with local exponent {exp}")
        try:
            total += float(exp) * math.log(_distance(complex(psi), z))
        except OverflowError:       # an exponent past float range
            total = math.inf
    if not math.isfinite(total):
        raise FamilyError(f"the Green potential at psi = {psi} is not finite")
    return total


def residue_balance_check(data: FamilyData,
                          boundary: Tuple[Fraction, Fraction, Fraction]
                          ) -> Fraction:
    """The degree-balance combination
    {12 a + (48+chi) b - 12 c} - 2 deg D* + 12 deg R + 12 chi(S)
    + (48+chi) deg Xi, with chi(S) = 2 for the projective line.

    Returns the exact value; zero iff the boundary triple (a, b, c)
    satisfies the balance.  An entry ``inputs.exact`` refuses raises
    FamilyError.
    """
    try:
        entries = [exact(v) for v in boundary]
    except ValueError as exc:
        raise FamilyError(f"boundary entry {exc}") from None
    a_inf, b_inf, c_inf = entries
    w = 48 + data.chi
    deg_dstar = sum(r for _, r in data.odp_points)
    deg_ram = sum(r - 1 for _, r in data.ramification)
    deg_xi = sum(m for _, m in data.xi_divisor)
    return (12 * a_inf + w * b_inf - 12 * c_inf
            - 2 * deg_dstar + 12 * deg_ram + 12 * 2 + w * deg_xi)


def family_from_json_dict(d: dict) -> FamilyData:
    """Parse the family schema of FamilyData.to_json_dict; a missing key
    or a value of the wrong type raises FamilyError."""
    def pairs(key, field_name):
        return tuple((Point.from_json(item["point"]),
                      _json_int(item[field_name], field_name))
                     for item in d.get(key, []))

    try:
        fields = dict(chi=_json_int(d["chi"], "chi"),
                      xi_divisor=pairs("xi_divisor", "multiplicity"),
                      ramification=pairs("ramification", "r"),
                      odp_points=pairs("odp_points", "r"))
    except (KeyError, TypeError) as exc:
        raise FamilyError(f"malformed family data: {exc!r}") from exc
    return FamilyData(**fields)
