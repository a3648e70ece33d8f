"""The one reader of each kind of outside value, standard library only;
a refusal is a ValueError that each entrance raises as its own class."""

import math
import reprlib
from fractions import Fraction


def exact(v) -> Fraction:
    """v as a Fraction if it is an int (not a bool), a Fraction or a rational
    string whose numerator and denominator have at most 4300 digits
    (CPython's int-string limit; its exponent is bounded first)."""
    if type(v) is Fraction:
        return v
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        try:
            _, e, exponent = v.lower().partition("e")
            if not e or abs(int(exponent)) <= 4300:
                f = Fraction(v)
                if max(abs(f.numerator), f.denominator) < 10 ** 4300:
                    return f
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{reprlib.repr(v)} is not an exact rational "
                     "(an int, a Fraction or a rational string)")


def scaled(coeffs) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` (ints or Fractions) over their
    least common denominator, and that denominator."""
    pairs = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*{q for _, q in pairs})
    return [p * (den // q) for p, q in pairs], den


def parse_complex(text: str) -> complex:
    """text as a finite complex ("i" for "j", spaces dropped), else ValueError."""
    try:
        z = complex(text.replace(" ", "").replace("i", "j"))
    except (AttributeError, ValueError):
        raise ValueError(f"{reprlib.repr(text)} is not a complex number "
                         "such as 1.5-2i") from None
    # hypot, unlike abs, gives inf rather than raising when |z| overflows
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise ValueError(f"{reprlib.repr(text)} is not finite")
    return z


def n0_map_from_json_dict(d: dict) -> dict[int, Fraction]:
    """{d: exact(v)} from the --n0-file schema {"n0": {"1": "2875", ...}}
    (n1 ignored); anything else raises ValueError naming what is wrong."""
    src = d.get("n0", d) if isinstance(d, dict) else d
    if isinstance(src, dict) and all(
            type(k) is str and k.isascii() and k.isdigit() and k[0] != "0"
            for k in src):
        try:
            return {int(k): exact(v) for k, v in src.items()}
        except ValueError as exc:
            raise ValueError(f"n0 value {exc}") from None
    raise ValueError('n0 must be an object mapping each degree ("1", '
                     '"2", ...) to an int or a rational string')
