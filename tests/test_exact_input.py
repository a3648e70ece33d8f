"""One rule for exact input, ``inputs.exact``: every entrance reads an
int, a Fraction or a rational string exactly, and refuses anything else
(floats, bools, None, malformed strings) with its own error class,
SeriesError for ``series`` and ``gw``; a degree is an int >= 1.  A series
survives pickle, copy and deepcopy, and stays immutable, and its order
and tag must be an int and a str."""

import copy
import pickle
from fractions import Fraction as F
from math import lcm

import pytest

from mirrorcalc import inputs, kernels
from mirrorcalc.divisor import FamilyData, FamilyError, residue_balance_check
from mirrorcalc.gw import GWTable, extract_n1
from mirrorcalc.kernels import ExtractionError
from mirrorcalc.lattice import CubicLattice, LatticeError, bareiss_det
from mirrorcalc.series import ExactSeries, SeriesError

ONE = ExactSeries([1, 0], tag="q")
G = ExactSeries.constant(F(50, 12), 1, "q")


def _integral_n1(read):
    """n_1 = N0(1), so the n_1 read back is the value given; a
    non-integral one is named at the end of the ExtractionError."""
    def entrance(v):
        try:
            return F(read(v))
        except ExtractionError as exc:
            if "is not an integer" not in str(exc):
                raise
            return F(str(exc).rpartition(" ")[2])
    return entrance


def _n0_file_instanton(v):
    """n_1 of the --n0-file column N0(1) = v: its reader, then the kernel."""
    n = inputs.n0_map_from_json_dict({"1": v})[1]
    return kernels.instanton_numbers([0, n.numerator], n.denominator)[1]


QUINTIC = FamilyData.quintic_mirror()
BALANCE = residue_balance_check(QUINTIC, (0, 0, 0))

# Each entrance maps a caller's value v to the Fraction it stored, and
# refuses an inexact one with the error class beside it.
ENTRANCES = {
    "exact": (inputs.exact, ValueError),
    "ExactSeries": (lambda v: ExactSeries([1, v])[1], SeriesError),
    # the JSON entrance: an --n0-file value
    "from_json_dict": (
        lambda v: inputs.n0_map_from_json_dict({"n0": {"1": v}})[1],
        ValueError),
    "constant": (lambda v: ExactSeries.constant(v, 2)[0], SeriesError),
    "add": (lambda v: (ONE + v)[0] - 1, SeriesError),
    "radd": (lambda v: (v + ONE)[0] - 1, SeriesError),
    "sub": (lambda v: 1 - (ONE - v)[0], SeriesError),
    "rsub": (lambda v: (v - ONE)[0] + 1, SeriesError),
    "mul": (lambda v: (ONE * v)[0], SeriesError),
    "rmul": (lambda v: (v * ONE)[0], SeriesError),
    "truediv": (lambda v: 1 / (ONE / v)[0], SeriesError),
    "from_maps_n0": (lambda v: GWTable.from_maps({1: v}, {}).n0[1],
                     SeriesError),
    "from_maps_n1": (lambda v: GWTable.from_maps({}, {1: v}).n1[1],
                     SeriesError),
    "extract_n1": (lambda v: extract_n1(G, {1: v}).n0[1], SeriesError),
    "instanton_numbers": (_integral_n1(_n0_file_instanton), ValueError),
    # 12 a is the only term of the balance that the boundary's a enters
    "residue_balance": (lambda v: (residue_balance_check(QUINTIC, (v, 0, 0))
                                   - BALANCE) / 12, FamilyError),
}

# lattice's entrances say "is not an int, a Fraction or a rational string"
LATTICE_ENTRANCES = {
    "bareiss_det": (lambda v: bareiss_det([[v]]), LatticeError),
    "cubic_entry": (lambda v: CubicLattice.from_entries(
        1, {(0, 0, 0): v}, [1]).cubic[0][0][0], LatticeError),
    "kappa": (lambda v: CubicLattice.from_entries(
        1, {(0, 0, 0): 1}, [v]).kappa[0], LatticeError),
}

# Each degree entrance maps a column to the table it builds.
DEGREE_ENTRANCES = {
    "from_maps_n0": lambda column: GWTable.from_maps(column, {}),
    "from_maps_n1": lambda column: GWTable.from_maps({}, column),
    # the max_degree that from_maps derives from both columns' keys
    "from_maps_max_degree": lambda column: GWTable.from_maps(
        column, column).max_degree,
    "extract_n1": lambda column: extract_n1(G, column),
}


@pytest.mark.parametrize("entrance", sorted(DEGREE_ENTRANCES))
@pytest.mark.parametrize("key", ["1", True, 1.5, 0, -2, None],
                         ids=["string", "bool", "float", "zero", "negative",
                              "none"])
def test_degree_keys_must_be_ints_from_one(entrance, key):
    # "1" would read as degree 1 holding 0, and fail max() beside an int
    with pytest.raises(SeriesError, match=r"^degree .* must be an int >= 1$"
                       ) as info:
        DEGREE_ENTRANCES[entrance]({2: 5, key: 12})
    assert repr(key) in str(info.value)


def test_degrees_above_the_table_are_truncated():
    table = extract_n1(ExactSeries([F(25, 6), -4], tag="q"), {1: 12, 9: 1})
    assert (table.n0, table.n1) == ({1: 12}, {1: 1})


@pytest.mark.parametrize("entrance", sorted(ENTRANCES))
@pytest.mark.parametrize("value, exact", [
    (3, F(3)), (F(1, 3), F(1, 3)), ("1/3", F(1, 3)), ("-2", F(-2)),
], ids=["int", "fraction", "string", "negative-string"])
def test_entrance_accepts_exact_values(entrance, value, exact):
    got = ENTRANCES[entrance][0](value)
    assert type(got) is F and got == exact


@pytest.mark.parametrize("entrance", sorted(ENTRANCES))
@pytest.mark.parametrize("value", [0.1, True, float("nan"), None, "abc", "1/0",
                                   "1e5000", "1e-5000"],
                         ids=["float", "bool", "nan", "none", "word",
                              "zero-denominator", "huge-exponent",
                              "huge-negative-exponent"])
def test_entrance_rejects_inexact_values(entrance, value):
    read, error = ENTRANCES[entrance]
    with pytest.raises(error, match="is not an exact rational") as info:
        read(value)
    assert info.type is error


def test_rejection_names_the_value_briefly():
    with pytest.raises(SeriesError, match=r"^0\.1 is not"):
        ExactSeries([0.1])
    assert ExactSeries([F(1, 10)]).coeffs == (F(1, 10),)
    with pytest.raises(SeriesError) as info:
        ExactSeries(["x" * 1000])
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("s", [
    ExactSeries([F(1, 3), -2, F(7, 5)], tag="x"),
    ExactSeries.constant(0, 4, "psi-inv"),
    ExactSeries.from_nums([2 ** 200, -3], 7, "q"),
])
@pytest.mark.parametrize("roundtrip", [
    *(lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy,
], ids=[*(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        "copy", "deepcopy"])
def test_roundtrip_keeps_value_tag_and_hash(s, roundtrip):
    t = roundtrip(s)
    assert type(t) is ExactSeries
    assert t == s and t.coeffs == s.coeffs
    assert (t.tag, t.order, t.den, t.nums) == (s.tag, s.order, s.den, s.nums)
    assert hash(t) == hash(s)


def test_series_stays_immutable():
    s = ExactSeries([1, 2])
    with pytest.raises(AttributeError):
        s.nums = ()
    with pytest.raises(AttributeError):
        s.extra = 1
    assert s.nums == (1, 2)


@pytest.mark.parametrize("name", ["nums", "den"])
def test_series_attributes_cannot_be_deleted(name):
    s = ExactSeries([1, 2])
    with pytest.raises(AttributeError, match="ExactSeries is immutable"):
        delattr(s, name)
    assert s.nums == (1, 2) and s.den == 1
    assert s * s == ExactSeries([1, 4])


@pytest.mark.parametrize("order", [2.7, True, "2"],
                         ids=["float", "bool", "string"])
def test_constructor_order_must_be_an_int(order):
    with pytest.raises(SeriesError, match="must be an int"):
        ExactSeries([1, 2, 3], order=order)


def test_tag_must_be_a_str():
    with pytest.raises(SeriesError, match="a str"):
        ExactSeries([1, 2], tag=5)
    assert ExactSeries([1, 2], tag="x").tag == "x"


class Half(F):
    """A Fraction subclass, which inputs.exact must not pass as is."""


@pytest.mark.parametrize("value", [Half(1, 2), F(1, 2), 3, "7/4"],
                         ids=["subclass", "fraction", "int", "string"])
def test_exact_returns_a_plain_fraction(value):
    got = inputs.exact(value)
    assert type(got) is F and got == F(value)
    if type(value) is F:
        assert got is value


def scaled_by_properties(coeffs):
    """``inputs.scaled`` as the numerator and denominator properties read
    it."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@pytest.mark.parametrize("coeffs", [
    [], [0], [3, -4, 0], [F(1, 3), F(-5, 6), 2, F(0)],
    [F(2 ** 70, 3 ** 40), -(2 ** 90), F(7, 12)], [Half(1, 2), F(1, 3)],
])
def test_scaled_matches_the_property_reads(coeffs):
    assert inputs.scaled(coeffs) == scaled_by_properties(coeffs)


def _read(reader, error, value):
    """The reader's value, or None when it refuses with its own error
    class (not a subclass of it)."""
    try:
        return reader(value)
    except error as exc:
        assert type(exc) is error
        return None


# One table for the reader and every entrance, each refusing with its own
# error class.
READER_TABLE = {
    "int": (7, F(7)), "subclass": (Half(7, 2), F(7, 2)),
    "ratio": ("7/2", F(7, 2)), "decimal": ("1.5", F(3, 2)),
    "exponent": ("2e3", F(2000)),
    "float": (0.5, None), "bool": (True, None), "none": (None, None),
    "word": ("abc", None), "zero-denominator": ("1/0", None),
    "huge-exponent": ("1e5000", None),
    # at most 4300 digits in numerator and denominator
    "most-digits": ("9e4299", F(9 * 10 ** 4299)),
    "too-many-digits": ("1e4300", None),
    "too-many-digits-negative": ("-1e4300", None),
    "too-many-denominator-digits": ("1e-4300", None),
}


@pytest.mark.parametrize("value, expected", READER_TABLE.values(),
                         ids=list(READER_TABLE))
def test_series_and_lattice_readers_agree(value, expected):
    readers = {**ENTRANCES, **LATTICE_ENTRANCES}
    got = {name: _read(*reader, value) for name, reader in readers.items()}
    assert got == dict.fromkeys(readers, expected)
