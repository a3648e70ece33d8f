from fractions import Fraction as F
from math import comb, factorial

import pytest

from mirrorcalc.deltacoeff import delta, delta_row, lemma512_check


def test_dimension_three_table():
    assert delta_row(3) == [F(1, 120), F(27, 120), F(93, 120), F(119, 120)]


def test_complement_pairs_sum_to_one():
    assert delta(3, 1) + delta(3, 2) == 1
    assert delta(3, 0) + delta(3, 3) == 1


def test_weighted_sum():
    assert sum(p * delta(3, p) for p in range(4)) == F(19, 4)


def test_lemma_check():
    assert lemma512_check()


@pytest.mark.parametrize("n", range(1, 21))
def test_p_zero_closed_form(n):
    assert delta(n, 0) == F(1, factorial(n + 2))


def test_out_of_range():
    with pytest.raises(ValueError):
        delta(3, 4)
    with pytest.raises(ValueError):
        delta(3, -1)
    with pytest.raises(ValueError):
        delta(0, 0)


@pytest.mark.parametrize("n, p, named", [
    (True, 0, "True"), (3.0, 1, "3.0"), ("3", 1, "'3'"),
    (3, True, "True"), (3, 1.0, "1.0"), (3, None, "None"),
], ids=["bool-n", "float-n", "string-n", "bool-p", "float-p", "none-p"])
def test_non_int_arguments_rejected(n, p, named):
    with pytest.raises(ValueError, match=f"got {named}$"):
        delta(n, p)


@pytest.mark.parametrize("n", [True, 3.0, "3"], ids=["bool", "float",
                                                      "string"])
def test_row_needs_an_int_dimension(n):
    with pytest.raises(ValueError, match=f"got {n!r}$"):
        delta_row(n)


def test_big_dimension_exact():
    # (n+2)! overflows 64-bit integers near n = 18; stays exact here
    v = delta(25, 0)
    assert v == F(1, factorial(27))


def paper_delta(n, p):
    """The paper's sum, two powers per term:  (n+2)! delta(n, p) =
    sum_{j=0}^{p} (-1)^j C(n+1, j) ((p-j+1)^{n+2} - (p-j)^{n+2})."""
    return F(sum((-1) ** j * comb(n + 1, j) * ((p - j + 1) ** (n + 2)
                                               - (p - j) ** (n + 2))
                 for j in range(p + 1)), factorial(n + 2))


@pytest.mark.parametrize("n", range(1, 41))
def test_row_matches_the_papers_sum(n):
    want = [paper_delta(n, p) for p in range(n + 1)]
    assert delta_row(n) == want
    assert [delta(n, p) for p in range(n + 1)] == want
