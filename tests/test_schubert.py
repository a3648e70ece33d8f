"""The Bott residue sum for the lines on the quintic does not depend on
the torus weights; a wrong set of tangent weights would make it."""

from hypothesis import given, strategies as st

from mirrorcalc.schubert import _bott_sum, count_lines


@given(st.lists(st.integers(-50, 50), min_size=5, max_size=5, unique=True))
def test_bott_sum_is_independent_of_the_weights(w):
    assert _bott_sum(w) == 2875


def test_count_lines():
    assert count_lines() == 2875
