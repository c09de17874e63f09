from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fishburn.perm import ParseError, Permutation, parse_values, values_format

perms = st.integers(0, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda w: Permutation(tuple(w)))
)


def test_rejects_non_rearrangements():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_empty_permutation_is_valid():
    assert len(Permutation(())) == 0


def test_complement_examples():
    assert Permutation((2, 1, 3)).complement() == Permutation((2, 3, 1))
    assert Permutation(()).complement() == Permutation(())
    assert Permutation((3, 2, 1)).complement() == Permutation((1, 2, 3))


@given(perms)
def test_complement_is_an_involution(p):
    assert p.complement().complement() == p


def test_left_to_right_maxima_worked_example():
    assert Permutation((3, 1, 2, 4, 7, 5, 6)).left_to_right_maxima() == {3, 4, 7}


def test_left_to_right_maxima_extremes():
    assert Permutation((1, 2, 3, 4, 5)).left_to_right_maxima() == {1, 2, 3, 4, 5}
    assert Permutation((5, 4, 3, 2, 1)).left_to_right_maxima() == {5}


@given(perms)
def test_maxima_include_first_entry_and_n(p):
    if len(p):
        maxima = p.left_to_right_maxima()
        assert p.values[0] in maxima
        assert len(p) in maxima


def test_text_round_trip():
    values = (3, 1, 2, 4, 7, 5, 6)
    assert values_format(7) % values == "3 1 2 4 7 5 6"
    assert parse_values("3 1 2 4 7 5 6") == values
    assert parse_values("3124756") == values
    assert parse_values("") == ()
    assert values_format(0) % () == ""


def test_text_parse_errors():
    with pytest.raises(ParseError):
        parse_values("1 2 x")
    with pytest.raises(ParseError):
        parse_values("120")
    with pytest.raises(ParseError):
        parse_values("0 1")
    with pytest.raises(ValueError):
        Permutation(parse_values("1 2 2"))
