from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fishburn.perm import (
    ParseError,
    Permutation,
    complement,
    left_to_right_maxima,
    parse_values,
    word_values,
)

perms = st.integers(0, 8).flatmap(lambda n: st.permutations(list(range(1, n + 1))).map(tuple))


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
    assert complement((2, 1, 3)) == (2, 3, 1)
    assert complement(()) == ()
    assert complement((3, 2, 1)) == (1, 2, 3)


@given(perms)
def test_complement_is_an_involution(p):
    assert complement(complement(p)) == p


def test_left_to_right_maxima_worked_example():
    assert left_to_right_maxima((3, 1, 2, 4, 7, 5, 6)) == {3, 4, 7}


def test_left_to_right_maxima_extremes():
    assert left_to_right_maxima((1, 2, 3, 4, 5)) == {1, 2, 3, 4, 5}
    assert left_to_right_maxima((5, 4, 3, 2, 1)) == {5}


@given(perms)
def test_maxima_include_first_entry_and_n(p):
    if len(p):
        maxima = left_to_right_maxima(p)
        assert p[0] in maxima
        assert len(p) in maxima


def test_text_round_trip():
    values = (3, 1, 2, 4, 7, 5, 6)
    assert word_values("".join(chr(48 + v) for v in values)) == values
    assert parse_values("3 1 2 4 7 5 6") == values
    assert parse_values("3124756") == values
    assert parse_values("") == ()
    assert word_values("") == ()


def test_text_parse_errors():
    with pytest.raises(ParseError):
        parse_values("1 2 x")
    with pytest.raises(ParseError):
        parse_values("120")
    with pytest.raises(ParseError):
        parse_values("0 1")
    with pytest.raises(ValueError):
        Permutation(parse_values("1 2 2"))
