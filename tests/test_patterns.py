from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from fishburn.patterns import (
    ClassicalPattern,
    PatternSet,
    avoids,
    contains_fishburn,
    occurs_ending_at,
    occurs_in,
    parse_pattern,
)
from fishburn.perm import ParseError, Permutation

perms = st.integers(0, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda w: Permutation(tuple(w)))
)
pattern_texts = st.sampled_from(
    ["1", "12", "21", "123", "231", "321", "132", "213", "312",
     "1243", "2134", "1324", "1423", "2143", "3142", "3124", "4123",
     "14253", "21354", "31452", "31524", "41523"]
)


def test_parse_pattern_examples():
    assert parse_pattern("321").body == Permutation((3, 2, 1))
    assert parse_pattern("14253").body == Permutation((1, 4, 2, 5, 3))
    assert parse_pattern("3 1 2").body == Permutation((3, 1, 2))


def test_parse_pattern_errors():
    with pytest.raises(ParseError, match="1223"):
        parse_pattern("1223")
    with pytest.raises(ParseError, match="missing"):
        parse_pattern("13")
    with pytest.raises(ParseError):
        parse_pattern("102")
    with pytest.raises(ParseError):
        parse_pattern("")
    with pytest.raises(ParseError):
        parse_pattern("1234567891")  # too long for the compact encoding


def test_pattern_set_parse_and_duplicates():
    ps = PatternSet.parse("321, 1423 ,2143", fishburn=True)
    assert [str(p) for p in ps.classical] == ["321", "1423", "2143"]
    assert ps.fishburn
    with pytest.raises(ValueError):
        PatternSet.parse("321,321")


def test_containment_examples():
    assert occurs_in((3, 1, 4, 2), parse_pattern("231"))
    assert not occurs_in(tuple(range(1, 9)), parse_pattern("321"))
    assert not occurs_in((), parse_pattern("1"))


def test_fishburn_examples():
    assert contains_fishburn(Permutation((2, 3, 1)))
    assert not contains_fishburn(Permutation(tuple(range(1, 9))))
    assert not contains_fishburn(Permutation((3, 1, 4, 2)))


def test_avoids_examples():
    fb = PatternSet.parse("321,1243", fishburn=True)
    assert avoids(Permutation((2, 1)), fb)
    assert not avoids(Permutation((2, 3, 1)), PatternSet(fishburn=True))
    assert avoids(Permutation((4, 1, 2, 3)), PatternSet.parse("321,2143", fishburn=True))


@given(perms, pattern_texts)
def test_containment_agrees_with_brute_force(p, text):
    pat = parse_pattern(text)
    assert occurs_in(p.values, pat) == oracle.contains_pattern(p.values, pat.body.values)


@given(perms)
def test_fishburn_agrees_with_brute_force(p):
    assert contains_fishburn(p) == oracle.contains_adjacent_231_plus1(p.values)


@given(perms)
def test_fishburn_occurrence_is_a_231_occurrence(p):
    if contains_fishburn(p):
        assert occurs_in(p.values, parse_pattern("231"))


def _all_patterns_up_to(k_max):
    out = []
    for k in range(1, k_max + 1):
        out.extend(ClassicalPattern(Permutation(w)) for w in permutations(range(1, k + 1)))
    return out


@pytest.mark.parametrize("n", range(8))
def test_complement_duality_exhaustive(n):
    pairs = [(pat, ClassicalPattern(pat.body.complement())) for pat in _all_patterns_up_to(4)]
    for w in permutations(range(1, n + 1)):
        p = Permutation(w)
        q = p.complement()
        for pat, flipped in pairs:
            assert occurs_in(p.values, pat) == occurs_in(q.values, flipped)


def _is_occurrence(sub, body):
    k = len(body)
    return all((sub[a] < sub[b]) == (body[a] < body[b]) for a in range(k) for b in range(a + 1, k))


def test_anchored_matcher_matches_definition():
    # occurs_ending_at(word, m, pat) must agree with "some occurrence uses m last"
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            for text in ("21", "231", "321", "1423"):
                pat = parse_pattern(text)
                k = len(pat)
                for m in range(n):
                    brute = any(
                        _is_occurrence([w[i] for i in idx], pat.body.values)
                        for idx in combinations(range(m + 1), k)
                        if idx[-1] == m
                    )
                    assert occurs_ending_at(w, m, pat) == brute


@given(st.lists(st.integers(1, 50), unique=True, max_size=8), pattern_texts)
def test_matcher_handles_arbitrary_distinct_values(word, text):
    # The kernel feeds the matcher prefixes whose values are any distinct
    # subset of 1..n, not rearrangements of 1..m.
    pat = parse_pattern(text)
    assert occurs_in(tuple(word), pat) == oracle.contains_pattern(tuple(word), pat.body.values)


@given(st.integers(1, 6), st.data())
def test_containment_monotone_under_extension(n, data):
    # A prefix that realizes a pattern keeps realizing it in every extension.
    word = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    cut = data.draw(st.integers(1, n))
    prefix = word[:cut]
    for text in ("231", "321", "1423"):
        pat = parse_pattern(text)
        if occurs_in(prefix, pat):
            assert occurs_in(word, pat)


@pytest.mark.parametrize("sigma", ["132", "213", "312", "3142"])
def test_fishburn_reduces_to_231_avoidance(sigma):
    # With 321 and sigma forbidden, the Fishburn condition and classical
    # 231-avoidance carve out the same permutations.
    fb = PatternSet.parse(f"321,{sigma}", fishburn=True)
    classical = PatternSet.parse(f"231,321,{sigma}")
    for n in range(8):
        for w in permutations(range(1, n + 1)):
            p = Permutation(w)
            assert avoids(p, fb) == avoids(p, classical)
