"""Counts past the oracle's range, checked against known equalities.

The brute-force oracle stops at n = 8.  For classical patterns alone, the
eight symmetries of the square map a class onto a class of equal size:
|Av_n(B)| = |Av_n(f(B))| for f = reverse, complement and inverse.  The
kernel grows by inserting the maximum, so B and f(B) take different kill
passes, heads and 321 shortcuts, and the two counts come from walks that
share little.  Two nontrivial Wilf equivalences are checked by value.
"""

from __future__ import annotations

import random

import pytest

import oracle
from fishburn.enumeration import AvoidanceQuery, count
from fishburn.patterns import PatternSet

N = 9


def _reverse(w):
    return w[::-1]


def _complement(w):
    return tuple(len(w) + 1 - v for v in w)


def _inverse(w):
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def _pattern_sets(seed=2302, sets=30):
    """Bases of two or three patterns of size 3 to 5, the first of size 3,
    drawn with a fixed seed: no pattern contains another, so none is idle.
    (Each single pattern of size 3 gives the Catalan numbers, checked in
    `test_inverse_carry.py`.)"""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < sets:
        sizes = [3] + [rng.randint(3, 5) for _ in range(rng.randint(1, 2))]
        patterns = {tuple(rng.sample(range(1, k + 1), k)) for k in sizes}
        if len(patterns) == len(sizes) and not any(
            u != w and oracle.contains_pattern(w, u) for u in patterns for w in patterns
        ):
            drawn.append(sorted(patterns))
    return drawn


def _count(patterns, n=N):
    text = ",".join("".join(map(str, w)) for w in patterns)
    return count(AvoidanceQuery(n, PatternSet.parse(text)))


@pytest.mark.parametrize("symmetry", [_reverse, _complement, _inverse], ids=["reverse", "complement", "inverse"])
def test_symmetric_classes_have_equal_counts(symmetry):
    for patterns in _pattern_sets():
        image = [symmetry(w) for w in patterns]
        assert _count(patterns) == _count(image), (patterns, image)


def test_stankova_1342_and_2413_are_wilf_equivalent():
    assert _count([(1, 3, 4, 2)]) == _count([(2, 4, 1, 3)]) == 91245


def test_west_1234_1243_and_2143_are_wilf_equivalent():
    assert _count([(1, 2, 3, 4)]) == _count([(1, 2, 4, 3)]) == _count([(2, 1, 4, 3)]) == 94359
