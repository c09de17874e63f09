"""A member carries its inverse only for the classical checks that read it.

The kernel grows each child with its inverse only when the query has a
classical pattern other than 321; every other rule finds the one index it
reads in the child's word.  These tests pin that rule, and compare the two
modes past the oracle's range: once with 321 on its inverse-free shortcut,
once with 321 through the generic check, which carries the inverse.
"""

from __future__ import annotations

from math import comb

import pytest

from fishburn import enumeration
from fishburn.enumeration import AvoidanceQuery, _grower, members, search
from fishburn.patterns import PatternSet


def _inner_children(query):
    """Every member the kernel grows below size query.n, as (m, word, inv, dead)."""
    grow = _grower(query)[0]
    level, grown = [(0, "", [], 0)], []
    for m in range(query.n - 1):
        slots = [[] for _ in range(m + 1)]
        for member in level:
            grow(*member, slots)
        level = [child for slot in slots for child in slot]
        grown += level
    return grown


def _inverse(word):
    return [word.index(chr(48 + v)) for v in range(1, len(word) + 1)]


@pytest.mark.parametrize(
    ("patterns", "fishburn", "carried"),
    [
        ("", True, False),
        ("321", True, False),
        ("321", False, False),
        ("321,1324", True, True),
        ("2413", False, True),
    ],
)
def test_a_child_carries_its_inverse_only_for_a_classical_check(patterns, fishburn, carried):
    grown = _inner_children(AvoidanceQuery(7, PatternSet.parse(patterns, fishburn=fishburn)))
    assert grown
    for _, word, inv, _ in grown:
        assert inv == (_inverse(word) if carried else None), word


FILTERS = [
    pytest.param({}, id="plain"),
    pytest.param({"one_position": 1}, id="one-first"),
    pytest.param({"one_position": 2}, id="one-second"),
    pytest.param({"prefix": (2, 1, 3), "prefix_negation": True}, id="negated-prefix"),
    pytest.param({"prefix": (2, 3), "prefix_negation": True, "one_position": 2}, id="negated-one-second"),
]


@pytest.mark.parametrize("filters", FILTERS)
def test_carried_and_free_inverses_give_one_class(monkeypatch, filters):
    # With _PATTERN_321 unmatchable, 321 is checked like any classical
    # pattern, so every member carries its inverse; the answers must not move.
    ps = PatternSet.parse("321", fishburn=True)
    listed, counted = AvoidanceQuery(9, ps, **filters), AvoidanceQuery(11, ps, **filters)
    free = members(listed, cap=9), search(counted)
    assert free[0] and free[1][0][-1]
    monkeypatch.setattr(enumeration, "_PATTERN_321", (0,))
    assert _inner_children(AvoidanceQuery(4, ps))[0][2] == [0]
    assert (members(listed, cap=9), search(counted)) == free


@pytest.mark.parametrize("sigma", ["123", "132", "213", "231", "312", "321"])
def test_every_pattern_of_size_3_gives_the_catalan_numbers(sigma):
    # Simion and Schmidt 1985: |Av_n(sigma)| = C_n for each sigma of size 3.
    # 321 is checked by its shortcut, without the inverse; the other five
    # by the generic check, which carries it.
    query = AvoidanceQuery(11, PatternSet.parse(sigma))
    sizes = search(query)[0]
    assert sizes == [comb(2 * n, n) // (n + 1) for n in range(12)]
    assert (_inner_children(AvoidanceQuery(3, query.patterns))[0][2] is None) == (sigma == "321")
