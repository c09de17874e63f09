"""The generating-tree kernel against the prefix DFS it replaced.

`prefix_dfs.search` visits members in lexicographic order, so its visit
order is compared with `members`, which sorts.
"""

from __future__ import annotations

import pytest

import prefix_dfs
from fishburn.enumeration import AvoidanceQuery, count, members
from fishburn.patterns import PatternSet
from fishburn.sequences import TABLE_ROWS
from fishburn.verify import DECOMPOSITION_CHECKS


def _old_members(query, cap):
    out = []
    prefix_dfs.search(query, lambda p: out.append(p.values), cap=cap)
    return out


def _new_members(query, cap):
    return [p.values for p in members(query, cap=cap)]


@pytest.mark.parametrize(
    "row", TABLE_ROWS + DECOMPOSITION_CHECKS,
    ids=lambda r: f"{r.row_id}@{r.one_position}" if r.one_position else r.row_id,
)
def test_counts_agree_at_n9(row):
    query = AvoidanceQuery(9, row.patterns, one_position=row.one_position)
    assert count(query) == prefix_dfs.search(query, None)


def _prefix_suite_queries(n):
    patterns = PatternSet.parse("321,21354", fishburn=True)
    yield AvoidanceQuery(n, patterns, prefix=(n, 1))
    for k in range(3, n):
        yield AvoidanceQuery(n, patterns, prefix=(k, 1, 2), prefix_negation=True)


@pytest.mark.parametrize(
    "query",
    [AvoidanceQuery(8, PatternSet(fishburn=True)), *_prefix_suite_queries(9)],
    ids=lambda q: f"n{q.n}-prefix{''.join(map(str, q.prefix))}{'-neg' if q.prefix_negation else ''}",
)
def test_member_lists_agree(query):
    assert _new_members(query, 9) == _old_members(query, 9)


@pytest.mark.parametrize(
    "text, one_position",
    [("321,1243", None), ("321,31452", None), ("321,41523", 1)],
)
def test_count_hard_classes_agree_at_n11(text, one_position):
    query = AvoidanceQuery(11, PatternSet.parse(text, fishburn=True), one_position=one_position)
    assert count(query) == prefix_dfs.search(query, None)
