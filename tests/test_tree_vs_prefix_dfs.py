"""The generating-tree kernel on every claim row at n=9, against references
that share no code with it: the row's closed form for the count, and the
brute-force membership test of `oracle` for each member it lists.

Acceptance criteria 1 and 4 check the counts alone to n=10, and criterion 2
checks counts against the oracle to n=8; this is the check that, at n=9,
the kernel lists only members, each once.  The module keeps the name it had
when these rows were compared with the prefix search the kernel replaced,
so the test ids stay the same.
"""

from __future__ import annotations

import pytest

import oracle
from fishburn.enumeration import AvoidanceQuery, members
from fishburn.perm import word_values
from fishburn.sequences import TABLE_ROWS, eval_row
from fishburn.verify import DECOMPOSITION_CHECKS


@pytest.mark.parametrize(
    "row", TABLE_ROWS + DECOMPOSITION_CHECKS,
    ids=lambda r: f"{r.row_id}@{r.one_position}" if r.one_position else r.row_id,
)
def test_counts_agree_at_n9(row):
    words = [word_values(w) for w in members(AvoidanceQuery(9, row.patterns, one_position=row.one_position))]
    assert len(words) == eval_row(row, 9)
    assert all(a < b for a, b in zip(words, words[1:]))
    bodies = [p.body.values for p in row.patterns.classical]
    for word in words:
        assert oracle.is_member(word, bodies, fishburn=True), word
        assert row.one_position is None or word[row.one_position - 1] == 1, word
