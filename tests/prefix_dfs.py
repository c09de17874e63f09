"""The prefix depth-first search kernel that the generating-tree kernel in
`fishburn.enumeration` replaced, kept as a reference for the differential
test in `test_tree_vs_prefix_dfs.py`.  It is deleted in the next change.

`search` below is copied verbatim from the replaced `fishburn.enumeration`:
it fills positions left to right, trying unused values in increasing order,
and prunes a prefix as soon as an occurrence ends at its newest position.
"""

from __future__ import annotations

from typing import Callable

from fishburn.enumeration import DEFAULT_COUNT_CAP, AvoidanceQuery, CapacityError
from fishburn.patterns import occurs_ending_at
from fishburn.perm import Permutation

_PATTERN_321 = (3, 2, 1)


def search(
    query: AvoidanceQuery,
    visit: Callable[[Permutation], None] | None,
    *,
    cap: int = DEFAULT_COUNT_CAP,
) -> int:
    """Visit every member of the class exactly once, in lexicographic order.

    Returns the number of members.  With visit None nothing is visited and
    no member object is built: the search only counts.
    """
    n = query.n
    if n > cap:
        raise CapacityError(f"n={n} exceeds the cap of {cap}")

    forced = [0] * (n + 2)
    if query.prefix:
        head = query.prefix[:-1] if query.prefix_negation else query.prefix
        for i, v in enumerate(head):
            forced[i + 1] = v
    banned = [0] * (n + 2)
    if query.prefix_negation and len(query.prefix) <= n:
        banned[len(query.prefix)] = query.prefix[-1]

    one_pos = query.one_position or 0
    if one_pos:
        if one_pos > n:
            return 0
        if forced[one_pos] not in (0, 1):
            return 0
        if any(forced[i] == 1 for i in range(1, n + 1) if i != one_pos):
            return 0
        forced[one_pos] = 1

    fishburn = query.patterns.fishburn
    has_321 = any(p.body.values == _PATTERN_321 for p in query.patterns.classical)
    generic = tuple(p for p in query.patterns.classical if p.body.values != _PATTERN_321)

    word = [0] * n
    pos_of = [-1] * (n + 2)

    def extend(m: int, premax: int, descent_bottom: int) -> int:
        if m == n:
            if visit is not None:
                visit(Permutation(tuple(word)))
            return 1
        found = 0
        f = forced[m + 1]
        ban = banned[m + 1]
        for v in (f,) if f else range(1, n + 1):
            if pos_of[v] >= 0 or v == ban:
                continue
            if one_pos and v == 1 and m + 1 < one_pos:
                continue
            # A 321 ends at m iff some earlier entry both exceeds v and has a
            # still larger entry before it; descent_bottom tracks the largest
            # such entry, making this check O(1).
            if has_321 and descent_bottom > v:
                continue
            if fishburn and v + 1 <= n:
                i0 = pos_of[v + 1]
                if i0 >= 0 and i0 <= m - 2 and word[i0 + 1] > v + 1:
                    continue
            word[m] = v
            hit = False
            for p in generic:
                if occurs_ending_at(word, m, p):
                    hit = True
                    break
            if hit:
                continue
            pos_of[v] = m
            found += extend(
                m + 1,
                v if v > premax else premax,
                v if (v < premax and v > descent_bottom) else descent_bottom,
            )
            pos_of[v] = -1
        return found

    return extend(0, 0, 0)
