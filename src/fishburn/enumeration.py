"""Generation and counting of avoidance classes by pruned depth-first search.

The kernel fills positions left to right, trying unused values in increasing
order, which yields members in lexicographic order for free.  After placing
position m it tests only occurrences that use position m: classical
occurrences ending at m, and Fishburn occurrences whose final index is m
(the adjacent pair of a Fishburn occurrence always precedes its final index,
so extending a prefix can only complete occurrences of that shape).  Any
prefix containing an occurrence is abandoned; occurrences survive every
completion, so the pruning is sound, and each new occurrence has a final
position, so it is also complete.

Counts are exact arbitrary-precision integers.  Caps default to 14 for
counting and 10 for materializing member lists; both are arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from fishburn.patterns import PatternSet, occurs_ending_at
from fishburn.perm import Permutation

DEFAULT_COUNT_CAP = 14
DEFAULT_LIST_CAP = 10

_PATTERN_321 = (3, 2, 1)


class CapacityError(ValueError):
    """Raised when a query exceeds the configured length cap."""


@dataclass(frozen=True)
class AvoidanceQuery:
    """A class of permutations to enumerate.

    prefix, when set, requires members to begin with exactly those values;
    with prefix_negation the members must begin with prefix[:-1] and carry a
    different value in the slot of the final prefix entry.  one_position
    restricts to members whose entry 1 sits at that position (1 or 2).
    """

    n: int
    patterns: PatternSet = field(default_factory=PatternSet)
    one_position: int | None = None
    prefix: tuple[int, ...] = ()
    prefix_negation: bool = False

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if self.n < 0:
            raise ValueError("length must be nonnegative")
        if self.one_position not in (None, 1, 2):
            raise ValueError("one_position must be 1 or 2")
        if self.prefix_negation and not self.prefix:
            raise ValueError("prefix_negation requires a prefix")
        if len(set(self.prefix)) != len(self.prefix):
            raise ValueError("prefix values must be distinct")
        for v in self.prefix:
            if not 1 <= v <= self.n:
                raise ValueError(f"prefix value {v} outside 1..{self.n}")


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


def count(query: AvoidanceQuery, *, cap: int = DEFAULT_COUNT_CAP) -> int:
    """Exact cardinality of the class described by the query."""
    return search(query, None, cap=cap)


def members(query: AvoidanceQuery, *, cap: int = DEFAULT_LIST_CAP) -> tuple[Permutation, ...]:
    """Every member of the class, lexicographically ordered."""
    out: list[Permutation] = []
    search(query, out.append, cap=cap)
    return tuple(out)
