"""Generation and counting of avoidance classes by a generating tree.

Every class the kernel handles is closed under deleting its largest entry.
Deleting any entry keeps a classical pattern avoided.  Deleting n from a
Fishburn permutation u = ..., a, n, b, ... creates one new adjacent pair
(a, b); if it started an occurrence, a < b and a-1 would lie right of b, so
(a, n) with the same a-1 would already be one in u.  Hence each member of
size m+1 has exactly one parent of size m, the member left by deleting m+1,
and growing members from the empty permutation by inserting the new maximum
m+1 into each of the m+1 sites of a member visits members only (West's
generating trees; for the Fishburn condition this is the recursive
construction of Bousquet-Melou, Claesson, Dukes and Kitaev).

A child can only hold an occurrence that uses the new maximum: any other one
is an occurrence in its parent.  Classical patterns other than 321 use the
inverse: inserting the maximum at site s of w appends the entry s+1 to the
inverse of w (raising the entries above s by one), and pi occurs in a word
iff the inverse of pi occurs in its inverse, the maximum of one becoming the
last entry of the other.  An occurrence of pi that uses the new maximum is
therefore an occurrence of pi's inverse ending at the last index of the
child's inverse.

Each member carries the mask of its dead sites, those where the new maximum
makes an occurrence of any avoided pattern, and does not test every site
anew.  Inserting a larger value never changes the relative order of the
values already placed, so a member inherits its parent's dead sites, the
two beside its own maximum both from the site it was made at.  Its own
maximum adds the rest where the member is made: for 321 it kills every
site left of it when an entry follows it, and for Fishburn the site right
of it when the old maximum lies further right.  For the other classical
patterns an occurrence that uses the newest inverse entry has it next to
last, and without its last entry it is an occurrence of the pattern's head,
its inverse less the last entry, ending there.  Only when the anchored
matcher `occurs_ending_at` finds the head there does the member look for
new dead sites, and it finds them in one pass, `fishburn.patterns.dead_sites`:
each occurrence of the head kills one interval of sites.  This is the
active-site bookkeeping of generating trees (West; Marinov and Radoicic).

A member is its word, one character chr(48 + v) per value v ("213"), which
sorts as its value tuple does; `fishburn.perm.word_values` decodes it.
`search` visits the members in tree order: depth first by size, the sites
of each member tried left to right.  It counts each member once, where its
parent makes it, at its size and, when entry 1 is first or second, in that
split too.  A parent counts its children by popcounts of one mask of their
sites, so the leaf level, the largest, is tallied without a loop and its
members are built only for a visitor.  Every query filter (the prefix, the
entry-1 target, the negated prefix's ban) is a mask of sites ANDed into
that one.  `members` sorts the words, so member lists are lexicographic.
Counts are exact arbitrary-precision integers.  Caps default to 14 for
counting and 10 for materializing member lists; both are arguments, and
they are the only length limits.
"""

from __future__ import annotations

from collections.abc import Callable

from fishburn.patterns import ClassicalPattern, PatternSet, dead_sites, occurs_ending_at
from fishburn.perm import Permutation, _Record

DEFAULT_COUNT_CAP = 14
DEFAULT_LIST_CAP = 10

_PATTERN_321 = (3, 2, 1)


class CapacityError(ValueError):
    """Raised when a query exceeds the configured length cap."""


class AvoidanceQuery(_Record):
    """A class of permutations to enumerate.

    prefix, when set, requires members to begin with exactly those values;
    with prefix_negation the members must begin with prefix[:-1] and carry a
    different value in the slot of the final prefix entry.  one_position
    restricts to members whose entry 1 sits at that position (1 or 2).
    """

    __slots__ = ("n", "patterns", "one_position", "prefix", "prefix_negation")
    _defaults = {"patterns": PatternSet(), "one_position": None, "prefix": (), "prefix_negation": False}
    n: int
    patterns: PatternSet
    one_position: int | None
    prefix: tuple[int, ...]
    prefix_negation: bool

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


def _lands(inv: list[int], top: int, value: int, index: int) -> int:
    """The mask of sites whose child holds value at index.

    inv is the zero-based inverse of a member of size top - 1.  Its child
    made at site s holds the new maximum top at s, and a smaller value at
    index p = inv[value - 1] at p + (s <= p): at p from the sites right of
    p, at p + 1 from those at or left of p.  The mask may have bits past
    the last site; callers AND it with live, which has none.
    """
    if value == top:
        return 1 << index
    p = inv[value - 1]
    if p == index:
        return -(2 << p)
    return (2 << p) - 1 if p + 1 == index else 0


def search(
    query: AvoidanceQuery,
    visit: Callable[[str], None] | None,
    *,
    cap: int = DEFAULT_COUNT_CAP,
) -> tuple[list[int], list[int], list[int]]:
    """Visit every member of the class exactly once, in generating-tree order.

    The tree is walked depth first, the children of a member (its new
    maximum inserted at each site, left to right) in turn, so members that
    share a parent are visited together; the order is not lexicographic.
    visit, when set, is passed each member's word.  Returns
    (sizes, first, second), each one count per size 0..n: sizes[n] is the
    number of members, first[n] and second[n] the number with entry 1 at
    position 1 and at position 2, and the comment at the tally after the
    site loop says what the lower entries count.
    """
    n = query.n
    if n > cap:
        raise CapacityError(f"n={n} exceeds the cap of {cap}")
    target = query.one_position - 1 if query.one_position else -1  # index of entry 1
    sizes = [int(target < 0)] + [0] * n  # the root, the empty member, has no entry 1
    first = [0] * (n + 1)
    second = [0] * (n + 1)
    if n == 0:
        if sizes[0] and visit is not None:
            visit("")
        return sizes, first, second

    # Every filter is a mask of sites ANDed into live (below).  Deleting the
    # maximum keeps the head's entries up to m in front, in head order, so
    # the maximum v has one site, sites[v], when it is in the head (behind
    # the smaller head entries before it there) and otherwise the sites
    # behind every head entry smaller than v.
    prefix = query.prefix
    head = prefix[:-1] if query.prefix_negation else prefix
    ban_value = prefix[-1] if query.prefix_negation else 0
    sites = [0]
    for v in range(1, n + 1):
        if v in head:
            sites.append(1 << sum(u < v for u in head[: head.index(v)]))
        else:
            sites.append((1 << v) - (1 << sum(u < v for u in head)))

    fishburn = query.patterns.fishburn
    has_321 = any(p.body.values == _PATTERN_321 for p in query.patterns.classical)
    # The inverse of a pattern body lists its positions in order of value.
    # Each is paired with its head, the inverse without its last entry,
    # standardized; a size-1 pattern has none (it kills the root's only
    # site, so no member of size 1 or more ever asks for one).
    inverses = [
        tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))
        for w in (p.body.values for p in query.patterns.classical)
        if w != _PATTERN_321
    ]
    checks = tuple(
        (ClassicalPattern(Permutation(b)),
         ClassicalPattern(Permutation(tuple(v - (v > b[-1]) for v in b[:-1]))) if len(b) > 1 else None)
        for b in inverses
    )

    # Members come off the stack in tree order (depth first, sites left to
    # right): a member's children all have one size, so they are either all
    # leaves, visited left to right, or all inner members, made right to
    # left and pushed as they are made, so that the leftmost one is popped
    # first and its subtree finished before its next sibling.
    # Each entry is a member of size m < n: its word, its inverse inv
    # (zero-based) and its bit mask dead of killed sites (below).
    splits = (first, second)
    stack = [(0, "", [], 0)]
    while stack:
        m, word, inv, dead = stack.pop()
        one = inv[0] if m else -1  # index of entry 1; the empty member has none
        top = m + 1
        code = chr(48 + top)  # the new maximum's character in a word
        # dead has bit t set iff the new maximum at site t makes an
        # occurrence of an avoided pattern; it is exact on [0, m].  It must
        # not take in the filters' masks: those change from size to size,
        # and the children reuse it.  Inserting a larger value keeps the
        # order of the others, so an occurrence that avoids this member's
        # maximum is, with its values shifted, one in the parent at its site
        # t, or t - 1 if t lies right of the site s this member was made at;
        # the push below hands each child its parent's mask with bit s
        # doubled, and adds the Fishburn and 321 bits of its maximum.
        # For any other classical pattern, an occurrence that uses that
        # maximum ends at the new inverse entry, index m of the child's
        # inverse, with the newest entry inv[m-1] next to last, since no
        # index lies between; without its last entry it is an occurrence of
        # the head ending at m - 1.  Only when the head occurs there does
        # the member call `dead_sites`, one pass over the head's occurrences:
        # the new entry s - 0.5 completes one iff it lies between the values
        # L and U of its slots next below and next above the pattern's last
        # entry, so each occurrence kills the sites [L + 1, U] (the argument
        # is written out at `patterns._killer`).  A size-1 pattern has no
        # head and kills every site, so the root's only one.
        for pattern, head in checks:
            if head is None or m and occurs_ending_at(inv, m - 1, head):
                dead |= dead_sites(inv, m - 1, pattern)
        # live holds the children's sites: the prefix's, less the dead ones.
        # Insertions only move entry 1 right, so once it sits at the target
        # the sites at or left of it are cut (one is -1 at the root, and so
        # is target when unset).
        live = sites[top] & ~dead
        if one == target >= 0:
            live &= -(2 << target)
        if top == n:
            # Leaves are whole members, so the filters on those cut here:
            # the target keeps the sites that put entry 1 at it, and the ban
            # cuts those that put ban_value in the last prefix slot.
            if target >= 0:
                live &= _lands(inv, top, 1, target)
            if ban_value:
                live &= ~_lands(inv, top, ban_value, len(prefix) - 1)
        kids = live.bit_count()
        low = (live & _lands(inv, top, 1, one + 1)).bit_count()
        if top < n:
            for s in range(m, -1, -1):
                if not live >> s & 1:
                    continue
                child = [p + (p >= s) for p in inv]
                child.append(s)
                mask = (dead & ((2 << s) - 1)) | ((dead >> s) << (s + 1))
                # 321: the new maximum can only be the 3, so a site is dead
                # iff a descent lies right of it.  Made left of the end, the
                # child has the descent (top, word[s]), right of its sites
                # 0..s; made at the end, it adds no descent.
                if has_321 and s < m:
                    mask |= (2 << s) - 1
                # Fishburn: the new maximum can only be the 3 of the 231,
                # with the entry a left of it as the 2, and it makes an
                # occurrence iff a-1 lies right of it.  Only the child's
                # site s + 1 gets a new left entry, top, so it is dead iff
                # m, the old maximum, lies right of top.
                if fishburn and m and inv[m - 1] >= s:
                    mask |= 2 << s
                stack.append((top, word[:s] + code + word[s:], child, mask))
        elif visit is not None:
            for s in range(top):
                if live >> s & 1:
                    visit(word[:s] + code + word[s:])
        # Each member is counted once, here, where its parent makes it, by
        # popcounts of live: kids children, of which the low ones have entry
        # 1 at one + 1 and the others at one.  A leaf level is thus tallied
        # without a loop; its members are built only for a visitor.  Without
        # a prefix, sizes[m] is then the class count at m, and first[m] and
        # second[m] split it by where entry 1 sits.  With one_position
        # sizes[m] counts the members with entry 1 at the target, and so
        # does the split the target names: insertions never move entry 1
        # left, the target prune cuts only children with entry 1 right of
        # it, and the leaf cut only leaves with entry 1 elsewhere.  With a
        # prefix the lower entries do not count the query at m; callers read
        # only index n.
        for j, c in ((one, kids - low), (one + 1, low)) if m else ((0, kids),):
            if target < 0 or j == target:
                sizes[top] += c
                if j < 2:
                    splits[j][top] += c
    return sizes, first, second


def count(query: AvoidanceQuery, *, cap: int = DEFAULT_COUNT_CAP) -> int:
    """Exact cardinality of the class described by the query."""
    return search(query, None, cap=cap)[0][-1]


def members(query: AvoidanceQuery, *, cap: int = DEFAULT_LIST_CAP) -> list[str]:
    """The words of every member of the class, sorted, so in lexicographic order."""
    found: list[str] = []
    search(query, found.append, cap=cap)
    found.sort()
    return found
