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
is an occurrence in its parent.  Inserting the maximum at site s of w
appends the entry s+1 to the inverse of w (raising the entries above s),
and pi occurs in a word iff its inverse occurs in the word's inverse, so an
occurrence of a classical pattern other than 321 that uses the new maximum
is one of its inverse ending at the last index of the child's inverse.
Each member carries the mask of its dead sites, where the new maximum makes
an occurrence, and inherits its parent's; only its own maximum adds new
ones (the active sites of West, and of Marinov and Radoicic).  A member
carries its inverse only for the checks of such patterns, which alone read
all of it; every other rule reads one position, found in the member's word.

A member is its word, one character chr(48 + v) per value v ("213"), which
sorts as its value tuple does; `fishburn.perm.word_values` decodes it.  One
rule grows a member; every query filter is a mask of sites ANDed into its
live sites.  `search` only counts: it applies the rule depth first and
tallies each level by popcounts of that mask, building no member of the
last size.  `members`, the one walk that lists, applies it size by size in
lexicographic order, merging the children of consecutive parents, so it
hands out words as it walks and sorts nothing.  Caps default to 14 for
counting, 10 for member lists and 64 for the Fishburn series and the Pell
identities; they are arguments, and the only length limits.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from functools import lru_cache

from fishburn.patterns import ClassicalPattern, PatternSet, dead_sites, occurs_ending_at
from fishburn.perm import Permutation, _Record

DEFAULT_COUNT_CAP = 14
DEFAULT_LIST_CAP = 10
SERIES_CAP = 64
BATCH = 4096  # `members` hands words to `out` exactly this many at a time, but at the end

_PATTERN_321 = (3, 2, 1)


class CapacityError(ValueError):
    """Raised when a query exceeds the configured length cap."""


class AvoidanceQuery(_Record):
    """A class of permutations to enumerate.

    prefix, when set, requires members to begin with exactly those values;
    with prefix_negation they begin with prefix[:-1] and carry another value
    in the final prefix slot.  one_position keeps the members whose entry 1
    sits at that position (1 or 2).  `check_cap`, not the query, checks n.
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
        if self.one_position not in (None, 1, 2):
            raise ValueError("one_position must be 1 or 2")
        if self.prefix_negation and not self.prefix:
            raise ValueError("prefix_negation requires a prefix")
        if len(set(self.prefix)) != len(self.prefix):
            raise ValueError("prefix values must be distinct")
        for v in self.prefix:
            if not 1 <= v <= self.n:
                raise ValueError(f"prefix value {v} outside 1..{self.n}")


def check_cap(n: int, cap: int, name: str = "n") -> None:
    """The one length rule, first at every entry point: ValueError when n,
    called name in the message, is negative, CapacityError above cap."""
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    if n > cap:
        raise CapacityError(f"{name}={n} exceeds the cap of {cap}")


def _lands(p: int, index: int) -> int:
    """The mask of sites whose child holds a value at index, where p is the
    value's index in the member's word, or -1 for the new maximum, as
    str.find gives for a value not yet in it.  The child made at site s
    holds the new maximum at s, and the value at p + (s <= p).  Bits past
    the last site are ANDed away with live."""
    if p < 0:
        return 1 << index
    if p == index:
        return -(2 << p)
    return (2 << p) - 1 if p + 1 == index else 0


@lru_cache(maxsize=1 << 12)  # bounded: masks of long members have no useful limit
def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first: the live sites a member loops over."""
    return tuple(s for s in range(mask.bit_length()) if mask >> s & 1)


def _grower(query: AvoidanceQuery):
    """(grow, target): the rule both walks grow a member by, and the index
    the query wants entry 1 at, or -1 (n has passed `check_cap`).
    grow(m, word, inv, dead, slots) takes a member of size m < n, appends
    each child, (m + 1, word, inv, dead) or a leaf's word (built only when
    slots is set), to slots[s] for its site s, left to right, and returns
    live, the mask of those sites.  inv, the zero-based inverse, is None
    unless a classical check other than 321 reads it; every other rule
    finds its one index in the word."""
    n = query.n
    target = query.one_position - 1 if query.one_position else -1
    # Every filter is a mask of sites ANDed into live (below).  Deleting the
    # maximum keeps the head's entries up to m in front, in head order, so
    # the maximum v has one site, sites[v], when it is in the head (behind
    # the smaller head entries before it), else those behind every smaller.
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
    # Each pattern's inverse, its positions in order of value, is paired
    # with its head, the inverse less its last entry, standardized; a size-1
    # pattern has none (it kills the root's only site, the last one asked).
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

    def grow(m: int, word: str, inv: list[int], dead: int, slots: list[list] | None) -> int:
        top = m + 1
        # dead has bit t set iff the new maximum at site t makes an
        # occurrence of an avoided pattern; it is exact on [0, m] and takes
        # in no filter, which the children would inherit.  An occurrence
        # avoiding a child's maximum is one in its parent at site t, or t - 1
        # right of the child's site s, so a child gets its parent's mask with
        # bit s doubled, and the Fishburn and 321 bits of its maximum.  For
        # another pattern, one using the maximum holds the head ending at
        # inv[m-1]; only then does the member make the `dead_sites` pass,
        # each occurrence of the head killing the sites [L + 1, U] (argued
        # at `patterns._killer`).  A size-1 pattern kills every site.
        for pattern, head in checks:
            if head is None or m and occurs_ending_at(inv, m - 1, head):
                dead |= dead_sites(inv, m - 1, pattern)
        # live: the prefix's sites less the dead ones.  Insertions only move
        # entry 1 right, so the target keeps the sites that put entry 1 at it
        # once it sits there, and at the last level (one is -1 at the root).
        live = sites[top] & ~dead
        if target >= 0:
            one = word.find("1")
            if one == target or top == n:
                live &= _lands(one, target)
        if top == n:
            # Leaves are whole members: the ban cuts the sites that put
            # ban_value in the last prefix slot.
            if ban_value:
                live &= ~_lands(word.find(chr(48 + ban_value)), len(prefix) - 1)
            if slots is not None:
                code = chr(48 + top)  # the new maximum's character in a word
                for s in _bits(live):
                    slots[s].append(word[:s] + code + word[s:])
            return live
        code = chr(48 + top)
        peak = word.find(chr(47 + top))  # the old maximum's index, -1 at the root
        child = None  # only the classical checks read a member's inverse
        for s in _bits(live):
            if checks:
                child = [p + 1 if p >= s else p for p in inv]
                child.append(s)
            mask = (dead & ((2 << s) - 1)) | ((dead >> s) << (s + 1))
            # 321: the new maximum can only be the 3, so a site is dead iff
            # a descent lies right of it.  Made left of the end, the child
            # has the descent (top, word[s]), right of its sites 0..s.
            if has_321 and s < m:
                mask |= (2 << s) - 1
            # Fishburn: the new maximum can only be the 3 of the 231, with
            # the entry a left of it as the 2, and a-1 right of it.  Only the
            # child's site s + 1 gets a new left entry, top, so it is dead
            # iff m, the old maximum, lies right of top.
            if fishburn and peak >= s:
                mask |= 2 << s
            slots[s].append((top, word[:s] + code + word[s:], child, mask))
        return live

    return grow, target


def search(query: AvoidanceQuery, *, cap: int = DEFAULT_COUNT_CAP) -> tuple[list[int], list[int], list[int]]:
    """Count the members of every size 0..n in one depth-first walk of the
    generating tree, which builds no member of size n (`members` lists
    them).  Returns (sizes, first, second), one count per size 0..n:
    sizes[n] is the number of members, first[n] and second[n] those with
    entry 1 at position 1 and at 2; the comment at the tally says what the
    lower entries count."""
    check_cap(query.n, cap)
    n = query.n
    grow, target = _grower(query)
    sizes = [int(target < 0)] + [0] * n  # the root, the empty member, has no entry 1
    first, second = [0] * (n + 1), [0] * (n + 1)
    if n == 0:
        return sizes, first, second

    # Every site's slot is the stack itself, so grow pushes an inner
    # member's children straight onto it; at the last level it only counts.
    splits = (first, second)
    stack = [(0, "", [], 0)]
    every = [stack] * n
    while stack:
        m, word, inv, dead = stack.pop()
        top = m + 1
        live = grow(m, word, inv, dead, every if top < n else None)
        # Each member is counted where its parent makes it, by popcounts of
        # live: made children, the low ones with entry 1 at one + 1, the rest
        # at one (-1 at the root, whose child is low).  Without a prefix
        # sizes[m] is the class count at m, split by first[m] and second[m];
        # with one_position it counts those with entry 1 at the target, as
        # does that split, since insertions never move entry 1 left and the
        # prunes cut only the others.  With a prefix only n counts the query.
        one = word.find("1")
        made = live.bit_count()
        low = (live & _lands(one, one + 1)).bit_count()
        for j, c in (one, made - low), (one + 1, low):
            if target < 0 or j == target:
                sizes[top] += c
                if 0 <= j < 2:
                    splits[j][top] += c
    return sizes, first, second


def count(query: AvoidanceQuery, *, cap: int = DEFAULT_COUNT_CAP) -> int:
    """Exact cardinality of the class described by the query."""
    return search(query, cap=cap)[0][-1]


def members(
    query: AvoidanceQuery, *, cap: int = DEFAULT_LIST_CAP, out: Callable[[list[str]], object] | None = None
) -> list[str] | int:
    """The words of every member of the class, in lexicographic order, as a
    list; or, with out, their number, once the merge below has handed them
    to out in batches of exactly BATCH words (the last may hold fewer)."""
    check_cap(query.n, cap)
    n = query.n
    grow, target = _grower(query)
    # The loop grows sizes 1..n; the empty member, alone at n = 0, has no entry 1.
    found: list[str] = [""] if n == 0 and target < 0 else []
    # The members of size m arrive in lexicographic order, and each parent
    # P puts its child P^s = P[:s] + max + P[s:] on the list of site s.  As
    # max exceeds every other character, X^s < Y^t when t < s and Y shares
    # X's prefix of length t.  Site s is flushed whenever a parent does not
    # share the prefix of length s with the one before, so its list keeps
    # its parents' order.  When Q follows P, j = lcp(P, Q), a child X^s
    # pending at s > j is thus smaller than one pending at t <= j, and than
    # a child R^t of Q or a later R: at k = lcp(P, R) <= j, R[k] > P[k] =
    # X[k], and if t <= k, R^t holds max where X^s holds X[t].  So flushing
    # sites m, m - 1, ..., j + 1 in order hands on the next children, as
    # does flushing all at the end.  The loop grows the deepest size with
    # members waiting; sizes below `ended` have had their final flush.
    ready = [deque([(0, "", [], 0)])] + [deque() for _ in range(n - 1)]  # per size, members waiting
    last = [""] * n  # per size, the member grown last; "" shares no prefix
    pending: list[list[list] | None] = [None] * n  # per size and site, children waiting
    handed = ended = m = 0
    while ended < n:
        queue, prev = ready[m], last[m]
        slots = pending[m] = pending[m] or [[] for _ in range(m + 1)]
        deepest = m + 1 == n
        into = found if deepest else ready[m + 1]
        while queue and (deepest or not into):
            member = queue.popleft()
            word = member[1]
            j = m - 2  # words of one size hold the same values, so differ twice
            while prev[:j] != word[:j]:
                j -= 1
            for s in range(m, j, -1):
                into += slots[s]
                slots[s].clear()
            prev = word
            grow(*member, slots)
        last[m] = prev
        if into and not deepest:
            m += 1
        elif m > ended:
            m -= 1  # the size below can still hand this one members
        else:
            for s in range(m, -1, -1):
                into += slots[s]
            pending[m] = None
            ended = m = m + 1
        while out is not None and len(found) >= BATCH:
            out(found[:BATCH])
            del found[:BATCH]
            handed += BATCH
    if out is not None and found:
        out(found)
    return found if out is None else handed + len(found)
