"""Pattern types and the anchored classical-pattern matcher.

A classical pattern occurs in a word when some subsequence is
order-isomorphic to it.  The search kernel decides membership one inserted
maximum at a time, and only needs occurrences that use the new entry: it
asks `occurs_ending_at` about the child's inverse word, anchored at its last
index, and about the member's own inverse with a pattern's head, to learn
whether any child needs that question (see the docstring of
`fishburn.enumeration`).  The Fishburn pattern
needs no matcher there; the kernel tests it in constant time per site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from fishburn.perm import ParseError, Permutation, parse_values

MAX_PATTERN_SIZE = 9  # keeps the compact digit encoding unambiguous


@dataclass(frozen=True)
class ClassicalPattern:
    """A pattern matched by order-isomorphic subsequences, no adjacency."""

    body: Permutation
    # For each pattern index j, the index (< j) holding the nearest smaller /
    # nearest larger pattern value.  A candidate for slot j only needs
    # comparing against these two chosen entries: the already-matched prefix
    # is order-isomorphic to the pattern prefix, so the nearest neighbours
    # bound the candidate against every earlier choice.
    _below: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _above: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.body)
        if not 1 <= k <= MAX_PATTERN_SIZE:
            raise ValueError(f"pattern size must be 1..{MAX_PATTERN_SIZE}, got {k}")
        vals = self.body.values
        below, above = [], []
        for j in range(k):
            lo = max((m for m in range(j) if vals[m] < vals[j]),
                     key=lambda m: vals[m], default=-1)
            hi = min((m for m in range(j) if vals[m] > vals[j]),
                     key=lambda m: vals[m], default=-1)
            below.append(lo)
            above.append(hi)
        object.__setattr__(self, "_below", tuple(below))
        object.__setattr__(self, "_above", tuple(above))

    def __len__(self) -> int:
        return len(self.body)


@dataclass(frozen=True)
class PatternSet:
    """A duplicate-free set of classical patterns plus the Fishburn flag."""

    classical: tuple[ClassicalPattern, ...] = ()
    fishburn: bool = False

    def __post_init__(self):
        if len(set(self.classical)) != len(self.classical):
            raise ValueError("duplicate classical pattern in set")

    @classmethod
    def parse(cls, text: str, fishburn: bool = False) -> "PatternSet":
        """Build from comma-separated pattern text, e.g. "321,1423,2143"."""
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        return cls(tuple(parse_pattern(tok) for tok in tokens), fishburn)


def parse_pattern(text: str) -> ClassicalPattern:
    """Parse one pattern from compact digits or space-separated integers."""
    values = parse_values(text)
    if not values:
        raise ParseError("empty pattern")
    if len(values) > MAX_PATTERN_SIZE:
        raise ParseError(f"pattern {text!r} longer than {MAX_PATTERN_SIZE}")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ParseError(f"invalid pattern {text!r}: value {repeated[0]} repeats")
    missing = set(range(1, len(values) + 1)) - set(values)
    if missing:
        raise ParseError(f"invalid pattern {text!r}: value {min(missing)} missing")
    return ClassicalPattern(Permutation(values))


def occurs_ending_at(word: Sequence[float], last: int, pattern: ClassicalPattern) -> bool:
    """Does an occurrence of pattern end exactly at index `last` of word?

    The kernel calls this on a child's inverse word, anchored at its final
    index `last`, with the inverse of a forbidden pattern pi: inserting the
    new maximum into a member appends an entry to its inverse, so an
    occurrence ending there is exactly an occurrence of pi in the child
    that uses the new maximum.  It also calls it on a member's own inverse,
    anchored at its final index, with the head of pi's inverse (its last
    entry dropped, the rest standardized): only when the head occurs there
    can a child of the member hold an occurrence of pi that the dead sites
    inherited from the member's parent do not already rule out.  word may
    hold any distinct numbers (the kernel passes a member's inverse, a
    rearrangement of 0..m-1, or that inverse followed by a half-integer
    probe); only their relative order matters.
    """
    body = pattern.body.values
    below, above = pattern._below, pattern._above
    k = len(body)
    if k - 1 > last:
        return False
    v_last = word[last]
    if k == 1:
        return True
    r_last = body[k - 1]
    chosen = [0] * k
    chosen[k - 1] = v_last

    def extend(j: int, start: int) -> bool:
        lo_i, hi_i = below[j], above[j]
        want_lt = body[j] < r_last
        stop = last - (k - 2 - j)
        final = j == k - 2
        for i in range(start, stop):
            v = word[i]
            if (v < v_last) != want_lt:
                continue
            if lo_i >= 0 and chosen[lo_i] >= v:
                continue
            if hi_i >= 0 and chosen[hi_i] <= v:
                continue
            chosen[j] = v
            if final or extend(j + 1, i + 1):
                return True
        return False

    return extend(0, 0)

