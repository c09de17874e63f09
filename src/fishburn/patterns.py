"""Pattern types and the anchored classical-pattern matcher.

A classical pattern occurs in a word when some subsequence is
order-isomorphic to it.  The search kernel decides membership one inserted
maximum at a time, and only needs occurrences that use the new entry: it
asks `occurs_ending_at` about the child's inverse word, anchored at its last
index, and about the member's own inverse with a pattern's head, to learn
whether any child needs that question (see the docstring of
`fishburn.enumeration`).  The Fishburn pattern
and 321 need no matcher there; the kernel sets their dead sites where it
makes a member.

Each pattern body gets its own matcher, compiled from generated source into
nested `for` loops the first time the body is matched, never at import or
parse, and kept in a bounded cache.  The source holds only integers and
names derived from a validated body; no user text reaches `exec`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from fishburn.perm import ParseError, Permutation, _Record, parse_values

MAX_PATTERN_SIZE = 9  # keeps the compact digit encoding unambiguous


class ClassicalPattern(_Record):
    """A pattern matched by order-isomorphic subsequences, no adjacency."""

    __slots__ = ("body",)
    body: Permutation

    def __post_init__(self):
        if not 1 <= len(self.body) <= MAX_PATTERN_SIZE:
            raise ValueError(f"pattern size must be 1..{MAX_PATTERN_SIZE}, got {len(self.body)}")


class PatternSet(_Record):
    """A duplicate-free set of classical patterns plus the Fishburn flag.

    classical may be any iterable of patterns; it is stored as a tuple, so
    sets built from a list and from a tuple are equal and hashable.
    """

    __slots__ = ("classical", "fishburn")
    _defaults = {"classical": (), "fishburn": False}
    classical: tuple[ClassicalPattern, ...]
    fishburn: bool

    def __post_init__(self):
        object.__setattr__(self, "classical", tuple(self.classical))
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

    The question is answered by the pattern body's own matcher: straight
    nested loops, generated and compiled by `_matcher` on the first call
    with that body and cached.  The generated source depends only on the
    order of the validated body's values, so no caller text is executed.
    """
    return _matcher(pattern.body.values)(word, last)


@lru_cache(maxsize=128)  # `verify all` matches 20 bodies
def _matcher(body: tuple[int, ...]) -> Callable[[Sequence[float], int], bool]:
    """Compile the anchored matcher of one pattern body into nested loops.

    The last slot of the body is the anchor, word[last].  Slot j = 0..k-2
    gets one `for` loop over the indices after slot j-1's that leave room
    for the slots still to come.  The values already chosen, the anchor's
    and those of slots 0..j-1, form a prefix order-isomorphic to the body's,
    so a candidate for slot j fits iff it lies above the nearest smaller
    and below the nearest larger of them: each loop makes at most two
    comparisons, and the innermost one that succeeds has found an
    occurrence.  A size-1 body matches at every index.

    A body is compiled on first use, never at import or parse, and at most
    128 bodies are kept.  Executing generated source is safe here: `body`
    is the values of a validated Permutation, and the source holds only
    fixed names and integers computed from the order of those values; no
    text from the caller reaches `exec`.
    """
    k = len(body)
    lines = ["def match(w, last):", " a = w[last]"]
    for j in range(k - 1):
        fixed = [(body[-1], "a")] + [(body[i], f"v{i}") for i in range(j)]
        lo = max((f for f in fixed if f[0] < body[j]), default=None)
        hi = min((f for f in fixed if f[0] > body[j]), default=None)
        test = " < ".join(([lo[1]] if lo else []) + [f"v{j}"] + ([hi[1]] if hi else []))
        pad = " " * (2 * j + 1)
        start = f"i{j - 1} + 1" if j else "0"
        lines += [f"{pad}for i{j} in range({start}, last - {k - 2 - j}):",
                  f"{pad} v{j} = w[i{j}]",
                  f"{pad} if {test}:"]
    lines += [" " * (2 * k - 1) + "return True", " return False"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["match"]
