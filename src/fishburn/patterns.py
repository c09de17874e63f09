"""Pattern types and the anchored classical-pattern matcher.

A classical pattern occurs in a word when some subsequence is
order-isomorphic to it.  The search kernel decides membership one inserted
maximum at a time, and only needs occurrences that use the new entry.  For
each member and forbidden pattern it asks `occurs_ending_at` whether the
pattern's head ends at the member's newest inverse entry, and when it does,
`dead_sites` for every site at which the new maximum would complete such an
occurrence, in one pass (see the docstring of `fishburn.enumeration`).  The
Fishburn pattern and 321 need neither; the kernel sets their dead sites
where it makes a member.

Each pattern body gets its own matcher and its own kill pass, compiled from
generated source into nested `for` loops (`_nest` writes the loops for
both) the first time the body is used, never at import or parse, and kept in
bounded caches.  The source holds only integers and names derived from a
validated body; no user text reaches `exec`.
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

    The kernel calls this on a member's own inverse, anchored at its final
    index, with the head of the inverse of a forbidden pattern pi (its last
    entry dropped, the rest standardized): only when the head occurs there
    can a child of the member hold an occurrence of pi that the dead sites
    inherited from the member's parent do not already rule out, and only
    then does it ask `dead_sites` which children do.  word may hold any
    distinct numbers; only their relative order matters.

    The question is answered by the pattern body's own matcher: straight
    nested loops, generated and compiled by `_matcher` on the first call
    with that body and cached.  The generated source depends only on the
    order of the validated body's values, so no caller text is executed.
    """
    return _matcher(pattern.body.values)(word, last)


def dead_sites(word: Sequence[float], last: int, pattern: ClassicalPattern) -> int:
    """The sites a new last entry would complete pattern at, through word[last].

    Bit s of the result is set iff, in word[:last + 1] followed by the probe
    s - 0.5, some occurrence of pattern ends at the probe and has index
    `last` as its next-to-last entry.  The kernel passes a member's inverse,
    a rearrangement of 0..m-1, with last = m - 1, and the inverse of a
    forbidden pattern: inserting the new maximum at site s appends, to the
    inverse, an entry order-isomorphic to s - 0.5, so the result is the set
    of the member's sites whose children hold an occurrence through the
    member's own maximum.  A size-1 pattern has an empty head and kills
    every site 0..last + 1.

    Like `occurs_ending_at`, it runs compiled nested loops, from `_killer`.
    """
    return _killer(pattern.body.values)(word, last)


@lru_cache(maxsize=128)  # `verify all` gates on 11 heads and kills for 18 bodies
def _matcher(body: tuple[int, ...]) -> Callable[[Sequence[float], int], bool]:
    """Compile the anchored matcher of one pattern body into nested loops.

    The loops of `_nest` return True at the first occurrence ending at
    w[last], and the function returns False when they find none.  A size-1
    body matches at every index.

    A body is compiled on first use, never at import or parse, and at most
    128 bodies are kept, here and in `_killer`.  Executing generated source
    is safe here: `body` is the values of a validated Permutation, and the
    source holds only fixed names and integers computed from the order of
    those values; no text from the caller reaches `exec`.
    """
    return _compile(["def f(w, last):", *_nest(body, "return True"), " return False"])


@lru_cache(maxsize=128)
def _killer(body: tuple[int, ...]) -> Callable[[Sequence[float], int], int]:
    """Compile `dead_sites` for one pattern body into nested loops.

    Why one pass over the head's occurrences is enough: take an occurrence
    of body that ends at the probe s - 0.5 and has w[last] next to last.
    Without its last entry it is an occurrence of the head, body[:-1],
    ending at last.  The probe must then lie where body[-1] lies among the
    head's values, that is, above the value L of the head slot holding
    body[-1] - 1 and below the value U of the slot holding body[-1] + 1
    (L = -1 if there is none; U = last + 1 if there is none).  For integer
    L and U, L < s - 0.5 < U iff L + 1 <= s <= U.  Conversely, a head
    occurrence ending at last and any site in [L + 1, U] make an occurrence
    of body.  So each head occurrence kills exactly the sites [L + 1, U],
    the bits (2 << U) - (2 << L), with 1 in place of 2 << L when there is no
    smaller slot (a negative shift raises).  The loops of `_nest` run over
    the head's occurrences and OR in one interval each; an empty head, of a
    size-1 body, occurs once and kills every site.  Same cache and the same
    safety as `_matcher`.
    """
    head = body[:-1]
    lo, hi = _neighbours(body[-1], head, len(head) - 1) if head else (None, None)
    upper = f"2 << {hi or '(last + 1)'}"
    lower = f"2 << {lo}" if lo else "1"
    return _compile(["def f(w, last):", " d = 0", *_nest(head, f"d |= ({upper}) - ({lower})"), " return d"])


def _compile(lines: list[str]):
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["f"]


def _nest(body: tuple[int, ...], inner: str) -> list[str]:
    """Source lines of nested loops that run `inner` once per occurrence of
    body ending at w[last].

    The last slot of the body is the anchor, bound to `a` = w[last].  Slot
    j = 0..k-2 gets one `for` loop over the indices after slot j-1's that
    leave room for the slots still to come, and binds its value to `vj`.
    The values already chosen, the anchor's and those of slots 0..j-1, form
    a prefix order-isomorphic to the body's, so a candidate for slot j fits
    iff it lies above the nearest smaller and below the nearest larger of
    them (`_neighbours`): each loop makes at most two comparisons, and the
    innermost block runs once for every occurrence.  The body's values need
    only be distinct; their order is all that is read.  An empty body has
    no anchor and runs `inner` once.
    """
    k = len(body)
    lines = [" a = w[last]"] if k else []
    for j in range(k - 1):
        lo, hi = _neighbours(body[j], body, j)
        test = " < ".join(([lo] if lo else []) + [f"v{j}"] + ([hi] if hi else []))
        pad = " " * (2 * j + 1)
        start = f"i{j - 1} + 1" if j else "0"
        lines += [f"{pad}for i{j} in range({start}, last - {k - 2 - j}):",
                  f"{pad} v{j} = w[i{j}]",
                  f"{pad} if {test}:"]
    return lines + [" " * max(1, 2 * k - 1) + inner]


def _neighbours(value: int, body: tuple[int, ...], j: int) -> tuple[str | None, str | None]:
    """The names `_nest` binds to the nearest smaller and the nearest larger
    value than `value` among the anchor, body[-1], and slots 0..j-1 of body;
    None where there is none."""
    named = [(body[-1], "a")] + [(body[i], f"v{i}") for i in range(j)]
    lo = max((f for f in named if f[0] < value), default=(0, None))[1]
    hi = min((f for f in named if f[0] > value), default=(0, None))[1]
    return lo, hi
