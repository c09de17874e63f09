"""Value-tuple permutations: the pattern body type and structural operations.

A permutation of length n is a rearrangement of {1, ..., n}; positions and
values are one-indexed throughout, matching the combinatorics literature.
The empty permutation (n = 0) is valid and avoids every pattern.

Text encoding: entries as decimal integers separated by single spaces
("3 1 2 4 7 5 6").  On input only, a single run of digits ("3124756") is
accepted as a compact form for lengths up to 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class ParseError(ValueError):
    """Raised when text does not encode a permutation or pattern."""


@dataclass(frozen=True, slots=True)
class Permutation:
    """An immutable rearrangement of {1, ..., n}: the validated body of a
    classical pattern.

    >>> Permutation((2, 3, 1))
    Permutation((2, 3, 1))
    >>> len(Permutation(()))
    0
    """

    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if sorted(values) != list(range(1, len(values) + 1)):
            raise ValueError(f"not a rearrangement of 1..{len(values)}: {values!r}")

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Permutation({self.values!r})"


def complement(values: Sequence[int]) -> tuple[int, ...]:
    """Replace each entry v of a permutation of 1..n by n+1-v.  An involution.

    >>> complement((2, 1, 3))
    (2, 3, 1)
    """
    n = len(values)
    return tuple(n + 1 - v for v in values)


def left_to_right_maxima(values: Sequence[int]) -> frozenset[int]:
    """The set of entries greater than every entry to their left.

    >>> sorted(left_to_right_maxima((3, 1, 2, 4, 7, 5, 6)))
    [3, 4, 7]
    """
    out = []
    best = 0
    for v in values:
        if v > best:
            out.append(v)
            best = v
    return frozenset(out)


def values_format(n: int) -> str:
    """The %-format string that encodes n values as text.

    >>> values_format(3) % (3, 1, 2)
    '3 1 2'
    """
    return " ".join(["%d"] * n)


def parse_values(text: str) -> tuple[int, ...]:
    """Decode a space-separated or compact-digit value sequence.

    Values are not checked for forming a permutation here; callers decide
    what invariants apply (full permutation, pattern, query prefix).
    """
    tokens = text.split()
    if not tokens:
        return ()
    if len(tokens) == 1 and len(tokens[0]) > 1:
        token = tokens[0]
        if not token.isdigit():
            raise ParseError(f"invalid token {token!r}: expected digits or space-separated integers")
        if "0" in token:
            raise ParseError(f"invalid token {token!r}: compact form uses digits 1-9 only")
        return tuple(int(ch) for ch in token)
    out = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"invalid token {token!r}: not an integer") from None
        if value < 1:
            raise ParseError(f"invalid token {token!r}: values must be positive")
        out.append(value)
    return tuple(out)
