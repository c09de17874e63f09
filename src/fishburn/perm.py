"""Value-tuple permutations: the pattern body type and structural operations.

A permutation of length n is a rearrangement of {1, ..., n}; positions and
values are one-indexed throughout, matching the combinatorics literature.
The empty permutation (n = 0) is valid and avoids every pattern.

Text encoding: entries as decimal integers separated by single spaces
("3 1 2 4 7 5 6"); on input only, also one run of digits ("3124756") up to
length 9.  `word_values` decodes the kernel's member words ("213").

`_Record`, the base of the package's immutable value types, lives here
because every other module already imports this one.
"""

from __future__ import annotations

from collections.abc import Sequence


class ParseError(ValueError):
    """Raised when text does not encode a permutation or pattern."""


class _Record:
    """Base of the package's immutable value types.  A subclass names its
    fields, in order, in `__slots__` and their defaults in `_defaults`; it
    is built from positional or keyword arguments, then checked by its
    `__post_init__`.  Records compare and hash by the tuple of their fields,
    and only records of one class are ever equal; copies and pickles are
    rebuilt through the constructor.  This is what a frozen dataclass would
    generate, without loading `dataclasses` (and `inspect`) at start-up."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
            object.__setattr__(self, field, value)
        if kwargs:
            field = next(iter(kwargs))
            kind = "a repeated" if field in fields else "an unexpected"
            raise TypeError(f"{name}() got {kind} argument {field!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _fields(self) -> tuple:
        return tuple([getattr(self, field) for field in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")


class Permutation(_Record):
    """An immutable rearrangement of {1, ..., n}: the validated body of a
    classical pattern.

    >>> Permutation((2, 3, 1))
    Permutation((2, 3, 1))
    >>> len(Permutation(()))
    0
    """

    __slots__ = ("values",)
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


def word_values(word: str) -> tuple[int, ...]:
    """Decode a member's word, one character chr(48 + v) per value v.

    >>> word_values("21:")
    (2, 1, 10)
    """
    return tuple([ord(c) - 48 for c in word])


def parse_values(text: str, *, compact: bool = True) -> tuple[int, ...]:
    """Decode a space-separated or compact-digit value sequence.

    A lone multi-digit token is one value per digit, unless compact is
    False.  Values are not checked for forming a permutation here; callers
    decide what invariants apply (full permutation, pattern, query prefix).
    """
    tokens = text.split()
    if not tokens:
        return ()
    if compact and len(tokens) == 1 and len(tokens[0]) > 1:
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
