"""Closed-form evaluators, integer recurrences, and exact series expansion.

Everything is exact integer arithmetic; Python integers are unbounded, so
overflow cannot wrap.  NOTE the Fibonacci convention used throughout this
package: F(0) = F(1) = 1 (so F(5) = 8), one step ahead of the common
F(0) = 0 indexing.  `fibonacci` below is the single place that encodes it.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from math import comb

from fishburn.enumeration import SERIES_CAP, check_cap
from fishburn.patterns import PatternSet
from fishburn.perm import _Record


class RangeError(ValueError):
    """Raised when a closed form or identity is evaluated below its stated range."""


def fibonacci(n: int) -> int:
    """Fibonacci number with F(0) = F(1) = 1, F(n) = F(n-1) + F(n-2).

    >>> [fibonacci(n) for n in range(7)]
    [1, 1, 2, 3, 5, 8, 13]
    """
    if n < 0:
        raise ValueError("fibonacci index must be nonnegative")
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def pell(n: int) -> int:
    """Pell number with P(0) = 0, P(1) = 1, P(n) = 2 P(n-1) + P(n-2).

    >>> [pell(n) for n in range(7)]
    [0, 1, 2, 5, 12, 29, 70]
    """
    if n < 0:
        raise ValueError("pell index must be nonnegative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def q_value(n: int) -> int:
    """(P(n) + P(n-1) + 1) / 2 for n >= 1, with the n = 0 value defined as 1.

    P(n) + P(n-1) is always odd, so the division is exact; a parity failure
    would mean a broken recurrence and raises rather than rounding.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return 1
    half, rem = divmod(pell(n) + pell(n - 1) + 1, 2)
    if rem:
        raise ArithmeticError(f"P({n}) + P({n - 1}) + 1 is odd")
    return half


class SequenceRow(_Record):
    """One counted claim: the class avoiding `patterns` (only its members
    with entry 1 at `one_position`, when set) has `formula(n)` members for
    every n >= valid_from.  The closed form returns None where its
    expression is undefined."""

    __slots__ = ("row_id", "patterns", "formula", "valid_from", "one_position")
    _defaults = {"one_position": None}
    row_id: str
    patterns: PatternSet
    formula: Callable[[int], int | None]
    valid_from: int
    one_position: int | None


def claim(
    pattern_text: str,
    formula: Callable[[int], int | None],
    valid_from: int,
    one_position: int | None = None,
) -> SequenceRow:
    """The row for a claim about the Fishburn class avoiding pattern_text."""
    row_id = pattern_text if one_position is None else f"{pattern_text}:pos{one_position}"
    return SequenceRow(
        row_id=row_id,
        patterns=PatternSet.parse(pattern_text, fishburn=True),
        formula=formula,
        valid_from=valid_from,
        one_position=one_position,
    )


TABLE_ROWS: tuple[SequenceRow, ...] = (
    claim("321,1243", lambda n: n * n - 3 * n + 4, 2),
    claim("321,2134", lambda n: n * n - 3 * n + 4, 2),
    claim("321,1324", lambda n: (3 * n * n - 13 * n + 20) // 2, 3),  # numerator is always even
    claim("321,1423,2143", lambda n: comb(n, 2) + 1, 0),
    claim("321,3142,2143", lambda n: comb(n, 2) + 1, 0),
    claim("321,2143,3124", lambda n: comb(n, 2) + 1, 0),
    claim("321,2143,4123", lambda n: comb(n, 2) + 1, 0),
    claim("321,1423,3124", lambda n: fibonacci(n) + 2, 4),
    claim("321,1423,4123", lambda n: fibonacci(n + 1) - 1, 1),
    claim("321,3124,4123", lambda n: fibonacci(n + 1) - 1, 1),
    claim("321,14253", lambda n: 2**n - comb(n, 2) - 1, 1),
    claim("321,21354", lambda n: 2**n - comb(n, 2) - 1, 1),
    claim("321,31452", q_value, 1),
    claim("321,31524", q_value, 1),
    claim("321,41523", q_value, 1),
    claim("321,132", lambda n: n, 1),
    claim("321,213", lambda n: n, 1),
    claim("321,312", fibonacci, 1),
    claim("321,3142", lambda n: 2 ** (n - 1) if n >= 1 else None, 1),
)


def evaluate_formula(row: SequenceRow, n: int) -> int | None:
    """The row's closed form at n, exactly; None where the expression is
    undefined.  Range gating is the caller's business."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return row.formula(n)


def eval_row(row: SequenceRow, n: int) -> int:
    """The row's closed form at n; rejects n below the stated range."""
    if n < row.valid_from:
        raise RangeError(f"row {row.row_id} is stated for n >= {row.valid_from}, got n={n}")
    value = evaluate_formula(row, n)
    if value is None:
        raise RangeError(f"row {row.row_id} formula undefined at n={n}")
    return value


def _mul_trunc(a: list[int], b: tuple[int, ...], degree: int) -> list[int]:
    out = [0] * min(len(a) + len(b) - 1, degree + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > degree:
            continue
        for j, bj in enumerate(b):
            if i + j > degree:
                break
            out[i + j] += ai * bj
    return out


def fishburn_series(degree: int) -> tuple[int, ...]:
    """Coefficients c_0..c_degree of 1 + sum_{n>=1} prod_{i=1..n} (1-(1-t)^i).

    The n-th product starts at degree n, so summands beyond n = degree cannot
    contribute below the truncation and the outer sum is finite.

    >>> fishburn_series(5)
    (1, 1, 2, 5, 15, 53)
    """
    check_cap(degree, SERIES_CAP, "degree")
    coeffs = [1] + [0] * degree
    product = [1]  # prod_{j<=i} (1 - (1-t)^j)
    for i in range(1, degree + 1):
        # 1 - (1-t)^i = sum_{k=1..i} (-1)^(k+1) C(i, k) t^k
        factor = (0, *((-1) ** (k + 1) * comb(i, k) for k in range(1, i + 1)))
        product = _mul_trunc(product, factor, degree)
        for d, c in enumerate(product):
            coeffs[d] += c
    return tuple(coeffs)


class PellIdentity(Enum):
    """Exact integer identities about Pell numbers and their Q averages."""

    SUM_P = "sum P(i), i=1..n"
    SUM_Q = "sum Q(i), i=0..n"
    SUM_KP = "sum k*P(n-k), k=1..n"
    Q_PLUS_KP = "Q(n-2) + sum (k-2)P(n-k) + Q(n-k), k=3..n"
    NESTED_Q = "Q(n-1) + Q(n-2) + sum Q(n-k) + sum C(l-3,l-k) Q(n-l)"


IDENTITY_MIN_N = {
    PellIdentity.SUM_P: 1,
    PellIdentity.SUM_Q: 1,
    PellIdentity.SUM_KP: 1,
    PellIdentity.Q_PLUS_KP: 3,
    PellIdentity.NESTED_Q: 3,
}


def identity_sides(identity: PellIdentity, n: int) -> tuple[int, int]:
    """Both sides of the identity at n, the left computed by literal summation."""
    if n < IDENTITY_MIN_N[identity]:
        raise RangeError(f"{identity.name} is stated for n >= {IDENTITY_MIN_N[identity]}, got n={n}")
    p = [pell(i) for i in range(n + 2)]
    q = [q_value(i) for i in range(n + 1)]

    if identity is PellIdentity.SUM_P:
        return sum(p[i] for i in range(1, n + 1)), (p[n + 1] + p[n] - 1) // 2
    if identity is PellIdentity.SUM_Q:
        return sum(q[i] for i in range(n + 1)), (p[n + 1] + n + 1) // 2
    if identity is PellIdentity.SUM_KP:
        return sum(k * p[n - k] for k in range(1, n + 1)), (p[n + 1] - n - 1) // 2
    if identity is PellIdentity.Q_PLUS_KP:
        left = q[n - 2] + sum((k - 2) * p[n - k] + q[n - k] for k in range(3, n + 1))
        return left, p[n - 1]
    if identity is PellIdentity.NESTED_Q:
        left = q[n - 1] + q[n - 2]
        for k in range(3, n + 1):
            left += q[n - k]
            for l in range(k + 1, n + 1):
                left += comb(l - 3, l - k) * q[n - l]
        return left, q[n]
    raise TypeError(f"unknown identity {identity!r}")
