"""Brute-force reference implementations for cross-checking the search kernel.

Everything here works by filtering all n! permutations against the literal
definitions (no pruning, no incremental state) and imports nothing from the
package, so it shares no code with what it checks.  Members are value
tuples, as the package's `members` returns them.  Keep it dumb: this module
is the ground truth the fast code is judged against.
"""

from __future__ import annotations

from itertools import combinations, permutations


def contains_pattern(word, pattern):
    """Literal subsequence scan: some index set order-isomorphic to pattern."""
    k = len(pattern)
    n = len(word)
    if k > n:
        return False
    for idx in combinations(range(n), k):
        if all(
            (word[idx[a]] < word[idx[b]]) == (pattern[a] < pattern[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def contains_adjacent_231_plus1(word):
    """Literal scan for i < j with (w_i, w_i+1, w_j) a 231 copy and w_i = w_j + 1."""
    n = len(word)
    for i in range(n - 1):
        for j in range(i + 2, n):
            if word[j] < word[i] < word[i + 1] and word[i] == word[j] + 1:
                return True
    return False


def is_member(word, classical=(), fishburn=False):
    if fishburn and contains_adjacent_231_plus1(word):
        return False
    return not any(contains_pattern(word, pat) for pat in classical)


def _passes_filters(word, one_position, prefix, prefix_negation):
    if one_position is not None:
        if len(word) < one_position or word[one_position - 1] != 1:
            return False
    if prefix:
        if prefix_negation:
            head = tuple(prefix[:-1])
            if word[: len(head)] != head:
                return False
            if len(word) >= len(prefix) and word[len(prefix) - 1] == prefix[-1]:
                return False
        elif word[: len(prefix)] != tuple(prefix):
            return False
    return True


def members(n, classical=(), fishburn=False, one_position=None, prefix=(), prefix_negation=False):
    """All members of the avoidance class, in lexicographic order."""
    out = []
    for word in permutations(range(1, n + 1)):
        if not _passes_filters(word, one_position, prefix, prefix_negation):
            continue
        if is_member(word, classical, fishburn):
            out.append(word)
    return out


def count(n, classical=(), fishburn=False, one_position=None, prefix=(), prefix_negation=False):
    return len(members(n, classical, fishburn, one_position, prefix, prefix_negation))
