"""A third count of the Fishburn numbers, by ascent sequences.

An ascent sequence is x_1 x_2 ... x_n with x_1 = 0 and each x_i at most
one more than the number of ascents of x_1 ... x_{i-1}; there are as many
of length n as Fishburn permutations of length n (Bousquet-Melou, Claesson,
Dukes and Kitaev).  This counts them by a dynamic program over the state
(ascents so far, last entry), sharing no code with the generating-tree
kernel or the power series it is checked against.
"""

from __future__ import annotations


def counts(n_max: int) -> list[int]:
    """The number of ascent sequences of each length 0..n_max."""
    out = [1]
    # table[a][v]: sequences of the current length with a ascents ending in
    # v.  The last entry never exceeds the ascent count, so v <= a.
    table = [[1]]
    for length in range(1, n_max + 1):
        out.append(sum(map(sum, table)))
        if length == n_max:
            break
        grown = [[0] * (a + 1) for a in range(len(table) + 1)]
        for a, row in enumerate(table):
            # The next entry v ranges over 0..a+1.  v <= last keeps a
            # ascents; v > last adds one.  Running sums over last collect
            # every state that reaches (a, v) or (a+1, v).
            tail = 0
            for v in range(a, -1, -1):
                tail += row[v]
                grown[a][v] += tail
            head = 0
            for v in range(1, a + 2):
                head += row[v - 1]
                grown[a + 1][v] += head
        table = grown
    return out
