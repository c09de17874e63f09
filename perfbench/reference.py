"""A fixed pure-Python task that measures how fast the machine runs right now.

    python3 reference.py

Counts the permutations of length 8 with no three consecutive entries in
decreasing order (13358; OEIS A049774) by depth-first search, several times,
and prints the count and the seconds the counting took.  Interpreter start
is left out: it depends on the file system more than on the processor.  It
shares no code with fishburn, so no change to the package can move its time;
the benchmark runs it between operations and rescales their times by it.
"""

import time

N = 8
ROUNDS = 20


def count(n: int) -> int:
    used = [False] * (n + 1)
    word = [0] * n

    def extend(m: int) -> int:
        if m == n:
            return 1
        total = 0
        for v in range(1, n + 1):
            if used[v] or (m >= 2 and word[m - 2] > word[m - 1] > v):
                continue
            used[v] = True
            word[m] = v
            total += extend(m + 1)
            used[v] = False
        return total

    return extend(0)


if __name__ == "__main__":
    start = time.perf_counter()
    counts = {count(N) for _ in range(ROUNDS)}
    print(*counts, time.perf_counter() - start)
