"""Pattern-avoiding Fishburn permutations: counting, listing, verification.

A Fishburn permutation avoids the bivincular pattern forbidding positions
i < j with (p_i, p_{i+1}, p_j) order-isomorphic to 231 and p_i = p_j + 1.
The package root exports the kernel API: build an `AvoidanceQuery` over a
`PatternSet` and pass it to `count` or `members`.  The closed forms and the
claim rows live in `fishburn.sequences`, the verification suites in
`fishburn.verify` (run them with `run_suite`), and the pattern bodies and
text encoding in `fishburn.patterns` and `fishburn.perm`.
"""

from fishburn.enumeration import AvoidanceQuery, CapacityError, count, members
from fishburn.patterns import PatternSet
from fishburn.perm import ParseError

__version__ = "0.1.0"

__all__ = [
    "AvoidanceQuery",
    "CapacityError",
    "ParseError",
    "PatternSet",
    "count",
    "members",
    "__version__",
]
