"""Pattern-avoiding Fishburn permutations: counting, listing, verification.

A Fishburn permutation avoids the bivincular pattern forbidding positions
i < j with (p_i, p_{i+1}, p_j) order-isomorphic to 231 and p_i = p_j + 1.
This package enumerates such permutations (optionally under extra classical
pattern constraints) with a generating-tree kernel, evaluates the known
closed forms for their class sizes in exact integer arithmetic, and ships a
verification harness comparing the two.
"""

from fishburn.enumeration import (
    DEFAULT_COUNT_CAP,
    DEFAULT_LIST_CAP,
    AvoidanceQuery,
    CapacityError,
    count,
    members,
)
from fishburn.patterns import (
    ClassicalPattern,
    PatternSet,
    parse_pattern,
)
from fishburn.perm import ParseError, Permutation
from fishburn.sequences import (
    TABLE_ROWS,
    PellIdentity,
    RangeError,
    SequenceRow,
    claim,
    eval_row,
    fibonacci,
    fishburn_series,
    pell,
    q_value,
)
from fishburn.verify import (
    CheckRecord,
    VerificationReport,
    run_suite,
    verify_decompositions,
    verify_identities,
    verify_lemmas,
    verify_lrmax_bijection,
    verify_prefix_claims,
    verify_table,
    verify_wilf_complement,
)

__version__ = "0.1.0"

__all__ = [
    "AvoidanceQuery",
    "CapacityError",
    "CheckRecord",
    "ClassicalPattern",
    "DEFAULT_COUNT_CAP",
    "DEFAULT_LIST_CAP",
    "ParseError",
    "PatternSet",
    "PellIdentity",
    "Permutation",
    "RangeError",
    "SequenceRow",
    "TABLE_ROWS",
    "VerificationReport",
    "claim",
    "count",
    "eval_row",
    "fibonacci",
    "fishburn_series",
    "members",
    "parse_pattern",
    "pell",
    "q_value",
    "run_suite",
    "verify_decompositions",
    "verify_identities",
    "verify_lemmas",
    "verify_lrmax_bijection",
    "verify_prefix_claims",
    "verify_table",
    "verify_wilf_complement",
    "__version__",
]
