"""The reproduction harness: class counts against closed forms, split counts
against the stated position-of-1 formulas, structural lemma suites, the
complement check between two triple-avoidance classes, the left-to-right
maxima bijection, prefix-constrained claims, and the Pell identity suite.

Each suite compares search-kernel output to an independently evaluated
closed form and reports per-n records.  Values of n below a statement's
validity range are reported informationally, never asserted.  Reports are
deterministic: for fixed input the serialized forms are byte-identical.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from math import comb

from fishburn.enumeration import DEFAULT_COUNT_CAP, SERIES_CAP, AvoidanceQuery, check_cap, count, members, search
from fishburn.patterns import PatternSet
from fishburn.perm import _Record, complement, left_to_right_maxima, word_values
from fishburn.sequences import (
    IDENTITY_MIN_N,
    TABLE_ROWS,
    PellIdentity,
    SequenceRow,
    claim,
    evaluate_formula,
    fibonacci,
    identity_sides,
    pell,
    q_value,
)


class CheckRecord(_Record):
    """One (statement, n) comparison: counted value vs closed form."""

    __slots__ = ("row_id", "n", "observed", "expected", "asserted", "matched")
    row_id: str
    n: int
    observed: int
    expected: int | None
    asserted: bool
    matched: bool


class VerificationReport(_Record):
    __slots__ = ("suite", "records", "passed")
    suite: str
    records: tuple[CheckRecord, ...]
    passed: bool


Emit = Callable[[VerificationReport], object]


def _record(
    row_id: str,
    n: int,
    observed: int,
    expected: int | None,
    asserted: bool,
    extra_ok: bool = True,
) -> CheckRecord:
    """extra_ok folds in conditions beyond the count comparison (set equality,
    bijectivity) that the numeric columns alone cannot express."""
    matched = expected is not None and observed == expected and extra_ok
    return CheckRecord(row_id, n, observed, expected, asserted, matched)


def _finish(suite: str, records: list[CheckRecord], emit: Emit | None) -> VerificationReport:
    report = VerificationReport(suite, tuple(records), all(r.matched for r in records if r.asserted))
    if emit is not None:
        emit(report)
    return report


DECOMPOSITION_CHECKS: tuple[SequenceRow, ...] = (
    claim("321,1243", lambda n: n * n - 4 * n + 5, 2, one_position=2),
    claim("321,2134", lambda n: 2 * n - 4, 3, one_position=2),
    claim("321,1324", lambda n: (3 * n * n - 15 * n + 22) // 2, 3, one_position=2),
    claim("321,1423,2143", lambda n: n - 1, 2, one_position=1),
    claim("321,1423,2143", lambda n: comb(n - 1, 2) + 1, 2, one_position=2),
    claim("321,2143,3124", lambda n: n - 1, 2, one_position=2),
    claim("321,2143,4123", lambda n: n - 1, 2, one_position=2),
    claim("321,1423,3124", lambda n: fibonacci(n - 2) + 2 if n >= 2 else None, 4, one_position=2),
    claim("321,1423,4123", lambda n: fibonacci(n - 1) if n >= 1 else None, 4, one_position=1),
    claim("321,1423,4123", lambda n: fibonacci(n) - 1, 4, one_position=2),
    claim("321,3124,4123", lambda n: fibonacci(n - 1) if n >= 1 else None, 4, one_position=2),
    claim("321,31452", lambda n: q_value(n - 1) if n >= 1 else None, 1, one_position=1),
    claim("321,31452", lambda n: pell(n - 1) if n >= 1 else None, 1, one_position=2),
    claim("321,41523", lambda n: pell(n - 1) if n >= 1 else None, 1, one_position=2),
)


@lru_cache(maxsize=32)
def _class_sizes(patterns: PatternSet, max_n: int) -> tuple[list[int], list[int], list[int]]:
    """One walk of the class to max_n: (sizes, first, second) per size, the
    class count and its members with entry 1 at position 1 and at position
    2.  Every suite's rows share it.  The keys come only from the claim
    tables and REDUCTION_SIGMAS, 28 per max_n, so the memo stays small.
    Callers only read the lists."""
    return search(AvoidanceQuery(max_n, patterns), cap=max_n)


def _verify_rows(
    kind: str, rows: Sequence[SequenceRow], first_n: int, max_n: int, emit: Emit | None
) -> list[VerificationReport]:
    """One report per row: its class sizes (or the split its one_position
    names) against its closed form for first_n <= n <= max_n, asserted from
    valid_from on.  Rows on one pattern set share one walk."""
    check_cap(max_n, DEFAULT_COUNT_CAP, "max_n")
    reports = []
    for row in rows:
        # Index 0 is the class count, 1 and 2 the position-of-1 splits.
        sizes = _class_sizes(row.patterns, max_n)[row.one_position or 0]
        records = [
            _record(row.row_id, n, observed, evaluate_formula(row, n), n >= row.valid_from)
            for n, observed in enumerate(sizes[first_n:], first_n)
        ]
        reports.append(_finish(f"{kind}:{row.row_id}", records, emit))
    return reports


def verify_table(max_n: int, emit: Emit | None = None) -> list[VerificationReport]:
    """One report per enumerated class, counts vs closed form for n <= max_n."""
    return _verify_rows("table", TABLE_ROWS, 0, max_n, emit)


def verify_decompositions(max_n: int, emit: Emit | None = None) -> list[VerificationReport]:
    """Position-of-1 split counts against their stated formulas, 1 <= n <= max_n."""
    return _verify_rows("decomposition", DECOMPOSITION_CHECKS, 1, max_n, emit)


REDUCTION_SIGMAS = ("132", "213", "312", "3142")


def verify_lemmas(max_n: int, emit: Emit | None = None) -> VerificationReport:
    """Structural facts: entry 1 sits in the first two positions throughout
    the 321-avoiding Fishburn classes, and dropping the Fishburn condition
    in favour of classical 231-avoidance leaves each checked class unchanged.

    The reductions are checked by counting.  For finite sets A and B,
    A∩B ⊆ A, so |A∩B| = |A| forces A∩B = A, and likewise for B; hence
    A = B iff |A| = |A∩B| = |B|.  A is the 321,σ-avoiding Fishburn class,
    B the 231,321,σ-avoiding class, and A∩B the 231,321,σ-avoiding Fishburn
    class, each one memoised walk."""
    check_cap(max_n, DEFAULT_COUNT_CAP, "max_n")
    records = []
    total, first, second = _class_sizes(PatternSet.parse("321", fishburn=True), max_n)
    for n in range(1, max_n + 1):
        records.append(_record("one-in-first-two", n, first[n] + second[n], total[n], True))
    for sigma in REDUCTION_SIGMAS:
        lhs = _class_sizes(PatternSet.parse(f"321,{sigma}", fishburn=True), max_n)[0]
        rhs = _class_sizes(PatternSet.parse(f"231,321,{sigma}", fishburn=False), max_n)[0]
        both = _class_sizes(PatternSet.parse(f"231,321,{sigma}", fishburn=True), max_n)[0]
        for n in range(max_n + 1):
            ok = lhs[n] == both[n] == rhs[n]
            records.append(_record(f"reduction-{sigma}", n, lhs[n], rhs[n], True, extra_ok=ok))
    return _finish("lemmas", records, emit)


WILF_CLASS_A = "231,321,213"
WILF_CLASS_B = "213,123,231"


def verify_wilf_complement(max_n: int, emit: Emit | None = None) -> VerificationReport:
    """Complementation maps the 231,321,213-avoiders bijectively onto the
    213,123,231-avoiders, so the two classes are equinumerous for every n."""
    check_cap(max_n, DEFAULT_COUNT_CAP, "max_n")
    records = []
    class_a = PatternSet.parse(WILF_CLASS_A)
    class_b = PatternSet.parse(WILF_CLASS_B)
    for n in range(max_n + 1):
        lhs = members(AvoidanceQuery(n, class_a), cap=max_n)
        rhs = members(AvoidanceQuery(n, class_b), cap=max_n)
        bijective = sorted(complement(word_values(w)) for w in lhs) == list(map(word_values, rhs))
        records.append(_record("wilf-complement", n, len(lhs), len(rhs), True, extra_ok=bijective))
    return _finish("wilf-complement", records, emit)


def verify_lrmax_bijection(max_n: int, emit: Emit | None = None) -> VerificationReport:
    """On the 321,3142-avoiding Fishburn class, taking left-to-right maxima
    is injective and its image is exactly the subsets of {1..n} containing n
    (2^(n-1) of them)."""
    check_cap(max_n, DEFAULT_COUNT_CAP, "max_n")
    records = []
    patterns = PatternSet.parse("321,3142", fishburn=True)
    for n in range(1, max_n + 1):
        mem = members(AvoidanceQuery(n, patterns), cap=max_n)
        images = {left_to_right_maxima(word_values(w)) for w in mem}
        family = {
            frozenset({n} | {i + 1 for i in range(n - 1) if mask >> i & 1})
            for mask in range(1 << (n - 1))
        }
        ok = len(images) == len(mem) and images == family
        records.append(_record("lrmax-bijection", n, len(images), 1 << (n - 1), True, extra_ok=ok))
    return _finish("lrmax-bijection", records, emit)


def verify_prefix_claims(max_n: int, emit: Emit | None = None) -> VerificationReport:
    """Prefix-constrained counts in the 321,21354-avoiding Fishburn class:
    members opening with k,1 and then not 2 number C(n-2, k-1), and n,1
    opens exactly one member."""
    check_cap(max_n, DEFAULT_COUNT_CAP, "max_n")
    records = []
    patterns = PatternSet.parse("321,21354", fishburn=True)
    for n in range(2, max_n + 1):
        observed = count(AvoidanceQuery(n, patterns, prefix=(n, 1)), cap=max_n)
        records.append(_record("prefix:n,1", n, observed, 1, True))
    for n in range(4, max_n + 1):
        for k in range(3, n):
            observed = count(
                AvoidanceQuery(n, patterns, prefix=(k, 1, 2), prefix_negation=True),
                cap=max_n,
            )
            records.append(_record(f"prefix:{k},1,not-2", n, observed, comb(n - 2, k - 1), True))
    return _finish("prefix-claims", records, emit)


def verify_identities(max_n: int, emit: Emit | None = None) -> list[VerificationReport]:
    """Every Pell identity by literal summation, one report per identity.

    The nested sum makes the run time grow about twentyfold per doubling of
    max_n, so max_n is held to the series cap.
    """
    check_cap(max_n, SERIES_CAP, "max_n")
    reports = []
    for identity in PellIdentity:
        records = []
        for n in range(IDENTITY_MIN_N[identity], max_n + 1):
            left, right = identity_sides(identity, n)
            records.append(_record(f"identity:{identity.name}", n, left, right, True))
        reports.append(_finish(f"identity:{identity.name}", records, emit))
    return reports


# Each entry looks its suite function up when it runs, so a wrapper installed
# on this module (a tracer, a test double) sees the call.  The order here is
# the order of `all`.
_SUITE_RUNNERS: dict[str, Callable[[int, Emit | None], list[VerificationReport]]] = {
    "table": lambda max_n, emit: verify_table(max_n, emit),
    "decompositions": lambda max_n, emit: verify_decompositions(max_n, emit),
    "lemmas": lambda max_n, emit: [verify_lemmas(max_n, emit)],
    "wilf": lambda max_n, emit: [verify_wilf_complement(max_n, emit)],
    "lrmax": lambda max_n, emit: [verify_lrmax_bijection(max_n, emit)],
    "prefix": lambda max_n, emit: [verify_prefix_claims(max_n, emit)],
    "identities": lambda max_n, emit: verify_identities(max_n, emit),
}
SUITES = (*_SUITE_RUNNERS, "all")


def run_suite(suite: str, max_n: int, emit: Emit | None = None) -> list[VerificationReport]:
    """Run one named suite (or all of them) and return its reports in order,
    handing each to emit, when given, as soon as it is final: in `table` and
    `decompositions` after each row's walk.  `all` starts with `table`, whose
    length cap is the lowest, so a refused run emits nothing."""
    if suite == "all":
        return [report for run in _SUITE_RUNNERS.values() for report in run(max_n, emit)]
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return _SUITE_RUNNERS[suite](max_n, emit)


def _flag(record: CheckRecord) -> str:
    if not record.asserted:
        return "out-of-stated-range"
    return "ok" if record.matched else "MISMATCH"


def format_delimited(reports: Sequence[VerificationReport]) -> str:
    """Tab-separated records, one per (row, n), with a summary line per suite."""
    lines = []
    for report in reports:
        for r in report.records:
            expected = "-" if r.expected is None else str(r.expected)
            lines.append(f"{r.row_id}\t{r.n}\t{r.observed}\t{expected}\t{_flag(r)}")
        lines.append(f"{report.suite}\t{'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def format_structured(reports: Sequence[VerificationReport]) -> str:
    """A single JSON document with the same fields as the delimited format."""
    import json  # only this format needs it; loading it at import slows every start

    doc = {
        "passed": all(report.passed for report in reports),
        "suites": [
            {
                "suite": report.suite,
                "passed": report.passed,
                "records": [
                    {
                        "id": r.row_id,
                        "n": r.n,
                        "observed": r.observed,
                        "expected": r.expected,
                        "asserted": r.asserted,
                        "matched": r.matched,
                    }
                    for r in report.records
                ],
            }
            for report in reports
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_plain(reports: Sequence[VerificationReport]) -> str:
    """Human-readable summary, one line per suite plus any mismatch detail."""
    lines = []
    for report in reports:
        asserted = sum(1 for r in report.records if r.asserted)
        lines.append(f"{'PASS' if report.passed else 'FAIL'}  {report.suite}  ({asserted} checks)")
        for r in report.records:
            if r.asserted and not r.matched:
                lines.append(
                    f"      n={r.n} {r.row_id}: counted {r.observed}, formula says {r.expected}"
                )
    total = sum(len(r.records) for r in reports)
    failed = sum(1 for r in reports if not r.passed)
    verdict = "all suites passed" if failed == 0 else f"{failed} suite(s) FAILED"
    lines.append(f"{len(reports)} suites, {total} records: {verdict}")
    return "\n".join(lines) + "\n"
