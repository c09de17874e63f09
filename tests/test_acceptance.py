"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one pass/fail line straight to the terminal (bypassing
capture) so a full run reads as a checklist.
"""

from __future__ import annotations

import subprocess
import sys
import time

import oracle
from fishburn.enumeration import AvoidanceQuery, count
from fishburn.patterns import PatternSet
from fishburn.sequences import (
    IDENTITY_MIN_N,
    TABLE_ROWS,
    PellIdentity,
    eval_row,
    fishburn_series,
    identity_sides,
)
from fishburn.verify import (
    verify_decompositions,
    verify_lemmas,
    verify_lrmax_bijection,
    verify_prefix_claims,
)


def _announce(capsys, label, ok, detail=""):
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}{detail}")


def test_criterion_1_table_reproduction_to_n10(capsys):
    started = time.perf_counter()
    failures = []
    for row in TABLE_ROWS:
        for n in range(row.valid_from, 11):
            got = count(AvoidanceQuery(n, row.patterns), cap=11)
            want = eval_row(row, n)
            if got != want:
                failures.append((row.row_id, n, got, want))
    quad = [r for r in TABLE_ROWS if r.row_id == "321,1243"][0]
    spot = [count(AvoidanceQuery(n, quad.patterns), cap=11) for n in range(2, 11)]
    if spot != [2, 4, 8, 14, 22, 32, 44, 58, 74]:
        failures.append(("321,1243 spot check", spot))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60
    _announce(capsys, "1 Table reproduction, 19 rows, n<=10", ok, f" ({elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < 60


def test_criterion_2_oracle_equivalence_to_n8(capsys):
    started = time.perf_counter()
    failures = []
    for row in TABLE_ROWS:
        bodies = [p.body.values for p in row.patterns.classical]
        for n in range(9):
            kernel = count(AvoidanceQuery(n, row.patterns))
            brute = oracle.count(n, bodies, fishburn=True)
            if kernel != brute:
                failures.append((row.row_id, n, kernel, brute))
    elapsed = time.perf_counter() - started
    _announce(capsys, "2 pruned kernel == filter-all oracle, n<=8", not failures, f" ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_3_fishburn_numbers(capsys):
    started = time.perf_counter()
    coefficients = fishburn_series(8)
    counts = tuple(count(AvoidanceQuery(n, PatternSet(fishburn=True))) for n in range(9))
    elapsed = time.perf_counter() - started
    ok = (
        coefficients == counts == (1, 1, 2, 5, 15, 53, 217, 1014, 5335)
        and elapsed < 5
    )
    _announce(capsys, "3 series coefficients == class counts, n<=8", ok, f" ({elapsed:.2f}s)")
    assert coefficients == (1, 1, 2, 5, 15, 53, 217, 1014, 5335)
    assert counts == coefficients
    assert elapsed < 5


def test_criterion_4_decomposition_propositions_to_n10(capsys):
    reports = verify_decompositions(10)
    bad = [
        (r.suite, rec.n, rec.observed, rec.expected)
        for r in reports
        for rec in r.records
        if rec.asserted and not rec.matched
    ]
    ok = not bad and len(reports) == 14
    _announce(capsys, "4 position-of-1 formulas, stated ranges, n<=10", ok)
    assert ok, bad


def test_criterion_5_structural_lemmas_to_n9(capsys):
    report = verify_lemmas(9)
    bad = [rec for rec in report.records if not rec.matched]
    _announce(capsys, "5 position lemma + reduction set equalities, n<=9", report.passed)
    assert report.passed, bad


def test_criterion_6_lrmax_bijection_to_n9(capsys):
    report = verify_lrmax_bijection(9)
    _announce(capsys, "6 left-to-right maxima bijection, n<=9", report.passed)
    assert report.passed, report.records


def test_criterion_7_prefix_claims_to_n9(capsys):
    report = verify_prefix_claims(9)
    _announce(capsys, "7 prefix-constrained binomial counts, n<=9", report.passed)
    assert report.passed, report.records


def test_criterion_8_pell_identities_to_n40(capsys):
    started = time.perf_counter()
    bad = []
    for identity in PellIdentity:
        for n in range(IDENTITY_MIN_N[identity], 41):
            left, right = identity_sides(identity, n)
            if left != right:
                bad.append((identity.name, n))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 1
    _announce(capsys, "8 five Pell identities by literal summation, n<=40", ok, f" ({elapsed:.3f}s)")
    assert not bad, bad
    assert elapsed < 1


def test_criterion_9_verify_all_is_deterministic(capsys):
    command = [sys.executable, "-m", "fishburn", "verify", "all", "--max-n", "9"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _announce(capsys, "9 verify all --max-n 9 twice: byte-identical, exit 0", ok)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
