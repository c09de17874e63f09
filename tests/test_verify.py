from __future__ import annotations

import hashlib
import json

import pytest

import oracle
from fishburn import verify
from fishburn.patterns import PatternSet
from fishburn.verify import (
    DECOMPOSITION_CHECKS,
    REDUCTION_SIGMAS,
    CheckRecord,
    VerificationReport,
    format_delimited,
    format_plain,
    format_structured,
    run_suite,
    verify_decompositions,
    verify_identities,
    verify_lemmas,
    verify_lrmax_bijection,
    verify_prefix_claims,
    verify_table,
    verify_wilf_complement,
)


def test_verify_table_small():
    reports = verify_table(6)
    assert len(reports) == 19
    assert all(r.passed for r in reports)
    first = reports[0]
    assert first.suite == "table:321,1243"
    below = [r for r in first.records if not r.asserted]
    assert [r.n for r in below] == [0, 1]
    assert all(r.matched for r in first.records if r.asserted)


def test_verify_table_reports_known_values():
    reports = {r.suite: r for r in verify_table(8)}
    rec = {r.n: r for r in reports["table:321,2134"].records}
    assert [rec[n].observed for n in range(2, 9)] == [2, 4, 8, 14, 22, 32, 44]
    assert all(rec[n].observed == rec[n].expected for n in range(2, 9))
    pell_rec = {r.n: r for r in reports["table:321,31524"].records}
    assert [pell_rec[n].expected for n in range(1, 9)] == [1, 2, 4, 9, 21, 50, 120, 289]


def test_undefined_formula_value_is_informational():
    reports = {r.suite: r for r in verify_table(3)}
    rec = {r.n: r for r in reports["table:321,3142"].records}
    assert rec[0].expected is None
    assert not rec[0].asserted


def test_verify_decompositions_small():
    assert len(DECOMPOSITION_CHECKS) == 14
    reports = verify_decompositions(6)
    assert len(reports) == 14
    assert all(r.passed for r in reports)
    by_suite = {r.suite: r for r in reports}
    rec = {r.n: r for r in by_suite["decomposition:321,1243:pos2"].records}
    assert rec[5].observed == rec[5].expected == 10
    fib_rec = {r.n: r for r in by_suite["decomposition:321,1423,3124:pos2"].records}
    assert fib_rec[1].expected is None  # F(n-2)+2 undefined at n=1
    assert not fib_rec[1].asserted


def test_verify_decomposition_pell_example():
    by_suite = {r.suite: r for r in verify_decompositions(6)}
    rec = {r.n: r for r in by_suite["decomposition:321,31452:pos2"].records}
    assert rec[6].observed == rec[6].expected == 29


def test_verify_lemmas_small():
    report = verify_lemmas(7)
    assert report.passed
    rows = {r.row_id for r in report.records}
    assert rows == {
        "one-in-first-two",
        "reduction-132",
        "reduction-213",
        "reduction-312",
        "reduction-3142",
    }
    position = [r for r in report.records if r.row_id == "one-in-first-two" and r.n == 7]
    assert position[0].observed == position[0].expected


def test_reduction_fails_when_only_the_intersection_count_differs(monkeypatch):
    # |A| = |B| alone does not make A = B: a reduction record also needs
    # |A∩B| equal to both, so one wrong intersection count fails it.
    walk = verify._class_sizes
    broken = PatternSet.parse("231,321,312", fishburn=True)

    def skewed(patterns, max_n):
        lists = walk(patterns, max_n)
        if patterns != broken:
            return lists
        sizes = lists[0][:]
        sizes[6] += 1
        return (sizes, *lists[1:])

    monkeypatch.setattr(verify, "_class_sizes", skewed)
    report = verify_lemmas(7)
    assert not report.passed
    failed = [(r.row_id, r.n) for r in report.records if not r.matched]
    assert failed == [("reduction-312", 6)]


@pytest.mark.parametrize("sigma", REDUCTION_SIGMAS)
def test_reduction_walks_match_the_brute_force_filter(sigma):
    # The 231,321,sigma class and its Fishburn part, the B and A∩B of the
    # reduction, against the literal definitions.
    bodies = [(2, 3, 1), (3, 2, 1), tuple(map(int, sigma))]
    for fishburn in (False, True):
        patterns = PatternSet.parse(f"231,321,{sigma}", fishburn=fishburn)
        sizes = verify._class_sizes(patterns, 7)[0]
        assert sizes == [oracle.count(n, bodies, fishburn=fishburn) for n in range(8)], fishburn


def test_verify_wilf_complement_small():
    report = verify_wilf_complement(7)
    assert report.passed
    counts = [r.observed for r in report.records]
    assert counts == [1, 1, 2, 3, 4, 5, 6, 7]


def test_verify_lrmax_small():
    report = verify_lrmax_bijection(6)
    assert report.passed
    rec = {r.n: r for r in report.records}
    assert rec[4].observed == rec[4].expected == 8


def test_verify_prefix_claims_small():
    report = verify_prefix_claims(7)
    assert report.passed
    rec = {(r.row_id, r.n): r for r in report.records}
    assert rec[("prefix:3,1,not-2", 7)].expected == 10
    assert rec[("prefix:4,1,not-2", 6)].expected == 4
    assert rec[("prefix:n,1", 5)].observed == 1


def test_verify_identities_small():
    reports = verify_identities(12)
    assert len(reports) == 5
    assert all(r.passed for r in reports)
    sum_p = next(r for r in reports if r.suite == "identity:SUM_P")
    assert [r.n for r in sum_p.records] == list(range(1, 13))


def test_run_suite_dispatch():
    assert len(run_suite("all", 4)) == 42
    assert len(run_suite("table", 4)) == 19
    assert len(run_suite("lemmas", 4)) == 1
    with pytest.raises(ValueError):
        run_suite("bogus", 4)


def _sample_reports():
    records = (
        CheckRecord("row-a", 2, 4, 4, True, True),
        CheckRecord("row-a", 3, 9, 8, True, False),
        CheckRecord("row-a", 1, 1, None, False, False),
    )
    return [VerificationReport("suite-a", records, False)]


def test_delimited_format():
    text = format_delimited(_sample_reports())
    lines = text.splitlines()
    assert lines[0] == "row-a\t2\t4\t4\tok"
    assert lines[1] == "row-a\t3\t9\t8\tMISMATCH"
    assert lines[2] == "row-a\t1\t1\t-\tout-of-stated-range"
    assert lines[3] == "suite-a\tFAIL"


def test_plain_format_details_mismatches():
    text = format_plain(_sample_reports())
    assert "FAIL  suite-a" in text
    assert "counted 9, formula says 8" in text


def test_structured_format_is_json_without_timing():
    text = format_structured(_sample_reports())
    doc = json.loads(text)
    assert doc["passed"] is False
    assert doc["suites"][0]["records"][0]["observed"] == 4
    assert "elapsed" not in text


def test_reports_serialize_deterministically():
    reports = run_suite("lrmax", 5)
    again = run_suite("lrmax", 5)
    assert format_delimited(reports) == format_delimited(again)
    assert format_structured(reports) == format_structured(again)
    assert format_plain(reports) == format_plain(again)


def test_all_suites_output_bytes_are_pinned():
    # Default stdout is a byte-for-byte contract, so the report bytes of every
    # format are pinned by digest, not just compared between two runs.
    reports = run_suite("all", 6)
    digests = {
        format_delimited: "a16df0cacfba0cbd6560e448ec2c4d620a7931f9c2b586a690ebeda009728ae6",
        format_structured: "c689d24a8f8d72c9f5145de480f7d4cb705752aa3bba8753287a54e0fc054b78",
        format_plain: "e7f414ead0ebcd11df0149e14b2348e0bcafc025579e315893892db4dc3828f1",
    }
    for formatter, digest in digests.items():
        assert hashlib.sha256(formatter(reports).encode()).hexdigest() == digest, formatter.__name__
    # The smallest sizes, where a per-size tally from one walk goes wrong
    # first (the empty member counts 1, entry 1 has no second position).
    boundary = {
        0: "c77a387e864315f4a58609c761f733e52234c463366c9445813bcce99044b50a",
        1: "b48c57e299f131f94a4fe740e4cdf9deef943874940bd2157312e3ab69df7c08",
        2: "75d48ef3213e774d137fb22fbcfbf705531ffd8d9cfdebd22cedfdb32f4f5199",
    }
    for max_n, digest in boundary.items():
        text = format_delimited(run_suite("all", max_n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, max_n
    # The size the benchmark runs, the stdout digests of
    # `python -m fishburn verify all --max-n 9 --format ...`.
    reports = run_suite("all", 9)
    digests = {
        format_delimited: "5eed7b2d2841fc9dea899c6a52b4f455717d05c9954b4b77931f5ca91425854e",
        format_plain: "e37a019c36284dd8652ed733d9f714343926977933f8bf21f299f21107d345c6",
        format_structured: "8833ce5bdc71913f09f6442910a0cd5166869b8c4dc4ee0bb0c798f79e53212c",
    }
    for formatter, digest in digests.items():
        assert hashlib.sha256(formatter(reports).encode()).hexdigest() == digest, formatter.__name__
    # The reductions past the size `all` runs at, where they read counts.
    text = format_delimited(run_suite("lemmas", 12))
    digest = "76b4606f37978c40037458d391b030baff7c521a0e3fdc1f7d027fb84f2d6848"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_suites_sharing_walks_do_not_depend_on_their_order():
    # table and decompositions read the same memoised walks; whichever runs
    # first, and whatever max_n ran before, each suite's bytes are the same.
    def run(*suites):
        verify._class_sizes.cache_clear()
        return {(suite, max_n): format_delimited(run_suite(suite, max_n)) for suite, max_n in suites}

    forward = run(("table", 9), ("decompositions", 9), ("table", 6), ("decompositions", 6))
    backward = run(("decompositions", 6), ("table", 6), ("decompositions", 9), ("table", 9))
    assert forward == backward
    assert run(("table", 9)) == {("table", 9): forward[("table", 9)]}


def test_verify_walks_the_tree_once_per_row(monkeypatch):
    # One walk to max_n yields every smaller size and both position-of-1
    # splits, so the walks do not grow with max_n, and rows on one pattern
    # set share one walk: the 14 decomposition rows use 11 sets, all of them
    # table sets, and one-in-first-two walks the 321-Fishburn class once.
    # Each reduction reads three classes, its Fishburn side a table set.
    calls = 0
    walk = verify.search

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(verify, "search", counted)
    for max_n in (2, 9):
        for suite, walks in (("table", 19), ("decompositions", 11), ("lemmas", 13), ("all", 28)):
            verify._class_sizes.cache_clear()
            calls = 0
            assert all(report.passed for report in run_suite(suite, max_n))
            assert calls == walks, (suite, max_n)
        # Every key of one max_n fits the memo, so no walk is evicted.
        assert verify._class_sizes.cache_info().currsize <= 32


def test_pattern_set_from_a_list_is_a_memo_key():
    # PatternSet stores its patterns as a tuple, so one built from a list is
    # hashable and equal to the same set built from a tuple.
    patterns = PatternSet.parse("321,1243", fishburn=True).classical
    listed = PatternSet(list(patterns), True)
    assert listed.classical == patterns
    assert listed == PatternSet(patterns, True) and hash(listed) == hash(PatternSet(patterns, True))
    assert verify._class_sizes(listed, 5)[0] == [1, 1, 2, 4, 8, 14]
