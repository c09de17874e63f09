from __future__ import annotations

import hashlib
import subprocess
import sys
import textwrap
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ascent
import oracle
from fishburn import enumeration
from fishburn.enumeration import (
    AvoidanceQuery,
    CapacityError,
    count,
    members,
    search,
)
from fishburn.patterns import PatternSet, parse_pattern
from fishburn.perm import Permutation
from fishburn.sequences import TABLE_ROWS, fishburn_series, q_value
from fishburn.verify import run_suite


def _ps(text, fishburn=True):
    return PatternSet.parse(text, fishburn=fishburn)


def test_count_examples():
    assert count(AvoidanceQuery(4, _ps("321,1243"), one_position=2)) == 5
    assert count(AvoidanceQuery(0, _ps("321,1423,2143"))) == 1
    assert count(AvoidanceQuery(5, _ps("321,312"))) == 8
    # Three classes at n=11, past the oracle's reach, against closed forms.
    assert count(AvoidanceQuery(11, _ps("321,1243")), cap=11) == 11 * 11 - 3 * 11 + 4 == 92
    assert count(AvoidanceQuery(11, _ps("321,31452")), cap=11) == q_value(11) == 4060
    assert count(AvoidanceQuery(11, _ps("321,41523"), one_position=1), cap=11) == q_value(10) == 1682


def test_count_of_empty_length_is_one_for_any_patterns():
    assert count(AvoidanceQuery(0, _ps("321,14253"))) == 1
    assert count(AvoidanceQuery(0, PatternSet())) == 1
    assert count(AvoidanceQuery(0, _ps("1"))) == 1
    assert members(AvoidanceQuery(0, _ps("321,1243"))) == [()]


def test_unconstrained_query_counts_all_permutations():
    assert count(AvoidanceQuery(5, PatternSet())) == 120
    assert count(AvoidanceQuery(5, PatternSet(fishburn=True))) == 53


def test_members_examples():
    assert members(AvoidanceQuery(3, _ps("321,1243"), one_position=2)) == [(2, 1, 3), (3, 1, 2)]
    assert members(AvoidanceQuery(1, PatternSet(fishburn=True))) == [(1,)]
    assert members(AvoidanceQuery(4, _ps("321,1243"), one_position=2)) == [
        (2, 1, 3, 4), (2, 1, 4, 3), (3, 1, 2, 4), (3, 1, 4, 2), (4, 1, 2, 3)
    ]


def test_members_are_lexicographically_sorted_and_counted():
    for row in TABLE_ROWS[:6]:
        q = AvoidanceQuery(6, row.patterns)
        got = members(q)
        assert got == sorted(got)
        assert len(got) == count(q)


def _split_by_one_position(n, patterns):
    """Counts of members with 1 in position 1, in position 2, and elsewhere."""
    first = count(AvoidanceQuery(n, patterns, one_position=1))
    second = count(AvoidanceQuery(n, patterns, one_position=2))
    return first, second, count(AvoidanceQuery(n, patterns)) - first - second


def test_count_by_one_position_examples():
    assert _split_by_one_position(4, _ps("321,1243")) == (3, 5, 0)
    assert _split_by_one_position(1, _ps("321")) == (1, 0, 0)
    assert _split_by_one_position(5, _ps("321,2134")) == (8, 6, 0)


def test_one_beyond_first_two_positions_occurs_without_321():
    # Dropping the 321 constraint must populate the "elsewhere" bucket.
    first, second, other = _split_by_one_position(4, PatternSet(fishburn=True))
    assert other > 0
    got = members(AvoidanceQuery(4, PatternSet(fishburn=True)))
    assert other == sum(1 for word in got if word.index(1) >= 2)


def test_search_visit_count_matches_count():
    q = AvoidanceQuery(6, _ps("321,14253"))
    seen = []
    assert search(q, seen.append)[0][-1] == 48
    assert len(seen) == count(q) == 48
    assert search(AvoidanceQuery(5, _ps("321,31452")), None)[0] == [1, 1, 2, 4, 9, 21]


def test_one_walk_counts_the_fishburn_numbers_at_every_size():
    sizes = search(AvoidanceQuery(10, PatternSet(fishburn=True)), None)[0]
    assert sizes == list(fishburn_series(10))
    # A count by ascent sequences shares no code with the kernel.
    assert sizes == ascent.counts(10)


@pytest.mark.parametrize("row", TABLE_ROWS, ids=lambda r: r.row_id)
def test_one_walk_splits_every_size_by_the_position_of_one(row):
    # One unpruned walk tallies, at every size, the members with entry 1 at
    # position 1 and at position 2; the pruned one_position walks and the
    # brute-force filter must agree with both splits.
    _, first, second = search(AvoidanceQuery(9, row.patterns), None, cap=9)
    for n in range(10):
        assert first[n] == count(AvoidanceQuery(n, row.patterns, one_position=1)), n
        assert second[n] == count(AvoidanceQuery(n, row.patterns, one_position=2)), n
    bodies = [p.body.values for p in row.patterns.classical]
    for n in range(8):
        assert first[n] == oracle.count(n, bodies, fishburn=True, one_position=1), n
        assert second[n] == oracle.count(n, bodies, fishburn=True, one_position=2), n


def test_split_lists_of_the_empty_member_and_of_pruned_walks():
    for ps in (PatternSet(), PatternSet(fishburn=True), _ps("321,1243")):
        assert search(AvoidanceQuery(0, ps), None) == ([1], [0], [0])
        assert search(AvoidanceQuery(1, ps), None) == ([1, 1], [0, 1], [0, 0])
        # A one_position query's members all sit in its own split.
        assert search(AvoidanceQuery(1, ps, one_position=1), None) == ([0, 1], [0, 1], [0, 0])
        assert search(AvoidanceQuery(1, ps, one_position=2), None) == ([0, 0], [0, 0], [0, 0])
    at_first, at_second, none = [0, 1, 1, 2, 3, 4], [0, 0, 1, 2, 5, 10], [0] * 6
    ps = _ps("321,1243")
    assert search(AvoidanceQuery(5, ps, one_position=1), None) == (at_first, at_first, none)
    assert search(AvoidanceQuery(5, ps, one_position=2), None) == (at_second, none, at_second)


def test_search_visit_order_is_pinned():
    # Generating-tree order (depth first, sites left to right), recorded
    # from the recursive kernel the explicit-stack walk replaced.
    queries = [
        AvoidanceQuery(8, PatternSet(fishburn=True)),
        AvoidanceQuery(9, _ps("321,1243"), one_position=2),
        AvoidanceQuery(8, _ps("2413,132", fishburn=False)),
        AvoidanceQuery(9, _ps("321,21354"), prefix=(5, 1, 2), prefix_negation=True),
    ]
    digest = hashlib.sha256()
    for q in queries:
        seen = []
        search(q, seen.append, cap=q.n)
        digest.update(repr(seen).encode())
    assert digest.hexdigest() == "c7510dab1193f053cf07de7ece100f1e257cc23191dfda3b2457749ad878c51f"


def test_search_never_visits_non_members():
    q = AvoidanceQuery(6, _ps("321,21354"))
    for word in members(q):
        assert oracle.is_member(word, [(3, 2, 1), (2, 1, 3, 5, 4)], fishburn=True)


@pytest.mark.parametrize("row", TABLE_ROWS, ids=lambda r: r.row_id)
def test_kernel_equals_brute_force_filter(row):
    bodies = [p.body.values for p in row.patterns.classical]
    for n in range(7):
        assert count(AvoidanceQuery(n, row.patterns)) == oracle.count(n, bodies, fishburn=True)


def test_kernel_equals_brute_force_with_filters():
    bodies = [(3, 2, 1), (1, 2, 4, 3)]
    ps = _ps("321,1243")
    for n in range(1, 7):
        for pos in (1, 2):
            assert count(AvoidanceQuery(n, ps, one_position=pos)) == oracle.count(
                n, bodies, fishburn=True, one_position=pos
            )
    ps2 = _ps("321,21354")
    bodies2 = [(3, 2, 1), (2, 1, 3, 5, 4)]
    for n in range(3, 7):
        assert count(AvoidanceQuery(n, ps2, prefix=(3, 1))) == oracle.count(
            n, bodies2, fishburn=True, prefix=(3, 1)
        )
        assert count(
            AvoidanceQuery(n, ps2, prefix=(3, 1, 2), prefix_negation=True)
        ) == oracle.count(n, bodies2, fishburn=True, prefix=(3, 1, 2), prefix_negation=True)
    # Full member lists, in order: unconstrained Fishburn and the `prefix`
    # suite's queries at n=8.
    cases = [(PatternSet(fishburn=True), [], {}), (ps2, bodies2, dict(prefix=(8, 1)))]
    cases += [(ps2, bodies2, dict(prefix=(k, 1, 2), prefix_negation=True)) for k in range(3, 8)]
    for patterns, bodies, filters in cases:
        got = members(AvoidanceQuery(8, patterns, **filters))
        assert got == oracle.members(8, bodies, fishburn=True, **filters)


def test_classical_only_queries_need_no_fishburn_flag():
    ps = PatternSet.parse("231,321,213")
    for n in range(7):
        assert count(AvoidanceQuery(n, ps)) == oracle.count(n, [(2, 3, 1), (3, 2, 1), (2, 1, 3)])


def test_prefix_examples():
    ps = _ps("321,21354")
    assert count(AvoidanceQuery(5, ps, prefix=(5, 1))) == 1
    assert members(AvoidanceQuery(5, ps, prefix=(5, 1))) == [(5, 1, 2, 3, 4)]
    assert count(AvoidanceQuery(7, ps, prefix=(3, 1, 2), prefix_negation=True)) == 10


def test_query_validation():
    with pytest.raises(ValueError):
        AvoidanceQuery(-1)
    with pytest.raises(ValueError):
        AvoidanceQuery(4, one_position=3)
    with pytest.raises(ValueError):
        AvoidanceQuery(4, prefix=(2, 2))
    with pytest.raises(ValueError):
        AvoidanceQuery(4, prefix=(5,))
    with pytest.raises(ValueError):
        AvoidanceQuery(4, prefix_negation=True)


def test_one_position_unsatisfiable_cases():
    assert count(AvoidanceQuery(0, PatternSet(), one_position=1)) == 0
    seen = []
    assert search(AvoidanceQuery(0, PatternSet(), one_position=1), seen.append) == ([0], [0], [0])
    assert seen == []
    assert members(AvoidanceQuery(0, PatternSet(), one_position=1)) == []
    assert count(AvoidanceQuery(1, PatternSet(), one_position=2)) == 0
    assert members(AvoidanceQuery(1, _ps("321"), one_position=2)) == []
    # position filter conflicting with a forced prefix
    assert count(AvoidanceQuery(3, PatternSet(), one_position=2, prefix=(1,))) == 0


def test_capacity_errors_and_overrides():
    with pytest.raises(CapacityError):
        count(AvoidanceQuery(15, _ps("321,132")))
    with pytest.raises(CapacityError):
        members(AvoidanceQuery(11, _ps("321,132")))
    assert count(AvoidanceQuery(15, _ps("321,132")), cap=15) == 15
    assert len(members(AvoidanceQuery(11, _ps("321,132")), cap=11)) == 11


def test_search_depth_does_not_depend_on_the_caller_stack():
    # The cap is the only length limit: a deep search works the same from a
    # deep caller as from the top.  The child interpreter's time bound turns
    # a kernel fault that loosens the prefix sites, and so walks every
    # Fishburn permutation of length 900, into a failure instead of a hang.
    script = textwrap.dedent("""
        from fishburn import AvoidanceQuery, PatternSet, count

        def from_depth(frames, fn):
            return fn() if frames == 0 else from_depth(frames - 1, fn)

        q = AvoidanceQuery(900, PatternSet(fishburn=True), prefix=tuple(range(900, 0, -1)))
        print(count(q, cap=900), from_depth(150, lambda: count(q, cap=900)))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 1\n", "")


def test_package_root_loads_only_the_kernel():
    # The root exports the kernel API, and importing it loads the kernel's
    # modules only: the closed forms and the suites are imported from their
    # own modules when wanted.
    script = textwrap.dedent("""
        import sys

        import fishburn

        print(" ".join(sorted(fishburn.__all__)))
        print(all(hasattr(fishburn, name) for name in fishburn.__all__))
        print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "fishburn")))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names, resolved, loaded = proc.stdout.splitlines()
    assert names.split() == sorted([
        "AvoidanceQuery", "CapacityError", "ParseError", "PatternSet", "count", "members", "__version__",
    ])
    assert resolved == "True"
    assert loaded.split() == ["fishburn", "fishburn.enumeration", "fishburn.patterns", "fishburn.perm"]


def test_results_are_deterministic_across_runs():
    q = AvoidanceQuery(7, _ps("321,31524"))
    assert members(q) == members(q)
    assert count(q) == count(q) == 120


def test_321_shortcut_agrees_with_generic_matcher(monkeypatch):
    # Forcing the kernel to treat 321 like any other pattern must not change
    # anything; the 321 site-range shortcut is a pure optimization.
    queries = [
        AvoidanceQuery(6, _ps("321,1324")),
        AvoidanceQuery(6, _ps("321,14253")),
        AvoidanceQuery(5, _ps("321"), one_position=2),
    ]
    fast = [count(q) for q in queries]
    monkeypatch.setattr(enumeration, "_PATTERN_321", (0,))
    slow = [count(q) for q in queries]
    assert fast == slow


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 5),
    st.lists(
        st.sampled_from(["21", "123", "231", "321", "132", "1324", "2143", "3142", "2413"]),
        unique=True,
        max_size=2,
    ),
    st.booleans(),
    st.sampled_from([None, 1, 2]),
    st.data(),
)
def test_kernel_matches_oracle_on_random_queries(n, texts, fishburn, one_position, data):
    ps = PatternSet(tuple(parse_pattern(t) for t in texts), fishburn)
    bodies = [tuple(int(c) for c in t) for t in texts]
    prefix = tuple(data.draw(st.lists(st.integers(1, n), unique=True, max_size=n))) if n else ()
    prefix_negation = bool(prefix) and data.draw(st.booleans())
    filters = dict(one_position=one_position, prefix=prefix, prefix_negation=prefix_negation)
    q = AvoidanceQuery(n, ps, **filters)
    assert count(q) == oracle.count(n, bodies, fishburn=fishburn, **filters)
    assert members(q) == oracle.members(n, bodies, fishburn=fishburn, **filters)
    # Without a prefix one walk counts the query, and splits it by where
    # entry 1 sits, at every size up to n; with one, only index n counts it.
    sizes, first, second = search(q, None)
    for m in range(n + 1) if not prefix else [n]:
        assert sizes[m] == oracle.count(m, bodies, fishburn=fishburn, **filters), m
        for position, split in ((1, first), (2, second)):
            at = dict(filters, one_position=position)
            want = oracle.count(m, bodies, fishburn=fishburn, **at) if one_position in (None, position) else 0
            assert split[m] == want, (m, position)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(0, 7),
    st.lists(st.sampled_from(["31452", "41523", "2413", "21354", "1243"]), unique=True, min_size=1, max_size=2),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 1, 2]),
    st.data(),
)
def test_inherited_dead_sites_match_oracle_at_every_size(n, texts, with_321, fishburn, one_position, data):
    # Each member inherits its parent's dead sites and probes only when its
    # newest inverse entry can join a new occurrence; a mask that loses or
    # mis-shifts a site shows only a few levels down, so the walk goes to
    # n = 7 with patterns of size 4 and 5.
    texts = ["321", *texts] if with_321 else texts
    ps = PatternSet(tuple(parse_pattern(t) for t in texts), fishburn)
    bodies = [tuple(int(c) for c in t) for t in texts]
    prefix = tuple(data.draw(st.lists(st.integers(1, n), unique=True, max_size=n))) if n else ()
    prefix_negation = bool(prefix) and data.draw(st.booleans())
    filters = dict(one_position=one_position, prefix=prefix, prefix_negation=prefix_negation)
    sizes = search(AvoidanceQuery(n, ps, **filters), None, cap=n)[0]
    for m in range(n + 1) if not prefix else [n]:
        assert sizes[m] == oracle.count(m, bodies, fishburn=fishburn, **filters), m


def test_dead_sites_a_prefix_skips_at_one_size_reach_the_next():
    # Under the prefix (2, 4, 1) the maximum 3 has one site in (2, 1), the
    # last, and 4 must go at site 1 of (2, 1, 3), where it makes the 231
    # 2, 4, 1.  That occurrence avoids 3, so (2, 1, 3) only inherits the
    # dead site: its parent must mark site 1 although its own walk skips it.
    q = AvoidanceQuery(4, PatternSet.parse("231"), prefix=(2, 4, 1))
    assert count(q) == oracle.count(4, [(2, 3, 1)], prefix=(2, 4, 1)) == 0
    q = AvoidanceQuery(6, PatternSet.parse("41523"), prefix=(4, 1, 6, 2))
    assert count(q) == oracle.count(6, [(4, 1, 5, 2, 3)], prefix=(4, 1, 6, 2)) == 0


def test_a_class_with_one_member_per_size_costs_linear_checks(monkeypatch):
    # Av(12) holds only the decreasing permutation: each member inherits all
    # its dead sites but the two beside the new maximum, so the walk makes a
    # bounded number of anchored checks per size, not one per site.
    calls = 0
    matcher = enumeration.occurs_ending_at

    def counted(*args):
        nonlocal calls
        calls += 1
        return matcher(*args)

    monkeypatch.setattr(enumeration, "occurs_ending_at", counted)
    n = 200
    assert count(AvoidanceQuery(n, PatternSet.parse("12")), cap=n) == 1
    assert 0 < calls <= 4 * n + 4


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.data())
def test_pruning_soundness_occurrences_survive_completion(n, data):
    # Any prefix that already realizes a forbidden pattern (classically, or a
    # completed Fishburn triple) keeps realizing it in every completion.
    word = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    cut = data.draw(st.integers(1, n))
    prefix, rest = word[:cut], word[cut:]
    for body in ((3, 2, 1), (2, 3, 1), (1, 4, 2, 5, 3)):
        if oracle.contains_pattern(prefix, body):
            for tail in permutations(rest):
                assert oracle.contains_pattern(prefix + tail, body)
    if oracle.contains_adjacent_231_plus1(prefix):
        for tail in permutations(rest):
            assert oracle.contains_adjacent_231_plus1(prefix + tail)


CLOSURE_PATTERNS = [(3, 2, 1), (1, 2, 4, 3), (3, 1, 4, 5, 2), (2, 4, 1, 3)]


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.lists(st.sampled_from(CLOSURE_PATTERNS), unique=True, max_size=4),
    st.booleans(),
)
def test_deleting_the_maximum_keeps_a_member(word, bodies, fishburn):
    # The generating tree reaches every member only through its parent, the
    # member left by deleting the maximum, so each class must be closed
    # under that deletion.
    parent = tuple(v for v in word if v != len(word))
    if oracle.is_member(tuple(word), bodies, fishburn):
        assert oracle.is_member(parent, bodies, fishburn)


def test_size_one_pattern_and_full_length_prefix():
    # A size-1 pattern occurs in every nonempty word.
    assert count(AvoidanceQuery(4, _ps("1", fishburn=False))) == 0
    assert count(AvoidanceQuery(1, _ps("1"), one_position=1)) == 0
    # A prefix of length n admits at most that one permutation, and negating
    # it admits none: its first n-1 entries fix the last.
    ps = _ps("321,1243")
    assert members(AvoidanceQuery(4, ps, prefix=(2, 1, 3, 4))) == [(2, 1, 3, 4)]
    assert count(AvoidanceQuery(4, ps, prefix=(3, 2, 1, 4))) == 0
    assert count(AvoidanceQuery(3, ps, prefix=(1, 2, 3), prefix_negation=True)) == 0


def test_visited_values_are_distinct_permutations():
    q = AvoidanceQuery(4, _ps("321,1243"))
    out = []
    search(q, out.append)
    assert all(sorted(word) == [1, 2, 3, 4] for word in out)
    assert len(set(out)) == len(out) == count(q)


def test_members_build_no_permutation_objects(monkeypatch):
    # Members are value tuples end to end: listing a class builds no
    # validated Permutation, and a verify suite builds only its pattern
    # bodies, far fewer than the members it lists.
    calls = 0
    validate = Permutation.__post_init__

    def counted(self):
        nonlocal calls
        calls += 1
        validate(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    assert len(members(AvoidanceQuery(8, PatternSet(fishburn=True)))) == 5335
    assert calls == 0
    [report] = run_suite("lrmax", 8)
    assert report.passed
    assert 0 < calls < sum(r.observed for r in report.records)
