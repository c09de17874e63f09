from __future__ import annotations

import hashlib
import re
import subprocess
import sys
import textwrap
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ascent
import oracle
from fishburn import enumeration, verify
from fishburn.enumeration import (
    DEFAULT_COUNT_CAP,
    DEFAULT_LIST_CAP,
    AvoidanceQuery,
    CapacityError,
    count,
    members,
    search,
)
from fishburn.patterns import ClassicalPattern, PatternSet, occurs_ending_at, parse_pattern
from fishburn.perm import Permutation, word_values
from fishburn.sequences import SERIES_CAP, TABLE_ROWS, eval_row, fishburn_series, q_value
from fishburn.verify import run_suite


def _ps(text, fishburn=True):
    return PatternSet.parse(text, fishburn=fishburn)


def _listed(query, **kwargs):
    """The query's members, decoded from words to value tuples."""
    return [word_values(word) for word in members(query, **kwargs)]


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
    assert members(AvoidanceQuery(0, _ps("321,1243"))) == [""]


def test_unconstrained_query_counts_all_permutations():
    assert count(AvoidanceQuery(5, PatternSet())) == 120
    assert count(AvoidanceQuery(5, PatternSet(fishburn=True))) == 53


def test_members_examples():
    assert members(AvoidanceQuery(3, _ps("321,1243"), one_position=2)) == ["213", "312"]
    assert _listed(AvoidanceQuery(3, _ps("321,1243"), one_position=2)) == [(2, 1, 3), (3, 1, 2)]
    assert _listed(AvoidanceQuery(1, PatternSet(fishburn=True))) == [(1,)]
    assert _listed(AvoidanceQuery(4, _ps("321,1243"), one_position=2)) == [
        (2, 1, 3, 4), (2, 1, 4, 3), (3, 1, 2, 4), (3, 1, 4, 2), (4, 1, 2, 3)
    ]


@pytest.mark.parametrize("n", [10, 11])
def test_words_past_nine_sort_and_decode_as_value_tuples(n):
    # Values 10 and 11 are the characters ':' and ';', which follow '9', so
    # the words sort as the value tuples do.  oracle.members filters all n!
    # permutations, too many here, so the reference runs its membership test
    # on the ones that open with the prefix: the prefix followed by each
    # permutation of the other seven values, in lexicographic order.
    head = tuple(range(1, n - 6))
    expected = [
        head + tail
        for tail in permutations(range(n - 6, n + 1))
        if oracle.is_member(head + tail, fishburn=True)
    ]
    got = members(AvoidanceQuery(n, PatternSet(fishburn=True), prefix=head), cap=n)
    assert any(":" in word[:-1] for word in got)
    assert [word_values(word) for word in got] == expected


def test_a_word_past_latin_1_decodes():
    # Av(12) holds only the decreasing permutation; at n = 300 its word holds
    # characters past Latin-1.
    [word] = members(AvoidanceQuery(300, PatternSet.parse("12")), cap=300)
    assert max(word) > "\xff"
    assert word_values(word) == tuple(range(300, 0, -1))


@pytest.mark.parametrize("row", TABLE_ROWS, ids=lambda r: r.row_id)
def test_members_past_the_oracle_are_sorted_and_grow_from_members(row):
    # n = 11 lies past the oracle's reach.  The list must be strictly
    # increasing, as long as the count, and each word less its maximum ';'
    # (chr(48 + 11)) must be a member of size 10; its output comes in
    # batches.  The count comes first, so that a kernel fault that lets the
    # class grow fails here and does not list a class of a million members.
    q = AvoidanceQuery(11, row.patterns)
    size = count(q, cap=11)
    assert size == eval_row(row, 11)
    got = members(q, cap=11)
    assert all(a < b for a, b in zip(got, got[1:]))
    assert len(got) == size
    parents = set(members(AvoidanceQuery(10, row.patterns)))
    assert all(word.replace(";", "") in parents for word in got)
    batches = []
    assert members(q, cap=11, out=batches.append) == len(got)
    assert [word for batch in batches for word in batch] == got


def test_members_hand_out_their_first_batch_early(monkeypatch):
    # Every member the merge grows looks its live sites up once in `_bits`,
    # so its calls count the walk's progress.  The 31,240 Fishburn
    # permutations of length 9 come in 8 batches, all but the last of
    # exactly BATCH words, the first after 1,250 of the 6,643 members grown
    # (a walk that sorts at the end would hand it out after the last); the
    # bound leaves room for other batch sizes.
    grown = 0
    bits = enumeration._bits

    def counted(mask):
        nonlocal grown
        grown += 1
        return bits(mask)

    monkeypatch.setattr(enumeration, "_bits", counted)
    batches = []
    at = []

    def out(batch):
        at.append(grown)
        batches.append(batch)

    q = AvoidanceQuery(9, PatternSet(fishburn=True))
    assert members(q, cap=9, out=out) == 31240
    assert len(batches) >= 5 and at[0] <= grown // 4
    # Each batch leaves as soon as it fills.  Once the last member is grown,
    # only the final flush of the 5,335 members of length 8 is left, with
    # less than one batch before it; a walk that cuts batches only between
    # its rounds of growing also holds back the last round (10,760 words).
    late = sum(len(batch) for when, batch in zip(at, batches) if when == grown)
    assert late < count(AvoidanceQuery(8, q.patterns)) + enumeration.BATCH
    assert all(len(batch) == enumeration.BATCH for batch in batches[:-1])
    assert [word for batch in batches for word in batch] == members(q, cap=9)


def test_members_are_lexicographically_sorted_and_counted():
    for row in TABLE_ROWS[:6]:
        q = AvoidanceQuery(6, row.patterns)
        got = _listed(q)
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
    got = _listed(AvoidanceQuery(4, PatternSet(fishburn=True)))
    assert other == sum(1 for word in got if word.index(1) >= 2)


def test_search_counts_agree_with_members_and_count():
    q = AvoidanceQuery(6, _ps("321,14253"))
    assert search(q)[0][-1] == 48
    assert len(members(q)) == count(q) == 48
    assert search(AvoidanceQuery(5, _ps("321,31452")))[0] == [1, 1, 2, 4, 9, 21]


def test_one_walk_counts_the_fishburn_numbers_at_every_size():
    sizes = search(AvoidanceQuery(10, PatternSet(fishburn=True)))[0]
    assert sizes == list(fishburn_series(10))
    # A count by ascent sequences shares no code with the kernel.
    assert sizes == ascent.counts(10)


@pytest.mark.parametrize("row", TABLE_ROWS, ids=lambda r: r.row_id)
def test_one_walk_splits_every_size_by_the_position_of_one(row):
    # One unpruned walk tallies, at every size, the members with entry 1 at
    # position 1 and at position 2; the pruned one_position walks and the
    # brute-force filter must agree with both splits.
    _, first, second = search(AvoidanceQuery(9, row.patterns), cap=9)
    for n in range(10):
        assert first[n] == count(AvoidanceQuery(n, row.patterns, one_position=1)), n
        assert second[n] == count(AvoidanceQuery(n, row.patterns, one_position=2)), n
    bodies = [p.body.values for p in row.patterns.classical]
    for n in range(8):
        assert first[n] == oracle.count(n, bodies, fishburn=True, one_position=1), n
        assert second[n] == oracle.count(n, bodies, fishburn=True, one_position=2), n


def test_split_lists_of_the_empty_member_and_of_pruned_walks():
    for ps in (PatternSet(), PatternSet(fishburn=True), _ps("321,1243")):
        assert search(AvoidanceQuery(0, ps)) == ([1], [0], [0])
        assert search(AvoidanceQuery(1, ps)) == ([1, 1], [0, 1], [0, 0])
        # A one_position query's members all sit in its own split.
        assert search(AvoidanceQuery(1, ps, one_position=1)) == ([0, 1], [0, 1], [0, 0])
        assert search(AvoidanceQuery(1, ps, one_position=2)) == ([0, 0], [0, 0], [0, 0])
    at_first, at_second, none = [0, 1, 1, 2, 3, 4], [0, 0, 1, 2, 5, 10], [0] * 6
    ps = _ps("321,1243")
    assert search(AvoidanceQuery(5, ps, one_position=1)) == (at_first, at_first, none)
    assert search(AvoidanceQuery(5, ps, one_position=2)) == (at_second, none, at_second)


def test_member_lists_are_pinned():
    # Unfiltered Fishburn, one_position, non-Fishburn and prefix-negation
    # queries.  The digest of their lists was recorded while a second,
    # depth-first listing walk still checked the merge; each list is as
    # long as its query's count.
    queries = [
        AvoidanceQuery(8, PatternSet(fishburn=True)),
        AvoidanceQuery(9, _ps("321,1243"), one_position=2),
        AvoidanceQuery(8, _ps("2413,132", fishburn=False)),
        AvoidanceQuery(9, _ps("321,21354"), prefix=(5, 1, 2), prefix_negation=True),
    ]
    digest = hashlib.sha256()
    for q in queries:
        got = members(q, cap=q.n)
        assert len(got) == count(q, cap=q.n)
        digest.update(repr(got).encode())
    assert digest.hexdigest() == "c7b0d67ca76e7fe8c1ad183a0ee8732ffd615954aca554fbe8aec1bbb4665f97"


def test_members_lists_only_members():
    q = AvoidanceQuery(6, _ps("321,21354"))
    for word in _listed(q):
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
        got = _listed(AvoidanceQuery(8, patterns, **filters))
        assert got == oracle.members(8, bodies, fishburn=True, **filters)


def test_classical_only_queries_need_no_fishburn_flag():
    ps = PatternSet.parse("231,321,213")
    for n in range(7):
        assert count(AvoidanceQuery(n, ps)) == oracle.count(n, [(2, 3, 1), (3, 2, 1), (2, 1, 3)])


def test_prefix_examples():
    ps = _ps("321,21354")
    assert count(AvoidanceQuery(5, ps, prefix=(5, 1))) == 1
    assert _listed(AvoidanceQuery(5, ps, prefix=(5, 1))) == [(5, 1, 2, 3, 4)]
    assert count(AvoidanceQuery(7, ps, prefix=(3, 1, 2), prefix_negation=True)) == 10
    # Under the prefix (5,) the leaf 5 has one site, 0, while the target
    # cuts sites 0 and 1 when entry 1 is already second: no site is left.
    q = AvoidanceQuery(5, PatternSet.parse("31452"), one_position=2, prefix=(5,))
    assert count(q) == oracle.count(5, [(3, 1, 4, 5, 2)], one_position=2, prefix=(5,)) == 6


def test_query_validation():
    # A negative length builds; `check_cap` refuses it at every entry point.
    assert AvoidanceQuery(-1).n == -1
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
    assert search(AvoidanceQuery(0, PatternSet(), one_position=1)) == ([0], [0], [0])
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


@pytest.mark.parametrize(
    ("entry", "name", "cap"),
    [
        pytest.param(lambda n: count(AvoidanceQuery(n, _ps("12"))), "n", DEFAULT_COUNT_CAP, id="count"),
        pytest.param(lambda n: members(AvoidanceQuery(n, _ps("12"))), "n", DEFAULT_LIST_CAP, id="members"),
        pytest.param(lambda n: search(AvoidanceQuery(n, _ps("12"))), "n", DEFAULT_COUNT_CAP, id="search"),
        pytest.param(verify.verify_table, "max_n", DEFAULT_COUNT_CAP, id="table"),
        pytest.param(verify.verify_decompositions, "max_n", DEFAULT_COUNT_CAP, id="decompositions"),
        pytest.param(verify.verify_lemmas, "max_n", DEFAULT_COUNT_CAP, id="lemmas"),
        pytest.param(verify.verify_wilf_complement, "max_n", DEFAULT_COUNT_CAP, id="wilf"),
        pytest.param(verify.verify_lrmax_bijection, "max_n", DEFAULT_COUNT_CAP, id="lrmax"),
        pytest.param(verify.verify_prefix_claims, "max_n", DEFAULT_COUNT_CAP, id="prefix"),
        pytest.param(verify.verify_identities, "max_n", SERIES_CAP, id="identities"),
        pytest.param(fishburn_series, "degree", SERIES_CAP, id="series"),
    ],
)
def test_one_length_rule_at_every_entry_point(entry, name, cap):
    # `check_cap` is the one length rule: one past the cap is refused by
    # name, and so is a negative length (a query of length -1 builds, and
    # `count`, `members` and `search` refuse it).
    with pytest.raises(CapacityError, match=re.escape(f"{name}={cap + 1} exceeds the cap of {cap}")):
        entry(cap + 1)
    with pytest.raises(ValueError, match="must be nonnegative"):
        entry(-1)


def test_search_depth_does_not_depend_on_the_caller_stack():
    # The cap is the only length limit: a deep search works the same from a
    # deep caller as from the top.  The child interpreter's time bound turns
    # a kernel fault that loosens the prefix sites, and so walks every
    # Fishburn permutation of length 900, into a failure instead of a hang.
    # The merge behind `members` holds one state per size; it must not
    # hold a frame per size too.
    script = textwrap.dedent("""
        from fishburn import AvoidanceQuery, PatternSet, count, members

        def from_depth(frames, fn):
            return fn() if frames == 0 else from_depth(frames - 1, fn)

        q = AvoidanceQuery(900, PatternSet(fishburn=True), prefix=tuple(range(900, 0, -1)))
        print(count(q, cap=900), from_depth(150, lambda: count(q, cap=900)))
        decreasing = AvoidanceQuery(900, PatternSet.parse("12"))
        print(len(from_depth(150, lambda: members(decreasing, cap=900))))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 1\n1\n", "")


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
    assert _listed(q) == oracle.members(n, bodies, fishburn=fishburn, **filters)
    # Without a prefix one walk counts the query, and splits it by where
    # entry 1 sits, at every size up to n; with one, only index n counts it.
    sizes, first, second = search(q)
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
    # Each member inherits its parent's dead sites and looks for new ones
    # only when its newest inverse entry can join an occurrence; a mask
    # that loses or mis-shifts a site shows only a few levels down, so the
    # walk goes to n = 7 with patterns of size 4 and 5.
    texts = ["321", *texts] if with_321 else texts
    ps = PatternSet(tuple(parse_pattern(t) for t in texts), fishburn)
    bodies = [tuple(int(c) for c in t) for t in texts]
    prefix = tuple(data.draw(st.lists(st.integers(1, n), unique=True, max_size=n))) if n else ()
    prefix_negation = bool(prefix) and data.draw(st.booleans())
    filters = dict(one_position=one_position, prefix=prefix, prefix_negation=prefix_negation)
    sizes = search(AvoidanceQuery(n, ps, **filters), cap=n)[0]
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


def test_the_target_prune_expands_no_member_with_entry_1_past_the_target(monkeypatch):
    # Insertions only move entry 1 right, so no member whose entry 1 lies
    # past the target has one of the query below it, and the walk expands
    # none: each member of size 1..n-1 it expands makes one anchored check
    # for 1243, and those have entry 1 at or before the target.
    ps = _ps("321,1243")
    n = 8
    _, first, second = search(AvoidanceQuery(n, ps))
    calls = 0
    matcher = enumeration.occurs_ending_at

    def counted(*args):
        nonlocal calls
        calls += 1
        return matcher(*args)

    monkeypatch.setattr(enumeration, "occurs_ending_at", counted)
    for position, expanded in ((1, first), (2, [a + b for a, b in zip(first, second)])):
        calls = 0
        count(AvoidanceQuery(n, ps, one_position=position))
        assert calls == sum(expanded[1:n]), position


@pytest.mark.parametrize("text", ["321,31452", "321,1243", "2413,41523"])
def test_no_anchored_check_at_a_dead_site(monkeypatch, text):
    # A member learns the sites its own maximum kills from one `dead_sites`
    # pass, made only when the pattern's head ends at its newest inverse
    # entry, in place of one anchored probe per open site.  For every member
    # of the walk and every pattern it checks, the fresh mask must equal the
    # sites where such a probe, the member's inverse followed by site - 0.5,
    # finds an occurrence, on the sites the parent's mask leaves open for
    # that pattern: those where the probe finds none without the member's
    # maximum, inv[m-1].
    fresh = {}
    killer = enumeration.dead_sites

    def spy(word, last, pattern):
        mask = killer(word, last, pattern)
        fresh[tuple(word), pattern.body.values] = mask
        return mask

    monkeypatch.setattr(enumeration, "dead_sites", spy)
    ps = _ps(text)
    n = 9
    count(AvoidanceQuery(n, ps))
    assert any(fresh.values())
    patterns = [
        ClassicalPattern(Permutation(tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))))
        for w in (p.body.values for p in ps.classical)
        if w != (3, 2, 1)
    ]
    for m in range(1, n):
        for word in members(AvoidanceQuery(m, ps)):
            inv = [0] * m
            for i, v in enumerate(word_values(word)):
                inv[v - 1] = i
            for pat in patterns:
                probed = inherited = 0
                for s in range(m + 1):
                    probed |= occurs_ending_at(inv + [s - 0.5], m, pat) << s
                    inherited |= occurs_ending_at(inv[:-1] + [s - 0.5], m - 1, pat) << s
                got = fresh.get((tuple(inv), pat.body.values), 0)
                assert got & ~inherited == probed & ~inherited, (word, pat.body.values)


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
    assert _listed(AvoidanceQuery(4, ps, prefix=(2, 1, 3, 4))) == [(2, 1, 3, 4)]
    assert count(AvoidanceQuery(4, ps, prefix=(3, 2, 1, 4))) == 0
    assert count(AvoidanceQuery(3, ps, prefix=(1, 2, 3), prefix_negation=True)) == 0


def test_listed_words_are_distinct_permutations():
    q = AvoidanceQuery(4, _ps("321,1243"))
    out = _listed(q)
    assert all(sorted(word) == [1, 2, 3, 4] for word in out)
    assert len(set(out)) == len(out) == count(q)


def test_members_build_no_permutation_objects(monkeypatch):
    # Members are words end to end: listing a class builds no
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


def test_lands_is_the_set_of_sites_that_put_a_value_at_an_index():
    # Every word of size m <= 6, every value and every index: the mask of
    # the value's index in the word, -1 for the new maximum m + 1, must
    # equal the sites whose child, built by inserting m + 1 there, holds
    # the value at the index.
    for m in range(7):
        sites = (2 << m) - 1
        for word in permutations(range(1, m + 1)):
            children = [word[:s] + (m + 1,) + word[s:] for s in range(m + 1)]
            for value in range(1, m + 2):
                p = word.index(value) if value <= m else -1
                for index in range(m + 1):
                    want = sum(1 << s for s, child in enumerate(children) if child[index] == value)
                    assert enumeration._lands(p, index) & sites == want, (word, value, index)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(5, 11),
    st.lists(st.sampled_from(["1243", "2143", "3142", "4123", "132", "2413", "31452", "21354"]),
             unique=True, max_size=2),
    st.booleans(),
    st.sampled_from([None, 1, 2]),
    st.data(),
)
def test_negated_prefix_is_the_shorter_prefix_less_the_full_one(n, texts, fishburn, one_position, data):
    # Inclusion-exclusion needs no oracle, so it reaches past the oracle's
    # range: the members that open with P[:-1] but not with P are those of
    # P[:-1] less those of P.  P[:-1] opens a member, when one starts with
    # its first value, so that its class is seldom empty; P's last value
    # follows it there or not.
    ps = PatternSet(tuple(parse_pattern(t) for t in ["321", *texts]), fishburn)
    first = data.draw(st.integers(1, n))
    start = members(AvoidanceQuery(n, ps, one_position=one_position, prefix=(first,)), cap=n)
    member = word_values(data.draw(st.sampled_from(start))) if start else tuple(range(1, n + 1))
    length = data.draw(st.integers(1, min(n, 4)))
    head = member[: length - 1]
    rest = [v for v in range(1, n + 1) if v not in head]
    last = member[length - 1] if data.draw(st.booleans()) else data.draw(st.sampled_from(rest))
    negated, whole, shorter = (
        AvoidanceQuery(n, ps, one_position=one_position, prefix=p, prefix_negation=neg)
        for p, neg in ((head + (last,), True), (head + (last,), False), (head, False))
    )
    assert count(negated, cap=n) == count(shorter, cap=n) - count(whole, cap=n)
    without = set(members(whole, cap=n))
    assert members(negated, cap=n) == [w for w in members(shorter, cap=n) if w not in without]


def test_prefix_claims_hold_at_depth():
    # The prefix suite's queries are the prefix and ban masks at work; the
    # acceptance run checks them to n = 9 only.
    [report] = run_suite("prefix", 12)
    assert report.passed
    assert max(r.n for r in report.records) == 12
