from __future__ import annotations

import subprocess
import sys
import textwrap
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fishburn.enumeration import AvoidanceQuery, members
from fishburn.patterns import (
    MAX_PATTERN_SIZE,
    ClassicalPattern,
    PatternSet,
    dead_sites,
    occurs_ending_at,
    parse_pattern,
)
from fishburn.perm import ParseError, Permutation, complement, word_values

perms = st.integers(0, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda w: Permutation(tuple(w)))
)
pattern_texts = st.sampled_from(
    ["1", "12", "21", "123", "231", "321", "132", "213", "312",
     "1243", "2134", "1324", "1423", "2143", "3142", "3124", "4123",
     "14253", "21354", "31452", "31524", "41523"]
)


def test_parse_pattern_examples():
    assert parse_pattern("321").body == Permutation((3, 2, 1))
    assert parse_pattern("14253").body == Permutation((1, 4, 2, 5, 3))
    assert parse_pattern("3 1 2").body == Permutation((3, 1, 2))


def test_parse_pattern_errors():
    with pytest.raises(ParseError, match="1223"):
        parse_pattern("1223")
    with pytest.raises(ParseError, match="missing"):
        parse_pattern("13")
    with pytest.raises(ParseError):
        parse_pattern("102")
    with pytest.raises(ParseError):
        parse_pattern("")
    with pytest.raises(ParseError):
        parse_pattern("1234567891")  # too long for the compact encoding


def test_pattern_set_parse_and_duplicates():
    ps = PatternSet.parse("321, 1423 ,2143", fishburn=True)
    assert [p.body.values for p in ps.classical] == [(3, 2, 1), (1, 4, 2, 3), (2, 1, 4, 3)]
    assert ps.fishburn
    with pytest.raises(ValueError):
        PatternSet.parse("321,321")


@given(perms, pattern_texts)
def test_containment_agrees_with_brute_force(p, text):
    # Every occurrence ends somewhere, so anchoring at each index in turn
    # decides plain containment.
    pat = parse_pattern(text)
    anywhere = any(occurs_ending_at(p.values, m, pat) for m in range(len(p)))
    assert anywhere == oracle.contains_pattern(p.values, pat.body.values)


def _all_patterns_up_to(k_max):
    out = []
    for k in range(1, k_max + 1):
        out.extend(ClassicalPattern(Permutation(w)) for w in permutations(range(1, k + 1)))
    return out


@pytest.mark.parametrize("n", range(8))
def test_complement_duality_exhaustive(n):
    # p avoids a pattern iff its complement avoids the pattern's complement,
    # so the kernel's member lists must map onto each other.
    for pat in _all_patterns_up_to(4):
        flipped = ClassicalPattern(Permutation(complement(pat.body.values)))
        avoiding = map(word_values, members(AvoidanceQuery(n, PatternSet((pat,)))))
        avoiding_flipped = list(map(word_values, members(AvoidanceQuery(n, PatternSet((flipped,))))))
        assert sorted(map(complement, avoiding)) == avoiding_flipped, pat.body.values


def _is_occurrence(sub, body):
    k = len(body)
    return all((sub[a] < sub[b]) == (body[a] < body[b]) for a in range(k) for b in range(a + 1, k))


def _ends_at(word, m, body):
    """The literal definition: some occurrence of body has index m last."""
    return any(
        _is_occurrence([word[i] for i in idx], body)
        for idx in combinations(range(m + 1), len(body))
        if idx[-1] == m
    )


def test_anchored_matcher_matches_definition():
    # occurs_ending_at(word, m, pat) must agree with "some occurrence uses m
    # last".  Each body compiles to its own nested loops, so every pattern
    # of sizes 1-4 is checked.
    pats = _all_patterns_up_to(4)
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            for pat in pats:
                for m in range(n):
                    assert occurs_ending_at(w, m, pat) == _ends_at(w, m, pat.body.values), (w, m, pat)


def test_dead_sites_match_definition():
    # Bit s of dead_sites(w, last, pat) must be set iff, in w followed by
    # the probe s - 0.5, some occurrence of pat ends at the probe with index
    # last next to last, for last = len(w) - 1 as the kernel calls it.  Each
    # body compiles to its own loops, so every word of length up to 7 meets
    # every body of sizes 2-5.  The definition is evaluated once per word,
    # size and site: the bodies with such an occurrence are the standardized
    # subsequences that end at index last and the probe.  (Asking `_ends_at`
    # per body and site would make about 10^8 subsequence tests.)  One size
    # at a time, so its at most 120 bodies stay in the compiled cache.
    standardize = cache(_standardize)
    for k in range(2, 6):
        pats = [ClassicalPattern(Permutation(b)) for b in permutations(range(1, k + 1))]
        for n in range(1, 8):
            last = n - 1
            for w in permutations(range(n)):
                want = {}
                for s in range(n + 1):
                    word = (*w, s - 0.5)
                    for idx in combinations(range(last), k - 2):
                        body = standardize(tuple([word[i] for i in (*idx, last, n)]))
                        want[body] = want.get(body, 0) | 1 << s
                for pat in pats:
                    assert dead_sites(w, last, pat) == want.get(pat.body.values, 0), (w, pat.body.values)


@given(st.integers(0, 7), st.data(), pattern_texts)
def test_matcher_handles_arbitrary_distinct_values(m, data, text):
    # A word may hold any distinct numbers, here a child's inverse: a
    # rearrangement of 0..m-1 followed by the probe s - 0.5 for the site s
    # of the new maximum.
    inverse = data.draw(st.permutations(list(range(m))))
    s = data.draw(st.integers(0, m))
    word = (*inverse, s - 0.5)
    pat = parse_pattern(text)
    assert occurs_ending_at(word, m, pat) == _ends_at(word, m, pat.body.values)


def _standardize(values):
    return tuple(sorted(values).index(v) + 1 for v in values)


@settings(max_examples=150, deadline=None)
@given(st.integers(5, MAX_PATTERN_SIZE), st.integers(4, 11), st.booleans(), st.data())
def test_matcher_matches_definition_for_long_patterns(k, m, planted, data):
    # Long bodies nest deepest; MAX_PATTERN_SIZE gives k - 1 = 8 loops.  The
    # word is a shuffled inverse followed by a half-integer probe, a child's
    # inverse.  A planted pattern is read off the word itself, so
    # about half the draws have an occurrence ending at the probe.
    inverse = data.draw(st.permutations(list(range(m))))
    word = (*inverse, data.draw(st.integers(0, m)) - 0.5)
    if planted and k - 1 <= m:
        idx = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=k - 1, max_size=k - 1, unique=True)))
        body = _standardize([word[i] for i in (*idx, m)])
    else:
        body = tuple(data.draw(st.permutations(list(range(1, k + 1)))))
    pat = ClassicalPattern(Permutation(body))
    assert occurs_ending_at(word, m, pat) == _ends_at(word, m, body)


def test_matchers_compile_on_first_use_into_a_bounded_cache():
    # Start-up compiles nothing: importing the package and parsing every
    # claim's pattern text leave both caches empty.  The whole verify run
    # compiles one matcher per distinct head it gates on and one kill pass
    # per distinct inverted body it asks for, and stays below the bound.
    script = textwrap.dedent("""
        import fishburn
        from fishburn import patterns
        from fishburn.sequences import TABLE_ROWS
        from fishburn.verify import run_suite

        caches = (patterns._matcher, patterns._killer)
        for row in TABLE_ROWS:
            fishburn.PatternSet.parse(row.row_id.split(":")[0], fishburn=True)
        before = [c.cache_info().currsize for c in caches]
        run_suite("all", 9)
        after = [c.cache_info() for c in caches]
        print(*before, *(i.currsize for i in after), *(i.maxsize for i in after))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before_m, before_k, after_m, after_k, max_m, max_k = map(int, proc.stdout.split())
    assert (before_m, before_k, after_m, after_k) == (0, 0, 11, 18)
    assert after_m < max_m and after_k < max_k


@pytest.mark.parametrize("sigma", ["132", "213", "312", "3142"])
def test_fishburn_reduces_to_231_avoidance(sigma):
    # With 321 and sigma forbidden, the Fishburn condition and classical
    # 231-avoidance carve out the same permutations.  The oracle decides
    # both sides by the literal definitions, apart from the kernel.
    body = parse_pattern(sigma).body.values
    for n in range(8):
        for w in permutations(range(1, n + 1)):
            fishburn_side = oracle.is_member(w, ((3, 2, 1), body), fishburn=True)
            classical_side = oracle.is_member(w, ((2, 3, 1), (3, 2, 1), body))
            assert fishburn_side == classical_side, w
