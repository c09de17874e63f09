"""The package's value types are immutable records that compare by value."""

from __future__ import annotations

import copy
import pickle

import pytest

from fishburn.enumeration import AvoidanceQuery, count
from fishburn.patterns import ClassicalPattern, PatternSet
from fishburn.perm import Permutation
from fishburn.sequences import TABLE_ROWS, SequenceRow
from fishburn.verify import CheckRecord, VerificationReport


def _records():
    p = Permutation((2, 1))
    ps = PatternSet.parse("321,1243", fishburn=True)
    record = CheckRecord("x", 1, 2, None, True, False)
    return [
        p,
        ClassicalPattern(p),
        ps,
        AvoidanceQuery(4, ps, 2, (1,), True),
        TABLE_ROWS[0],
        record,
        VerificationReport("s", (record,), False),
    ]


def test_equal_records_are_equal_and_hash_equal():
    a = PatternSet.parse("321,1423,2143", fishburn=True)
    b = PatternSet.parse("321, 1423, 2143", fishburn=True)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != PatternSet.parse("321,1423,2143")
    assert AvoidanceQuery(5, a, 1) == AvoidanceQuery(n=5, patterns=b, one_position=1)
    assert len({a, b, PatternSet()}) == 2


def test_hash_is_that_of_the_field_tuple():
    ps = PatternSet.parse("12")
    assert hash(ps) == hash((ps.classical, False))
    assert hash(Permutation((1, 2))) == hash(((1, 2),))


def test_records_of_different_classes_are_never_equal():
    records = _records()
    for i, a in enumerate(records):
        assert a == copy.copy(a)
        for b in records[i + 1:]:
            assert a != b
    p = Permutation((1, 2))
    assert p != (1, 2) and p != ((1, 2),)
    assert ClassicalPattern(p) != p
    assert PatternSet() != ((), False)


def test_repr_is_pinned():
    assert repr(PatternSet()) == "PatternSet(classical=(), fishburn=False)"
    assert repr(PatternSet.parse("21", fishburn=True)) == (
        "PatternSet(classical=(ClassicalPattern(body=Permutation((2, 1))),), fishburn=True)"
    )
    assert repr(AvoidanceQuery(3, one_position=1, prefix=[1])) == (
        "AvoidanceQuery(n=3, patterns=PatternSet(classical=(), fishburn=False), "
        "one_position=1, prefix=(1,), prefix_negation=False)"
    )
    assert repr(CheckRecord("x", 1, 2, None, True, False)) == (
        "CheckRecord(row_id='x', n=1, observed=2, expected=None, asserted=True, matched=False)"
    )
    assert repr(VerificationReport("s", (), True)) == "VerificationReport(suite='s', records=(), passed=True)"
    assert repr(TABLE_ROWS[0]).startswith("SequenceRow(row_id='321,1243', patterns=PatternSet(")


@pytest.mark.parametrize(
    "record, field",
    zip(_records(), ["values", "body", "fishburn", "n", "formula", "matched", "records"]),
    ids=lambda r: type(r).__name__ if not isinstance(r, str) else r,
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_copies_and_pickles_are_equal():
    for record in _records():
        if isinstance(record, SequenceRow):
            continue  # its formula is a lambda, which pickle cannot send
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_defaults_and_wrong_arity():
    q = AvoidanceQuery(3)
    assert (q.patterns, q.one_position, q.prefix, q.prefix_negation) == (PatternSet(), None, (), False)
    assert SequenceRow("r", PatternSet(), abs, 0).one_position is None
    for build in (
        lambda: AvoidanceQuery(),
        lambda: AvoidanceQuery(3, PatternSet(), None, (), False, 1),
        lambda: AvoidanceQuery(3, n=3),
        lambda: AvoidanceQuery(3, bogus=1),
        lambda: PatternSet((), False, 1),
        lambda: Permutation(),
        lambda: CheckRecord("x", 1, 2, None, True),
        lambda: VerificationReport(suite="s", records=()),
    ):
        with pytest.raises(TypeError):
            build()


def test_validations_raise_value_error():
    cases = [
        (lambda: Permutation((1, 3)), "not a rearrangement"),
        (lambda: ClassicalPattern(Permutation(())), "pattern size must be 1..9"),
        (lambda: ClassicalPattern(Permutation(tuple(range(1, 11)))), "pattern size must be 1..9"),
        (lambda: PatternSet.parse("321,321"), "duplicate classical pattern"),
        (lambda: count(AvoidanceQuery(-1)), "n must be nonnegative"),
        (lambda: AvoidanceQuery(3, one_position=3), "one_position must be 1 or 2"),
        (lambda: AvoidanceQuery(3, prefix_negation=True), "prefix_negation requires a prefix"),
        (lambda: AvoidanceQuery(3, prefix=(1, 1)), "prefix values must be distinct"),
        (lambda: AvoidanceQuery(3, prefix=(4,)), "prefix value 4 outside 1..3"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()
