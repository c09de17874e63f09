from __future__ import annotations

from math import comb

import pytest

import ascent
from fishburn.enumeration import AvoidanceQuery, count
from fishburn.patterns import PatternSet
from fishburn.sequences import (
    IDENTITY_MIN_N,
    TABLE_ROWS,
    PellIdentity,
    RangeError,
    claim,
    eval_row,
    evaluate_formula,
    fibonacci,
    fishburn_series,
    identity_sides,
    pell,
    q_value,
)

FISHBURN_NUMBERS = (1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608)


def test_fibonacci_convention_and_values():
    # F(0) = F(1) = 1 here, one step ahead of the F(0) = 0 indexing.
    assert fibonacci(0) == 1
    assert fibonacci(1) == 1
    assert fibonacci(5) == 8
    assert fibonacci(10) == 89
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_ascent_sequences_count_the_fishburn_series():
    # A third count, by ascent sequences, sharing no code with the series.
    assert ascent.counts(64) == list(fishburn_series(64))


def test_pell_values():
    assert [pell(n) for n in range(6)] == [0, 1, 2, 5, 12, 29]
    assert pell(2) == 2
    assert pell(10) == 2378
    with pytest.raises(ValueError):
        pell(-1)


def test_q_values():
    assert q_value(0) == 1
    assert q_value(1) == 1
    assert q_value(5) == 21
    assert [q_value(n) for n in range(8)] == [1, 1, 2, 4, 9, 21, 50, 120]
    with pytest.raises(ValueError):
        q_value(-1)


def test_q_integrality():
    for n in range(1, 41):
        assert 2 * q_value(n) - 1 == pell(n) + pell(n - 1)


def _row(row_id):
    matches = [r for r in TABLE_ROWS if r.row_id == row_id]
    assert len(matches) == 1
    return matches[0]


def test_table_has_19_distinct_rows():
    assert len(TABLE_ROWS) == 19
    assert len({r.row_id for r in TABLE_ROWS}) == 19


def test_eval_row_examples():
    assert eval_row(_row("321,1243"), 4) == 8
    assert eval_row(_row("321,14253"), 1) == 1
    assert eval_row(_row("321,1324"), 3) == 4
    assert eval_row(_row("321,31524"), 8) == 289


def test_eval_row_rejects_below_range():
    with pytest.raises(RangeError, match="321,1243"):
        eval_row(_row("321,1243"), 1)
    with pytest.raises(RangeError, match="321,3142"):
        eval_row(_row("321,3142"), 0)
    # A row stated from 0 whose formula is undefined there.
    with pytest.raises(RangeError, match="formula undefined at n=0"):
        eval_row(claim("321,3142", _row("321,3142").formula, 0), 0)


def test_formula_values_against_direct_arithmetic():
    for n in range(2, 12):
        assert evaluate_formula(_row("321,1243"), n) == n * n - 3 * n + 4
    for n in range(3, 12):
        assert 2 * evaluate_formula(_row("321,1324"), n) == 3 * n * n - 13 * n + 20
    for n in range(12):
        assert evaluate_formula(_row("321,1423,2143"), n) == comb(n, 2) + 1
        assert evaluate_formula(_row("321,14253"), n) == 2**n - comb(n, 2) - 1
    assert evaluate_formula(_row("321,3142"), 0) is None
    assert evaluate_formula(_row("321,3142"), 6) == 32
    with pytest.raises(ValueError):
        evaluate_formula(_row("321,1243"), -1)


def _series_by_binomial_expansion(degree):
    # Independent expansion route: 1 - (1-t)^i written out with the binomial
    # theorem, products accumulated in sparse dicts, rebuilt from scratch for
    # each summand.
    total = {0: 1}
    for n in range(1, degree + 1):
        prod = {0: 1}
        for i in range(1, n + 1):
            factor = {j: (-1) ** (j + 1) * comb(i, j) for j in range(1, degree + 1)}
            new = {}
            for a, ca in prod.items():
                for b, cb in factor.items():
                    if a + b <= degree:
                        new[a + b] = new.get(a + b, 0) + ca * cb
            prod = new
        for d, c in prod.items():
            total[d] = total.get(d, 0) + c
    return tuple(total.get(d, 0) for d in range(degree + 1))


def test_series_examples():
    assert fishburn_series(0) == (1,)
    assert fishburn_series(5) == (1, 1, 2, 5, 15, 53)
    assert fishburn_series(10) == FISHBURN_NUMBERS


def test_series_against_independent_expansion():
    for degree in (0, 1, 4, 9, 16):
        assert fishburn_series(degree) == _series_by_binomial_expansion(degree)


def test_series_coefficients_grow_weakly_from_degree_two():
    coeffs = fishburn_series(20)
    assert all(c > 0 for c in coeffs)
    assert all(coeffs[i] <= coeffs[i + 1] for i in range(2, 20))


def test_series_matches_class_counts():
    coeffs = fishburn_series(6)
    for n in range(7):
        assert coeffs[n] == count(AvoidanceQuery(n, PatternSet(fishburn=True)))


def test_identity_examples():
    assert identity_sides(PellIdentity.SUM_P, 1) == (1, 1)
    assert identity_sides(PellIdentity.SUM_KP, 1) == (0, 0)
    left, right = identity_sides(PellIdentity.NESTED_Q, 6)
    assert left == right == q_value(6)
    assert identity_sides(PellIdentity.Q_PLUS_KP, 3) == (2, 2)


def test_identities_hold_up_to_40():
    for identity in PellIdentity:
        for n in range(IDENTITY_MIN_N[identity], 41):
            left, right = identity_sides(identity, n)
            assert left == right, (identity, n)


def test_identities_reject_out_of_range():
    with pytest.raises(RangeError):
        identity_sides(PellIdentity.SUM_P, 0)
    with pytest.raises(RangeError):
        identity_sides(PellIdentity.NESTED_Q, 2)


def test_row_validity_ranges_follow_the_table():
    by_id = {r.row_id: r.valid_from for r in TABLE_ROWS}
    assert by_id["321,1243"] == 2
    assert by_id["321,1324"] == 3
    assert by_id["321,1423,2143"] == 0
    assert by_id["321,1423,3124"] == 4
    assert by_id["321,14253"] == 1
    assert by_id["321,312"] == 1
