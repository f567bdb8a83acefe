import math

import pytest

from symlab import (corona_cost_bound, corona_determining_number,
                    corona_pendant_determining_number, friendship_cost,
                    friendship_determining_number, friendship_distinguishing_number,
                    friendship_gap, friendship_threshold)
from symlab.families import OutOfRangeError


def ceil_half_one_plus_sqrt(x: int) -> int:
    """Exact integer ceiling of (1 + sqrt(x)) / 2, via isqrt."""
    t = math.isqrt(x)
    if t * t == x:
        return (t + 2) // 2
    return (t + 2) // 2 if t % 2 == 0 else (t + 3) // 2


def test_distinguishing_number_values():
    assert friendship_distinguishing_number(2) == 3
    assert friendship_distinguishing_number(3) == 3
    assert friendship_distinguishing_number(15) == 6
    with pytest.raises(OutOfRangeError):
        friendship_distinguishing_number(1)


def test_distinguishing_number_matches_radical_form():
    for n in range(2, 1_000_001):
        assert friendship_distinguishing_number(n) == ceil_half_one_plus_sqrt(8 * n + 1)


def test_threshold_values():
    assert friendship_threshold(3) == 2
    assert friendship_threshold(4) == 4
    assert friendship_threshold(5) == 7
    with pytest.raises(OutOfRangeError):
        friendship_threshold(2)


def test_threshold_is_least_n_at_each_level():
    for j in (3, 4, 5):
        first = min(n for n in range(2, 60) if friendship_distinguishing_number(n) == j)
        assert first == friendship_threshold(j)
        # one short of the next threshold bumps the level
        assert friendship_distinguishing_number(friendship_threshold(j) + j - 1) == j + 1


def test_cost_values():
    assert friendship_cost(2) == 1
    assert friendship_cost(4) == 1
    assert friendship_cost(6) == 3
    # offset + 1 throughout one level
    assert [friendship_cost(n) for n in (4, 5, 6)] == [1, 2, 3]


def test_determining_number_is_n():
    for n in (2, 5, 17):
        assert friendship_determining_number(n) == n


def test_gap_values():
    assert friendship_gap(2) == 1
    assert friendship_gap(3) == 1
    assert friendship_gap(4) == 3
    # gap depends only on the level: threshold - 1
    for n in range(2, 40):
        j = friendship_distinguishing_number(n)
        assert friendship_gap(n) == friendship_threshold(j) - 1


def test_corona_formulas():
    assert corona_determining_number(1, 3, 1) == 4
    assert corona_determining_number(0, 5, 2) == 10
    assert corona_pendant_determining_number(1) == 1
    assert corona_cost_bound(1, 3, 1) == 4


def test_facts_bundle():
    # n = 6 needs 4 labels, the 4-label band starts at n = 4, so the offset
    # into the band is 2 and the cost is 3
    j = friendship_distinguishing_number(6)
    assert (j, friendship_threshold(j), friendship_cost(6)) == (4, 4, 3)
    assert friendship_determining_number(6) == 6
    for n in range(2, 60):
        j = friendship_distinguishing_number(n)
        offset = n - friendship_threshold(j)
        assert friendship_threshold(j) <= n < friendship_threshold(j + 1)
        assert 0 <= offset <= j - 2
        assert friendship_cost(n) == offset + 1
