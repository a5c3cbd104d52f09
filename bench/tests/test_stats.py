import pytest

from bench import stats


def test_median_of_twenty_samples_is_allowed():
    assert stats.percentile(list(range(1, 21)), 50) == 10


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(19)), 50)
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(1, 101)), 90) == 90


def test_tail_is_the_highest_percentile_the_sample_supports():
    assert stats.tail(list(range(1, 1001)))[0] == 99
    assert stats.tail(list(range(1, 201)))[0] == 95
    assert stats.tail(list(range(1, 101)))[0] == 90
    assert stats.tail(list(range(1, 41)))[0] == 75
    assert stats.tail(list(range(1, 22))) == (50, 11)
