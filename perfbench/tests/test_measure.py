"""The percentile rule: median plus the highest percentile with at
least ten samples beyond it, capped at the workload's level."""

import pytest

from measure import MIN_BEYOND, median, percentile, rank, tail, tail_level


def test_tail_omitted_below_eleven_samples():
    for n in range(0, MIN_BEYOND + 1):
        assert tail_level(n) is None
        assert tail(list(range(n)), 0.99) is None


def test_eleven_samples_leave_exactly_ten_beyond():
    values = list(range(11))
    level, value = tail(values, 0.99)
    assert value == 0
    assert 11 - rank(11, level) == MIN_BEYOND


@pytest.mark.parametrize("n", [11, 20, 41, 100, 101, 1000, 1001, 5000])
def test_every_tail_has_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    level, value = tail(values, 0.99)
    beyond = sum(1 for v in values if v > value)
    assert beyond >= MIN_BEYOND


def test_workload_level_is_kept_when_samples_suffice():
    values = list(range(2000))
    assert tail(values, 0.99) == (0.99, 1979)
    assert tail(values, 0.75)[0] == 0.75


def test_level_is_lowered_when_samples_are_short():
    level, _ = tail(list(range(50)), 0.99)
    assert level == pytest.approx(0.8)


def test_median_and_percentile():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    assert percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert percentile([5, 1, 4, 2, 3], 1.0) == 5
    with pytest.raises(ValueError):
        median([])
