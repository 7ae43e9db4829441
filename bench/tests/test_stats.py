"""Percentile and spread arithmetic."""

import pytest

from bench.stats import percentile, quartile_spread


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))  # 1..100, already ascending
    assert percentile(data, 50) == 50
    assert percentile(data, 95) == 95
    assert percentile(data, 100) == 100
    assert percentile(data, 0.5) == 1


def test_percentile_returns_a_measured_value():
    # two modes: an interpolating p50 would invent 55, nearest-rank does not
    assert percentile([10, 10, 100, 100], 50) == 10
    assert percentile([10, 10, 100, 100], 51) == 100
    assert percentile([7], 95) == 7


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_spreads():
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    # statistics.quantiles(n=4), exclusive method: q1 = 92.5, q3 = 107.5
    assert quartile_spread(values) == pytest.approx(0.15)
    assert quartile_spread([5.0, 5.0, 5.0]) == 0.0
