import statistics

import pytest

import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # even the median has only five samples beyond it
        (20, 5000),
        (99, 5000),
        (100, 9000),
        (999, 9000),
        (1000, 9900),
        (9999, 9900),
        (10000, 9990),
        (100000, 9999),
    ],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_percentile_leaves_at_least_ten_beyond_the_rank():
    for n in range(1, 3000, 7):
        p = stats.tail_percentile(n)
        if p is None:
            continue
        values = list(range(n))
        beyond = sum(v > stats.percentile(values, p) for v in values)
        assert beyond >= 10
        higher = [q for q in stats.LADDER if q > p]
        if higher:
            q = higher[0]
            assert sum(v > stats.percentile(values, q) for v in values) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 5000) == 50
    assert stats.percentile(values, 9900) == 99
    assert stats.percentile([3.0], 9900) == 3.0
    assert stats.percentile_name(9990) == "p99.9"


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.3, 1.0, 1.2, 0.95, 1.05, 1.15, 0.85]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / med)
