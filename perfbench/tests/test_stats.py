"""Tests for the benchmark's own helpers (``python -m pytest perfbench``)."""

import math

import pytest

from perfbench import stats


class TestTailPercentile:
    def test_p99_needs_a_thousand_samples(self):
        assert stats.tail_percentile(1000) == 99.0
        assert stats.tail_percentile(999) == 95.0

    def test_the_tail_stops_at_p99(self):
        assert stats.tail_percentile(10000) == 99.0
        assert stats.tail_percentile(10**6) == 99.0

    def test_at_least_ten_samples_beyond(self):
        for count in (20, 100, 200, 999, 1000, 5000, 10000, 25000):
            pct = stats.tail_percentile(count)
            beyond = count - math.ceil(count * pct / 100)
            assert beyond >= stats.MIN_BEYOND

    def test_too_few_samples(self):
        assert stats.tail_percentile(19) is None
        assert stats.tail_percentile(20) == 50.0


class TestLatencySummary:
    def test_p50_and_p99_of_a_known_distribution(self):
        latencies = [i / 1000 for i in range(1, 1001)]  # 1 ms .. 1000 ms
        p50, tail, pct, count = stats.latency_summary(latencies, failed=0)
        assert (pct, count) == (99.0, 1000)
        assert p50 == pytest.approx(500.0) and tail == pytest.approx(990.0)

    def test_failed_ops_count_as_missing_the_limit(self):
        latencies = [0.001] * 990
        p50, tail, pct, count = stats.latency_summary(latencies, failed=10)
        assert count == 1000 and pct == 99.0
        assert p50 == 1.0
        assert tail == 1.0  # rank 990 is still a completed op
        _p50, tail, _pct, _count = stats.latency_summary(latencies, failed=11)
        assert tail == math.inf
        _p50, tail, _pct, _count = stats.latency_summary(
            latencies, failed=11, failed_s=60.0
        )
        assert tail == 60000.0

    def test_failures_join_the_sample_count(self):
        _p50, _tail, pct, count = stats.latency_summary([0.001] * 995, failed=5)
        assert (pct, count) == (99.0, 1000)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            stats.latency_summary([], failed=0)
        with pytest.raises(ValueError):
            stats.latency_summary([0.001] * 5, failed=0)


class TestShardBalance:
    def test_even_dispatch_is_one(self):
        assert stats.shard_balance({"shard_0": 5, "shard_1": 5, "requests": 99}) == 1.0

    def test_max_over_mean(self):
        counters = {"shard_0": 6, "shard_1": 2, "shard_2": 0, "shard_3": 0}
        assert stats.shard_balance(counters) == 3.0

    def test_idle_shards_are_balanced(self):
        assert stats.shard_balance({"shard_0": 0, "shard_1": 0}) == 1.0

    def test_no_shard_counters(self):
        with pytest.raises(ValueError):
            stats.shard_balance({"requests": 3})

    def test_dispatched_sums_only_shard_counters(self):
        assert stats.dispatched({"shard_0": 2, "shard_1": 3, "solves": 5}) == 5


class TestResidual:
    def test_median_end_to_end_minus_median_stage_sum(self):
        end_to_end = [0.004, 0.005, 0.006]
        stage_sums = [0.001, 0.002, 0.003, 0.010]
        assert stats.residual_us(end_to_end, stage_sums) == pytest.approx(2500.0)

    def test_negative_residual_is_reported_not_clamped(self):
        assert stats.residual_us([0.001], [0.002]) == pytest.approx(-1000.0)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            stats.residual_us([], [0.001])


def test_ratio_of_nothing_is_none():
    assert stats.ratio(0, 0) is None
    assert stats.ratio(1, 4) == 0.25
