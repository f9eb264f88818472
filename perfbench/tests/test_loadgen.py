"""Tests for the load generator's bookkeeping (``python -m pytest perfbench``)."""

from collections import Counter

from perfbench.loadgen import LoadResult


def test_failed_ops_have_no_latency_and_stay_attempted():
    result = LoadResult(
        records=[
            (0, "a", 10.0, 0.004, 0.003),
            (1, None, None, None, None),
            (2, "c", 10.1, 0.002, 0.002),
        ],
        failures=Counter({"ServiceError": 1}),
    )
    assert result.attempted == 3
    assert result.failed == 1
    assert result.served == [(0, "a"), (1, None), (2, "c")]
    assert result.latencies_s == [0.004, 0.002]
    assert result.cpu_latencies_s == [(10.0, 0.003), (10.1, 0.002)]
