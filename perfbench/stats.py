"""Small, pure helpers for turning samples into reported metrics.

Kept free of service imports so the rules they implement (the tail
percentile, failure accounting, shard balance, the server residual) are
unit-tested on their own in ``perfbench/tests``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for the reported tail, highest first.  The tail
#: is reported as a p99, so it stops there even with 10000 samples or more.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 50.0)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``count`` samples strictly beyond it, or ``None``.

    p99 needs at least 1000 samples.
    """
    for pct in TAIL_PERCENTILES:
        beyond = count - math.ceil(count * pct / 100.0)
        if beyond >= MIN_BEYOND:
            return pct
    return None


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (may hold ``inf``)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(sorted_values) * pct / 100.0))
    return sorted_values[rank - 1]


def latency_summary(
    latencies_s: Iterable[float], failed: int, failed_s: float = math.inf
) -> Tuple[float, float, float, int]:
    """``(p50_ms, tail_ms, tail_pct, samples)`` over completed and failed ops.

    A failed operation has no latency, so it counts as missing any limit:
    it enters the distribution as ``failed_s``, longer than any completed
    op (the client's timeout, or ``inf``).  The tail is the percentile
    chosen by :func:`tail_percentile` for the total sample count; when
    failures reach it, the tail reads ``failed_s``.
    """
    values = sorted(latencies_s)
    values.extend([failed_s] * failed)
    count = len(values)
    if count == 0:
        raise ValueError("no operations were attempted")
    pct = tail_percentile(count)
    if pct is None:
        raise ValueError(
            f"{count} samples are too few for a tail percentile with "
            f"{MIN_BEYOND} samples beyond it"
        )
    return (
        percentile(values, 50.0) * 1e3,
        percentile(values, pct) * 1e3,
        pct,
        count,
    )


def _shard_counts(counters: Dict[str, float]) -> List[float]:
    counts = [v for k, v in counters.items() if k.startswith("shard_")]
    if not counts:
        raise ValueError("no shard_<i> counters in the snapshot")
    return counts


def dispatched(counters: Dict[str, float]) -> float:
    """Solves dispatched to shards, summed over the ``shard_<i>`` counters."""
    return sum(_shard_counts(counters))


def shard_balance(counters: Dict[str, float]) -> float:
    """max / mean of the ``shard_<i>`` dispatch counters (1.0 = even).

    Returns ``1.0`` when no shard dispatched anything (nothing to skew).
    """
    counts = _shard_counts(counters)
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 1.0
    return max(counts) / mean


def residual_us(end_to_end_s: Sequence[float], stage_sums_s: Sequence[float]) -> float:
    """Median end-to-end time minus the median replayed stage sum, in µs.

    What the replay cannot see — sockets, the event loop, executor hops —
    is what is left.  A negative value means the replay overstates the
    stages (or the real run was faster than its parts) and is flagged by
    the caller, not clamped.
    """
    if not end_to_end_s or not stage_sums_s:
        raise ValueError("residual needs end-to-end and stage samples")
    return (statistics.median(end_to_end_s) - statistics.median(stage_sums_s)) * 1e6


def ratio(numerator: float, denominator: float) -> Optional[float]:
    """``numerator / denominator``, or ``None`` when nothing was attempted."""
    if denominator == 0:
        return None
    return numerator / denominator
