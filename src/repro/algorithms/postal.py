"""Postal-model broadcast (Bar-Noy & Kipnis [4]) as a baseline scheduler.

The postal model abstracts a homogeneous message-passing system by a single
latency parameter ``lambda``: a sender is busy for 1 time unit per message
and the message arrives ``lambda`` units after the send starts.  Bar-Noy &
Kipnis give the optimal broadcast tree via the recurrence::

    N(t) = 1                      for 0 <= t < lambda
    N(t) = N(t-1) + N(t-lambda)   for t >= lambda

(``N(t)`` = nodes informable within ``t``; for ``lambda = 2`` these are the
Fibonacci numbers).  The optimal tree has every informed node transmitting
back-to-back, first transmissions rooting the largest subtrees.

As an E7 baseline we fit the homogeneous postal abstraction to a
heterogeneous instance — one unit = the mean send overhead, ``lambda`` =
the mean source-to-reception delay in those units — build the optimal
postal *shape*, map the fastest workstations onto the earliest-informed
(busiest) positions, and evaluate under the true receive-send model.  The
gap to the paper's greedy measures what the homogeneous abstraction loses.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule
from repro.exceptions import SolverError

__all__ = ["postal_count", "postal_shape", "postal_tree", "effective_lambda"]


@lru_cache(maxsize=None)
def postal_count(t: int, lam: int) -> int:
    """``N(t)``: nodes informable within ``t`` time units (root included)."""
    if lam < 1:
        raise SolverError(f"lambda must be >= 1, got {lam}")
    if t < 0:
        return 0
    if t < lam:
        return 1
    return postal_count(t - 1, lam) + postal_count(t - lam, lam)


def postal_shape(m: int, lam: int) -> Tuple[List[int], List[float]]:
    """Optimal postal broadcast shape covering ``m`` nodes.

    Returns ``(parents, arrivals)`` indexed by position in creation order;
    position 0 is the root (``parents[0] = -1``, ``arrivals[0] = 0``).
    The shape finishes at the minimal horizon ``T`` with ``N(T) >= m``.
    """
    if m < 1:
        raise SolverError(f"need at least the root, got m={m}")
    horizon = 0
    while postal_count(horizon, lam) < m:
        horizon += 1
    parents: List[int] = [-1]
    arrivals: List[float] = [0.0]

    def build(pos: int, budget: int, size: int) -> None:
        need = size - 1
        send_index = 0
        while need > 0:
            child_budget = budget - send_index - lam
            if child_budget < 0:  # pragma: no cover - capacity invariant
                raise SolverError("postal shape construction ran out of budget")
            take = min(postal_count(child_budget, lam), need)
            if take == 0:
                send_index += 1
                continue
            child = len(parents)
            parents.append(pos)
            arrivals.append(arrivals[pos] + send_index + lam)
            build(child, child_budget, take)
            need -= take
            send_index += 1

    build(0, horizon, m)
    return parents, arrivals


def effective_lambda(mset: MulticastSet) -> int:
    """Fit the postal ``lambda`` to a receive-send instance.

    One postal unit = the mean send overhead; a full transfer takes
    ``o_send + L + o_receive``, so ``lambda ~= (mean_send + L + mean_recv) /
    mean_send``, rounded and clamped to ``>= 1``.
    """
    sends = [mset.send(i) for i in range(mset.n + 1)]
    recvs = [mset.receive(i) for i in range(mset.n + 1)]
    mean_send = sum(sends) / len(sends)
    mean_recv = sum(recvs) / len(recvs)
    return max(1, round((mean_send + mset.latency + mean_recv) / mean_send))


def postal_tree(mset: MulticastSet) -> Schedule:
    """Postal-optimal shape, fastest nodes on earliest-informed positions."""
    lam = effective_lambda(mset)
    parents, arrivals = postal_shape(mset.n + 1, lam)
    # earliest-informed positions do the most sending -> give them the
    # fastest workstations; destinations are already fastest-first
    order = sorted(range(1, len(parents)), key=lambda p: (arrivals[p], p))
    node_at_pos = {0: 0}
    for dest_index, pos in enumerate(order, start=1):
        node_at_pos[pos] = dest_index
    children: Dict[int, List[int]] = {}
    for pos in range(1, len(parents)):  # creation order == send order per parent
        children.setdefault(node_at_pos[parents[pos]], []).append(node_at_pos[pos])
    return Schedule(mset, children)
