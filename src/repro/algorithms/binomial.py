"""Binomial-tree broadcast — the classic homogeneous-optimal shape.

In the one-port homogeneous model (Johnsson & Ho [11]) the binomial tree is
the optimal broadcast: in each round every informed node informs one new
node, doubling the informed set.  MPI implementations still default to it
for short messages.  It ignores heterogeneity entirely, which is exactly
why it is a baseline here: under the receive-send model a slow node
recruited early throttles its whole subtree.

Two placements are provided:

* ``binomial`` — nodes placed in canonical index order (source, then the
  sorted destinations), the straightforward port of the homogeneous
  algorithm;
* ``binomial-ff`` — *fastest-first*: the destination list is sorted so the
  largest subtrees go to the fastest nodes, a cheap heterogeneity patch
  that E7 shows is still far from greedy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule

__all__ = ["binomial_tree_children", "binomial", "binomial_fastest_first"]


def binomial_tree_children(ids: Sequence[int]) -> Dict[int, List[int]]:
    """Binomial recruitment tree over ``ids`` (``ids[0]`` is the root).

    Round structure: after round ``r`` the first ``2**r`` entries are
    informed; in round ``r+1`` entry ``i`` informs entry ``i + 2**r``.
    Children are listed in the order the parent sends to them.
    """
    children: Dict[int, List[int]] = {}
    informed = 1
    while informed < len(ids):
        for i in range(min(informed, len(ids) - informed)):
            children.setdefault(ids[i], []).append(ids[i + informed])
        informed *= 2
    return children


def binomial(mset: MulticastSet) -> Schedule:
    """Binomial tree; canonical order (fast destinations recruited first)."""
    return Schedule(mset, binomial_tree_children(list(range(mset.n + 1))))


def binomial_fastest_first(mset: MulticastSet) -> Schedule:
    """Binomial tree with destinations ordered by *send* overhead.

    Equivalent to ``binomial`` on correlated instances (the canonical order
    already sorts by send overhead); differs — and helps — when the
    correlation assumption is disabled and receive order disagrees with
    send order.
    """
    order = sorted(range(1, mset.n + 1), key=lambda i: (mset.send(i), i))
    return Schedule(mset, binomial_tree_children([0] + order))
