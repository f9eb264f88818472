"""Broadcast: multicast to the whole cluster.

Thin convenience layer: a broadcast is a multicast whose destination set is
everyone except the source.  Algorithms are selected from the registry.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.solvers import get_solver
from repro.core.node import Node
from repro.core.schedule import Schedule
from repro.workloads.generator import multicast_from_cluster

__all__ = ["broadcast_schedule", "broadcast_completion"]


def broadcast_schedule(
    nodes: Sequence[Node],
    source_name: str,
    *,
    latency: float = 1,
    algorithm: str = "greedy+reversal",
) -> Schedule:
    """Schedule a broadcast from the named node to the rest of the cluster."""
    names = [nd.name for nd in nodes]
    src = names.index(source_name)
    ordered = [nodes[src]] + [nd for i, nd in enumerate(nodes) if i != src]
    mset = multicast_from_cluster(ordered, latency=latency, source="first")
    return get_solver(algorithm)(mset).schedule


def broadcast_completion(
    nodes: Sequence[Node],
    source_name: str,
    *,
    latency: float = 1,
    algorithm: str = "greedy+reversal",
) -> float:
    """Completion time of :func:`broadcast_schedule` (convenience)."""
    return broadcast_schedule(
        nodes, source_name, latency=latency, algorithm=algorithm
    ).reception_completion
