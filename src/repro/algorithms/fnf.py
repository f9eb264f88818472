"""Fastest-node-first under the heterogeneous *node* model — the [2] baseline.

Banikazemi, Moorthy & Panda [2] schedule multicasts for the single-cost
node model (each node only has a message initiation cost) with a greedy
that serves the fastest uninformed node from the earliest-available sender.
E7 evaluates the tree that algorithm builds — seeing only the send
overheads — under the paper's full receive-send model.  The measured gap to
the paper's greedy is precisely the value of modelling receive overheads
and latency (the paper's Section 1 argument for the richer model of [3]).
"""

from __future__ import annotations

from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule
from repro.model.heterogeneous_node import node_model_schedule

__all__ = ["fastest_node_first"]


def fastest_node_first(mset: MulticastSet) -> Schedule:
    """Tree of the node-model greedy, timed with receive-send semantics."""
    return node_model_schedule(mset)
