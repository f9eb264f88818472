"""Structure-oblivious baseline schedulers.

These are the "what anyone would try first" comparison points of the E7
model-comparison experiment:

* **sequential star** — the source sends every message itself ("only
  point-to-point communication is supported" done naively, cf. Section 1's
  motivation);
* **linear chain** — each node forwards to exactly one successor (maximal
  pipelining, no fan-out);
* **random tree** — seeded uniformly random recruitment, the null model
  separating "any tree" from "a good tree".

Each is evaluated under the full receive-send model; their gaps to the
paper's greedy quantify how much heterogeneity-awareness and fan-out
scheduling buy.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule

__all__ = ["sequential_star", "sequential_star_naive", "linear_chain", "random_tree"]


def sequential_star(mset: MulticastSet) -> Schedule:
    """Star with the optimal transmission order.

    For a fixed star the delivery time of the i-th transmission is fixed,
    so pairing slots (ascending) with receive overheads (descending)
    minimizes ``R_T`` — the same rearrangement argument as leaf reversal.
    """
    order = sorted(range(1, mset.n + 1), key=lambda i: (-mset.receive(i), i))
    return Schedule(mset, {0: order})


def sequential_star_naive(mset: MulticastSet) -> Schedule:
    """Star serving fast nodes first — the worst natural ordering."""
    return Schedule(mset, {0: list(range(1, mset.n + 1))})


def linear_chain(mset: MulticastSet) -> Schedule:
    """Each node forwards to the next; fast nodes placed early in the chain.

    Destinations are chained in canonical order (non-decreasing overhead):
    early chain positions relay the message onward, so they should be the
    fast senders — the chain analogue of layering.
    """
    children = {i: [i + 1] for i in range(0, mset.n)}
    return Schedule(mset, children)


def random_tree(mset: MulticastSet, seed: int = 0) -> Schedule:
    """A uniformly random recruitment tree (seeded, deterministic).

    Destinations join in a random order; each attaches to a uniformly
    random already-informed node.  This is the "no scheduling at all" null
    baseline.
    """
    rng = random.Random(seed)
    order = list(range(1, mset.n + 1))
    rng.shuffle(order)
    in_tree: List[int] = [0]
    children: dict[int, List[int]] = {}
    for node in order:
        parent = rng.choice(in_tree)
        children.setdefault(parent, []).append(node)
        in_tree.append(node)
    return Schedule(mset, children)
