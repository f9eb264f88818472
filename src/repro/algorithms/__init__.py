"""Multicast schedulers: the paper's algorithms plus related-work baselines.

All schedulers share the ``(MulticastSet) -> Schedule`` signature.  They
are registered by name in the package's one solver registry,
:mod:`repro.api.solvers`, and run by name through
``get_solver(name)(mset).schedule``:

========================  ====================================================
name                      algorithm
========================  ====================================================
``greedy``                the paper's O(n log n) greedy (Section 2)
``greedy+reversal``       greedy + Section 3 leaf reversal (the paper's pick)
``greedy+ls``             greedy + reversal + local search (extension)
``fnf``                   fastest-node-first of the node model [2, 9]
``binomial``              classic binomial tree [11]
``binomial-ff``           binomial tree, fastest-sender-first placement
``postal``                Bar-Noy/Kipnis postal-optimal shape [4]
``star``                  source-only sequential sends (best order)
``star-naive``            source-only sequential sends (fast-first order)
``chain``                 linear forwarding pipeline
``random``                seeded random recruitment tree
========================  ====================================================
"""

from repro.algorithms.paper import greedy, greedy_reversed
from repro.algorithms.baselines import (
    linear_chain,
    random_tree,
    sequential_star,
    sequential_star_naive,
)
from repro.algorithms.binomial import binomial, binomial_fastest_first, binomial_tree_children
from repro.algorithms.fnf import fastest_node_first
from repro.algorithms.local_search import (
    LocalSearchResult,
    improve_schedule,
    local_search_schedule,
)
from repro.algorithms.postal import effective_lambda, postal_count, postal_shape, postal_tree

__all__ = [
    "greedy",
    "greedy_reversed",
    "sequential_star",
    "sequential_star_naive",
    "linear_chain",
    "random_tree",
    "binomial",
    "binomial_fastest_first",
    "binomial_tree_children",
    "fastest_node_first",
    "postal_count",
    "postal_shape",
    "postal_tree",
    "effective_lambda",
    "LocalSearchResult",
    "improve_schedule",
    "local_search_schedule",
]
