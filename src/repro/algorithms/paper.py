"""The paper's own algorithms as plain ``(MulticastSet) -> Schedule`` schedulers."""

from __future__ import annotations

from repro.core.greedy import greedy_schedule
from repro.core.leaf_reversal import greedy_with_reversal
from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule

__all__ = ["greedy", "greedy_reversed"]


def greedy(mset: MulticastSet) -> Schedule:
    """Plain greedy — layered, minimum D_T among layered schedules."""
    return greedy_schedule(mset)


def greedy_reversed(mset: MulticastSet) -> Schedule:
    """Greedy with the paper's practical leaf-reversal refinement."""
    return greedy_with_reversal(mset)
