"""Local-search schedule improvement (an upper-bound tightener).

The paper proves greedy (+ reversal) is within a constant factor of optimal
and asks (Section 5) whether better approximation algorithms exist.  This
module contributes a simple, deterministic hill-climber over schedules that
the experiment harness uses to tighten the *empirical* optimality gap on
instances too large for exact solvers:

* **node swap** — exchange the tree positions of two destinations (their
  subtrees stay with the positions, cf. the Lemma 2 interchange);
* **subtree reattach** — detach a subtree and append it as the last child
  of another node (not inside the detached subtree).

Moves are scanned in a fixed order and applied first-improvement; the
search stops at a local optimum or after ``max_rounds`` passes.  The result
is never worse than the seed (the seed is kept when no move helps).

Neighborhood reduction (lossless).  ``R_T`` equals the value of the
*critical chain* — the root-to-node path realizing the maximum reception
time.  A move can only reduce ``R_T`` if it changes some critical chain's
timing, which requires either (a) swapping a node that sits *on* a chain,
or (b) reattaching a node that sits on a chain or is an earlier sibling of
a chain node (its removal shifts the chain node's send slot down).  All
other moves leave every chain intact and therefore cannot improve, so the
scan enumerates only these candidates — the search visits the exact same
sequence of improving schedules as the full O(n^2) neighborhood at a
fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.leaf_reversal import greedy_with_reversal, reverse_leaves
from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule

__all__ = ["improve_schedule", "local_search_schedule", "LocalSearchResult"]


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a local-search run."""

    schedule: Schedule
    rounds: int
    moves_applied: int
    seed_value: float

    @property
    def improvement(self) -> float:
        """Absolute completion-time gain over the seed schedule."""
        return self.seed_value - self.schedule.reception_completion


def _plain_children(schedule: Schedule) -> Dict[int, List[int]]:
    return {
        parent: [child for child, _slot in kids]
        for parent, kids in schedule.children.items()
    }


def _swap_nodes(
    children: Dict[int, List[int]], a: int, b: int
) -> Dict[int, List[int]]:
    """Exchange the tree positions of nodes ``a`` and ``b``."""
    def m(v: int) -> int:
        return b if v == a else a if v == b else v

    return {m(p): [m(c) for c in kids] for p, kids in children.items()}


def _reattach(
    children: Dict[int, List[int]], node: int, new_parent: int
) -> Optional[Dict[int, List[int]]]:
    """Move ``node`` (with its subtree) under ``new_parent``; None if cyclic."""
    # forbid reattaching beneath the moved subtree
    stack, subtree = [node], {node}
    while stack:
        v = stack.pop()
        for c in children.get(v, ()):
            subtree.add(c)
            stack.append(c)
    if new_parent in subtree:
        return None
    out = {p: list(kids) for p, kids in children.items()}
    for p, kids in out.items():
        if node in kids:
            kids.remove(node)
            break
    out.setdefault(new_parent, []).append(node)
    return {p: kids for p, kids in out.items() if kids}


def _critical_candidates(schedule: Schedule) -> Tuple[List[int], List[int]]:
    """Nodes whose moves can lower ``R_T``.

    Returns ``(chain_nodes, reattach_candidates)``: one critical chain
    (non-root), and additionally the earlier siblings of chain nodes
    (whose removal shifts a chain node's slot down).  One chain suffices:
    an improving move must lower *every* maximizer, in particular this
    chain's, so it must involve these nodes — the restriction loses no
    improving move even when the maximum is tied.
    """
    n = schedule.multicast.n
    last = max(range(1, n + 1), key=lambda v: (schedule.reception_time(v), -v))
    chain: set[int] = set()
    w = last
    while w != 0:
        chain.add(w)
        w = schedule.parent_of(w)
    reattach = set(chain)
    for v in chain:
        parent = schedule.parent_of(v)
        slot_v = schedule.slot_of(v)
        for sibling, slot in schedule.children_of(parent):
            if slot < slot_v:
                reattach.add(sibling)
    return sorted(chain), sorted(reattach)


def improve_schedule(
    seed: Schedule,
    *,
    max_rounds: int = 25,
    apply_reversal: bool = True,
) -> LocalSearchResult:
    """First-improvement hill climbing from ``seed``.

    Parameters
    ----------
    seed:
        Starting schedule (must be canonical; slotted schedules are
        compacted first — compaction never increases times).
    max_rounds:
        Full neighborhood sweeps before giving up.
    apply_reversal:
        Run the Section 3 leaf reversal after every accepted move (cheap
        and never hurts), and once on the final schedule.
    """
    mset = seed.multicast
    current = seed.compact() if not seed.is_canonical() else seed
    if apply_reversal:
        current = reverse_leaves(current)
    best_value = current.reception_completion
    seed_value = min(seed.reception_completion, best_value)
    n = mset.n
    moves_applied = 0
    rounds = 0

    def accept(candidate: Schedule) -> bool:
        nonlocal current, best_value, moves_applied
        if apply_reversal:
            candidate = reverse_leaves(candidate)
        if candidate.reception_completion < best_value - 1e-12:
            current = candidate
            best_value = candidate.reception_completion
            moves_applied += 1
            return True
        return False

    for rounds in range(1, max_rounds + 1):
        improved = False
        # --- node swaps (one endpoint on a critical chain) ----------------
        chain_nodes, reattach_nodes = _critical_candidates(current)
        for a in chain_nodes:
            children = _plain_children(current)
            for b in range(1, n + 1):
                if b == a or mset.node(a).type_key == mset.node(b).type_key:
                    continue  # identical types: swap cannot change times
                if accept(Schedule(mset, _swap_nodes(children, a, b))):
                    improved = True
                    break  # current changed; rebuild children / candidates
        # --- subtree reattachments ----------------------------------------
        _, reattach_nodes = _critical_candidates(current)
        for node in reattach_nodes:
            children = _plain_children(current)
            for new_parent in range(0, n + 1):
                if new_parent == node:
                    continue
                moved = _reattach(children, node, new_parent)
                if moved is None:
                    continue
                if accept(Schedule(mset, moved)):
                    improved = True
                    break
        if not improved:
            break
    return LocalSearchResult(
        schedule=current,
        rounds=rounds,
        moves_applied=moves_applied,
        seed_value=seed_value,
    )


def local_search_schedule(mset: MulticastSet) -> Schedule:
    """Greedy + reversal seed, improved by hill climbing."""
    return improve_schedule(greedy_with_reversal(mset)).schedule
