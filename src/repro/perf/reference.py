"""Frozen pre-optimization kernels: the perf subsystem's oracle and yardstick.

These are verbatim copies of the DP and greedy implementations as they
stood before the iterative-table / trusted-construction optimizations in
:mod:`repro.core.dp` and :mod:`repro.core.greedy`, and of the eager
canonical-form derivation :mod:`repro.core.canonical` used before its key
was hashed straight from the instance's overheads.  They exist for two
reasons:

* **bit-identity** — the optimized kernels must return *exactly* the same
  values and schedules (``tests/perf/test_reference_identity.py`` sweeps
  the full conformance ``quick`` corpus asserting ``==`` on floats and
  schedule trees);
* **speedup accounting** — the ``dp_scaling``, ``greedy_scaling`` and
  ``canonical_key`` perf kernels time these references alongside the
  optimized code and stamp ``speedup_vs_reference`` into every
  ``BENCH_*.json`` record, where the committed floors (``>= 3x`` DP,
  ``>= 2x`` greedy and canonical key) are enforced machine-independently
  by ``perf compare``.

Nothing here is exported through :mod:`repro.api`; production code must
never import the reference kernels.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

import heapq

from repro.core.dp import TypeSystem
from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.core.schedule import Schedule

__all__ = [
    "ReferenceCanonicalForm",
    "ReferenceDPCore",
    "reference_canonicalize",
    "reference_solve_dp",
    "reference_greedy_schedule",
]

Counts = Tuple[int, ...]
Choice = Optional[Tuple[int, Counts]]


class ReferenceDPCore:
    """The seed's recursive, dict-memoized Lemma 4 recurrence engine."""

    def __init__(self, types: TypeSystem, latency: float) -> None:
        self.types = types
        self.latency = latency
        self.memo: Dict[Tuple[int, Counts], Tuple[float, Choice]] = {}

    def tau(self, s: int, counts: Counts) -> float:
        """``tau(s, i_1..i_k)`` with memoization (recursive form)."""
        got = self.memo.get((s, counts))
        if got is not None:
            return got[0]
        if not any(counts):
            self.memo[(s, counts)] = (0.0, None)
            return 0.0
        value, choice = self._best(s, counts)
        self.memo[(s, counts)] = (value, choice)
        return value

    def _best(self, s: int, counts: Counts) -> Tuple[float, Choice]:
        ts = self.types
        L = self.latency
        S_s = ts.send(s)
        best = float("inf")
        best_choice: Choice = None
        k = ts.k
        for ell in range(k):
            if counts[ell] < 1:
                continue
            first_fixed = S_s + L + ts.receive(ell)
            ranges = [
                range(counts[j] + 1) if j != ell else range(counts[ell])
                for j in range(k)
            ]
            for y in product(*ranges):
                rest = tuple(
                    counts[j] - y[j] - (1 if j == ell else 0) for j in range(k)
                )
                candidate = max(
                    self.tau(ell, y) + first_fixed,
                    self.tau(s, rest) + S_s,
                )
                if candidate < best:
                    best = candidate
                    best_choice = (ell, y)
        return best, best_choice

    def typed_children(self, s: int, counts: Counts) -> List[Tuple[int, Counts]]:
        """Delivery-ordered children of a type-``s`` root covering ``counts``."""
        out: List[Tuple[int, Counts]] = []
        cur = counts
        while any(cur):
            value_choice = self.memo.get((s, cur))
            if value_choice is None:
                self.tau(s, cur)
                value_choice = self.memo[(s, cur)]
            choice = value_choice[1]
            assert choice is not None
            ell, y = choice
            out.append((ell, y))
            cur = tuple(
                cur[j] - y[j] - (1 if j == ell else 0) for j in range(self.types.k)
            )
        return out


def _bind_schedule(
    core: ReferenceDPCore, mset: MulticastSet, source_type: int, counts: Counts
) -> Schedule:
    pools: Dict[int, List[int]] = {
        t: list(reversed(idxs)) for t, idxs in mset.destinations_by_type().items()
    }
    children: Dict[int, List[int]] = {}

    def expand(node_index: int, node_type: int, node_counts: Counts) -> None:
        kids = core.typed_children(node_type, node_counts)
        bound: List[Tuple[int, int, Counts]] = []
        for child_type, child_counts in kids:
            child_index = pools[child_type].pop()
            bound.append((child_index, child_type, child_counts))
        children[node_index] = [b[0] for b in bound]
        for child_index, child_type, child_counts in bound:
            expand(child_index, child_type, child_counts)

    expand(0, source_type, counts)
    return Schedule(mset, {p: kids for p, kids in children.items() if kids})


def reference_solve_dp(mset: MulticastSet) -> Tuple[float, Schedule]:
    """The seed ``solve_dp``: recursive memoized DP plus reconstruction."""
    types = TypeSystem.of(mset)
    counts = mset.destination_type_counts()
    core = ReferenceDPCore(types, mset.latency)
    source_type = mset.type_of(0)
    value = core.tau(source_type, counts)
    schedule = _bind_schedule(core, mset, source_type, counts)
    return value, schedule


def reference_greedy_schedule(mset: MulticastSet) -> Schedule:
    """The seed greedy loop: pop + two pushes, method-call overhead reads."""
    n = mset.n
    L = mset.latency
    children: List[List[int]] = [[] for _ in range(n + 1)]
    heap: List[Tuple[float, int, int]] = []
    tick = 0
    heapq.heappush(heap, (mset.send(0) + L, tick, 0))
    for i in range(1, n + 1):
        c, _t, p = heapq.heappop(heap)
        children[p].append(i)
        reception = c + mset.receive(i)
        tick += 1
        heapq.heappush(heap, (reception + mset.send(i) + L, tick, i))
        tick += 1
        heapq.heappush(heap, (c + mset.send(p), tick, p))
    return Schedule(mset, {v: kids for v, kids in enumerate(children) if kids})


# ----------------------------------------------------------------------
# canonical form: the eager derivation
# ----------------------------------------------------------------------
_SMALLEST_NORMAL = 2.2250738585072014e-308


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:32]


@dataclass(frozen=True)
class ReferenceCanonicalForm:
    """Every field of the eager canonical form, computed up front."""

    mset: MulticastSet
    scale: float
    key: str
    network_key: str


def reference_canonicalize(mset: MulticastSet) -> ReferenceCanonicalForm:
    """The eager canonical form: validated nodes, a second instance, two
    digests — all built before the key is known."""
    nodes = mset.nodes
    largest = max(mset.latency, *(nd.send_overhead for nd in nodes),
                  *(nd.receive_overhead for nd in nodes))
    smallest = min(mset.latency, *(nd.send_overhead for nd in nodes),
                   *(nd.receive_overhead for nd in nodes))
    shift = math.frexp(largest)[1] - 1
    if math.ldexp(float(smallest), -shift) < _SMALLEST_NORMAL:
        shift = 0  # pragma: no cover - pathological >2^1000 dynamic range

    def down(value: float) -> float:
        return math.ldexp(float(value), -shift)

    source = Node("p0", down(mset.source.send_overhead),
                  down(mset.source.receive_overhead))
    dests = [
        Node(f"d{i}", down(d.send_overhead), down(d.receive_overhead))
        for i, d in enumerate(mset.destinations, start=1)
    ]
    latency = down(mset.latency)
    canonical = MulticastSet(source, dests, latency, validate_correlation=False)
    key = _digest(
        {
            "v": "repro/canonical-v1",
            "latency": latency,
            "source": source.type_key,
            "destinations": [d.type_key for d in canonical.destinations],
        }
    )
    network_key = _digest(
        {
            "v": "repro/canonical-network-v1",
            "latency": latency,
            "types": [list(t) for t in canonical.type_keys()],
        }
    )
    return ReferenceCanonicalForm(
        mset=canonical,
        scale=math.ldexp(1.0, shift),
        key=key,
        network_key=network_key,
    )
