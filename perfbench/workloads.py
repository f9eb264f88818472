"""The benchmark's three workloads, generated from a seed.

Each workload is a closed loop: a caller needs its schedule before it can
start the multicast, so it sends its next request only after the previous
answer arrived.  The seed picks every instance and every draw; the
service only ever sees the generated requests.  Structure that decides
the shape of the latency distribution (which instance size sits at which
popularity rank, which type systems the ``dp`` traffic uses, how many
tables get built) is fixed, so different seeds give different inputs with
the same cost profile.

Why each workload was chosen:
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import PlanRequest
from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.core.repair import MembershipDelta, churn_chain
from repro.workloads.clusters import bounded_ratio_cluster
from repro.workloads.generator import multicast_from_cluster

#: One sentence per workload on why it is in the benchmark.
WHY: Dict[str, str] = {
    "hot_hits": (
        "zipf(s=1) reads of 256 stored plans through a 64-entry LRU, so the "
        "codec, canonical key and memory/store lookups do the work and the "
        "solver does none"
    ),
    "cold_misses": (
        "every request a distinct instance with a store attached, so solve, "
        "optimal-table builds and reuse, cache_store and the store append do "
        "the work"
    ),
    "session_churn": (
        "256 dp group sessions streaming membership deltas round-robin, the "
        "only path through SessionManager.apply, pinned tables and suffix "
        "repair"
    ),
}

__doc__ += "".join(f"\n- ``{name}``: {why}." for name, why in WHY.items())

#: A seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 90017

#: hot_hits: 256 plans behind a 64-entry LRU.  The least popular eighth
#: are the n=256 instances: about 2% of requests, nearly all served from
#: the store tier, so the p99 sits near the middle of that class rather
#: than in its noisy upper tail.  The other ranks cycle through n=64, 12,
#: 64 destinations, so the p50 sits inside the n=64 class.
HOT_WORKING_SET = 256
HOT_CACHE_SIZE = 64
HOT_LARGE_FROM_RANK = 224
HOT_SIZES = (64, 12, 64)
HOT_SOLVERS = ("greedy", "greedy+reversal")

#: cold_misses: greedy+reversal sizes, cycled.
COLD_GREEDY_SIZES = (32, 64, 128)

#: hot_hits: the stream is built in blocks of this many requests, each
#: holding every rank its zipf share of times, shuffled within the block.
HOT_BLOCK = 1000

#: cold_misses: one dp request in this many introduces a new type system,
#: so table builds arrive at a fixed rate; the rest reuse built tables.
NEW_SYSTEM_EVERY = 25

#: Destination-count envelopes of the dp type systems by k.
ENVELOPES = {2: (20, 20), 3: (7, 7, 7)}

#: session_churn: sessions, and the type systems they open on.  Many
#: sessions keep each one's delta walk short, so the group sizes - and the
#: repair costs - stay close to where the seed started them, and the
#: latency tail averages over many walks instead of riding a few.
SESSIONS = 256
SESSION_SYSTEMS = 4

#: session_churn: before the clock starts, one session per type system is
#: opened this many destinations per type above the envelope, so the
#: tables the delta stream repairs from already span its random walk and
#: the timed phase measures steady-state repair, not table growth.
SESSION_HEADROOM = 40

TypeSystem = Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]


def type_systems(count: int) -> List[TypeSystem]:
    """The first ``count`` dp type systems: ``(overheads per type, envelope)``.

    The sequence is fixed (not seeded): every fourth system has three
    types, the rest two, and no two share a canonical network.  A
    system's first request asks for its full envelope, so its table is
    built once at its final size and never extended.
    """
    rng = random.Random(20000)
    systems: List[TypeSystem] = []
    seen = set()
    while len(systems) < count:
        k = 3 if len(systems) % 4 == 3 else 2
        sends = sorted(rng.sample(range(3, 40), k))
        receives, previous = [], 0
        for send in sends:
            receive = max(round(send * rng.uniform(1.05, 1.85)), previous + 1)
            receives.append(receive)
            previous = receive
        types = tuple(zip(sends, receives))
        # equal up to a power-of-two rescaling would share a canonical table
        shape = tuple((s / sends[0], r / sends[0]) for s, r in types)
        if shape in seen:
            continue
        seen.add(shape)
        systems.append((types, ENVELOPES[k]))
    return systems


@dataclass(frozen=True)
class Op:
    """One client operation: ``plan``, ``open`` (a session) or ``delta``."""

    kind: str
    request: Optional[PlanRequest] = None
    session: Optional[str] = None
    delta: Optional[MembershipDelta] = None


@dataclass
class Workload:
    """Everything one run needs: server settings and the op streams.

    ``populate`` is planned on a first server whose store the timed server
    then warm-starts from; ``warmup`` runs on the timed server before the
    clock starts; ``stream`` is served in order until time runs out.
    """

    name: str
    cache_size: int
    use_store: bool
    populate: List[PlanRequest] = field(default_factory=list)
    warmup: List[Op] = field(default_factory=list)
    stream: List[Op] = field(default_factory=list)


def _limited(
    types: Sequence[Tuple[int, int]],
    counts: Sequence[int],
    source_type: int,
    latency: int = 1,
) -> MulticastSet:
    """A limited-type instance: ``counts[i]`` destinations of type ``i``."""
    source = Node("src", *types[source_type])
    destinations = [
        Node(f"t{t}d{i}", *types[t])
        for t, count in enumerate(counts)
        for i in range(count)
    ]
    return MulticastSet(source, destinations, latency)


def _request_key(request: PlanRequest) -> Tuple[str, str]:
    return request.instance.canonical_form().key, request.solver


def zipf_block(ranks: int, size: int) -> List[int]:
    """``size`` ranks, rank ``r`` appearing its zipf(s=1) share of times.

    Shares are rounded by largest remainder, so the block holds exactly
    ``size`` entries; shuffled, it is one block of the hot_hits stream.
    """
    weights = [1.0 / (r + 1) for r in range(ranks)]
    total = sum(weights)
    exact = [size * w / total for w in weights]
    counts = [int(e) for e in exact]
    by_remainder = sorted(range(ranks), key=lambda r: counts[r] - exact[r])
    for r in by_remainder[: size - sum(counts)]:
        counts[r] += 1
    return [r for r in range(ranks) for _ in range(counts[r])]


def hot_hits(seed: int, budget: int) -> Workload:
    rng = random.Random(seed)
    working_set: List[PlanRequest] = []
    keys = set()
    while len(working_set) < HOT_WORKING_SET:
        rank = len(working_set)
        size = 256 if rank >= HOT_LARGE_FROM_RANK else HOT_SIZES[rank % len(HOT_SIZES)]
        solver = HOT_SOLVERS[rank % len(HOT_SOLVERS)]
        cluster = bounded_ratio_cluster(size + 1, rng.randrange(2**31))
        request = PlanRequest(instance=multicast_from_cluster(cluster), solver=solver)
        if _request_key(request) in keys:
            continue
        keys.add(_request_key(request))
        working_set.append(request)
    ranks: List[int] = []
    block = zipf_block(HOT_WORKING_SET, HOT_BLOCK)
    while len(ranks) < budget:
        rng.shuffle(block)
        ranks.extend(block)
    return Workload(
        name="hot_hits",
        cache_size=HOT_CACHE_SIZE,
        use_store=True,
        populate=working_set,
        stream=[Op("plan", working_set[r]) for r in ranks],
    )


def _dp_request(rng: random.Random, index: int, systems: List[TypeSystem]) -> PlanRequest:
    """The ``index``-th dp request: a new system's envelope or a table hit."""
    if index % NEW_SYSTEM_EVERY == 0:
        types, envelope = systems[index // NEW_SYSTEM_EVERY]
        counts: Sequence[int] = envelope
        source_type = 0
    else:
        types, envelope = systems[rng.randrange(index // NEW_SYSTEM_EVERY + 1)]
        while True:
            counts = [rng.randint(1, cap) for cap in envelope]
            if sum(counts) >= 16:
                break
        source_type = rng.randrange(len(types))
    return PlanRequest(instance=_limited(types, counts, source_type), solver="dp")


def cold_misses(seed: int, budget: int) -> Workload:
    rng = random.Random(seed)
    systems = type_systems(budget // (2 * NEW_SYSTEM_EVERY) + 1)
    stream: List[Op] = []
    keys = set()
    dp_index = greedy_index = 0
    while len(stream) < budget:
        if len(stream) % 2 == 0:
            request = _dp_request(rng, dp_index, systems)
        else:
            size = COLD_GREEDY_SIZES[greedy_index % len(COLD_GREEDY_SIZES)]
            cluster = bounded_ratio_cluster(size + 1, rng.randrange(2**31))
            request = PlanRequest(
                instance=multicast_from_cluster(cluster), solver="greedy+reversal"
            )
        key = _request_key(request)
        if key in keys:
            continue  # every request must miss: redraw a repeat
        keys.add(key)
        if request.solver == "dp":
            dp_index += 1
        else:
            greedy_index += 1
        stream.append(Op("plan", request))
    return Workload(
        name="cold_misses",
        cache_size=1024,
        use_store=True,
        stream=stream,
    )


def session_churn(seed: int, budget: int) -> Workload:
    rng = random.Random(seed)
    warmup: List[Op] = []
    chains: List[Tuple[str, Tuple[MembershipDelta, ...]]] = []
    length = -(-budget // SESSIONS)
    systems = [system for system in type_systems(2 * SESSION_SYSTEMS) if len(system[0]) == 2]
    for i, (types, envelope) in enumerate(systems[:SESSION_SYSTEMS]):
        counts = [cap + SESSION_HEADROOM for cap in envelope]
        request = PlanRequest(instance=_limited(types, counts, 0), solver="dp")
        warmup.append(Op("open", request, f"wide{i}"))
    for s in range(SESSIONS):
        types, envelope = systems[s % SESSION_SYSTEMS]
        counts = [rng.randint(cap // 2, cap) for cap in envelope]
        mset = _limited(types, counts, rng.randrange(len(types)))
        session = f"g{s}"
        warmup.append(Op("open", PlanRequest(instance=mset, solver="dp"), session))
        chains.append(
            (session, churn_chain(mset, seed=rng.randrange(2**31), length=length))
        )
    stream = [
        Op("delta", session=session, delta=deltas[i])
        for i in range(length)
        for session, deltas in chains
    ]
    return Workload(
        name="session_churn",
        cache_size=1024,
        use_store=False,
        warmup=warmup,
        stream=stream,
    )


BUILDERS = {
    "hot_hits": hot_hits,
    "cold_misses": cold_misses,
    "session_churn": session_churn,
}


def build(name: str, seed: int, budget: int) -> Workload:
    """The named workload for ``seed`` with ``budget`` timed operations."""
    return BUILDERS[name](seed, budget)
