"""Canonical instance forms: one key per equivalence class of multicasts.

Production traffic is full of instances that are *equivalent but not
byte-equal*: the same cluster submitted under different node names, or the
same network expressed in different time units.  Two proven metamorphic
invariants (:mod:`repro.conformance.invariants`) say such instances share
their optimal structure:

* **permutation/renaming** — solvers see overheads and indices, never
  names, and :class:`~repro.core.multicast.MulticastSet` already sorts
  destinations canonically, so renaming nodes changes nothing;
* **scaling** — multiplying every overhead and the latency by ``c > 0``
  scales every completion time by exactly ``c`` and leaves every argmin
  comparison unchanged.

This module folds both into a *canonical form*: nodes renamed to ``p0`` /
``d1..dn`` and all model parameters rescaled so the largest lies in
``[1, 2)``.  The rescale factor is deliberately restricted to **powers of
two**: dividing an IEEE double by ``2**s`` only shifts its exponent, so
every sum, max and comparison a solver performs on the canonical instance
rounds *identically* to the original's — schedules planned on the
canonical form bind back onto the original instance **bit-identically**
(asserted by the round-trip property tests).  Arbitrary rational factors
(the conformance suite's ``x3``) preserve values only up to rounding, so
they are intentionally *not* part of the class: a cache hit must never be
allowed to change a single output bit.

Consumers:

* :class:`repro.api.planner.Planner` keys its result LRU and cache tiers
  by :attr:`CanonicalForm.key`, so equivalent requests hit;
* :class:`repro.api.tables.OptimalTableCache` keys optimal tables by the
  canonical type system, so renamed/rescaled networks share one table;
* the service :class:`~repro.service.shard.ShardRouter` routes by
  :attr:`CanonicalForm.network_key`, landing same-network traffic on the
  shard whose worker already holds that network's table.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional

from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.core.schedule import Schedule
from repro.exceptions import SolverError

__all__ = [
    "CanonicalForm",
    "canonicalize",
    "canonical_key",
    "map_schedule",
    "same_network",
]

#: Smallest positive normal double: rescaled parameters must stay at or
#: above this for the power-of-two shift to be exact (subnormals round).
_SMALLEST_NORMAL = 2.2250738585072014e-308

#: Every ``int`` below this converts to a double exactly; larger ones may
#: round, which can reorder destinations after the rescale.
_EXACT_INT_LIMIT = 2**53


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:32]


class CanonicalForm:
    """An instance's canonical representative and its class keys.

    :attr:`key` and :attr:`scale` are computed up front, straight from the
    validated instance's overheads; :attr:`mset` and :attr:`network_key`
    are built on first access and cached, so a cache hit — which needs
    only the key — never pays for them.  All four are read-only, and two
    forms are equal when their key and scale are (which fixes the other
    two fields).

    Attributes
    ----------
    mset:
        The canonical instance: nodes renamed ``p0``/``d1..dn`` (in the
        model's canonical destination order) and every overhead plus the
        latency divided by :attr:`scale`.  Destination ``i`` of the
        canonical instance corresponds to destination ``i`` of the
        original, so schedules transfer by index (:func:`map_schedule`).
    scale:
        The exact power of two with ``original = canonical * scale``.
    key:
        Content hash identifying the instance's equivalence class
        (renaming + power-of-two rescaling).  The planner's cache key.
    network_key:
        Content hash of the canonical *type system* — the distinct
        ``(o_send, o_receive)`` pairs plus the latency.  All instances
        drawn from the same network share it whatever their destination
        mix; it is the shard-routing and group-solve bucket key.
    """

    __slots__ = (
        "_key",
        "_scale",
        "_sends",
        "_receives",
        "_latency",
        "_shift",
        "_mset",
        "_network_key",
    )

    def __init__(self, mset: MulticastSet, shift: int, key: str) -> None:
        # the original's overhead tuples, not the instance itself: the
        # instance caches this form, and a back-reference would be a cycle
        self._sends = mset._sends
        self._receives = mset._receives
        self._latency = mset.latency
        self._shift = shift
        self._scale = math.ldexp(1.0, shift)
        self._key = key
        self._mset: Optional[MulticastSet] = None
        self._network_key: Optional[str] = None

    @property
    def key(self) -> str:
        """The equivalence-class hash."""
        return self._key

    @property
    def scale(self) -> float:
        """The power of two with ``original = canonical * scale``."""
        return self._scale

    # Both lazy fields are pure functions of immutable state: a concurrent
    # first access builds the value twice and stores equal results, which
    # is benign and idempotent, so no lock is needed.
    @property
    def mset(self) -> MulticastSet:
        """The canonical instance (built on first access)."""
        mset = self._mset
        if mset is None:
            down = -self._shift
            sends = [math.ldexp(v, down) for v in self._sends]
            receives = [math.ldexp(v, down) for v in self._receives]
            source = Node("p0", sends[0], receives[0])
            dests = [
                Node(f"d{i}", sends[i], receives[i]) for i in range(1, len(sends))
            ]
            latency = math.ldexp(self._latency, down)
            mset = MulticastSet(source, dests, latency, validate_correlation=False)
            self._mset = mset
        return mset

    @property
    def network_key(self) -> str:
        """The canonical type-system hash (built on first access)."""
        network_key = self._network_key
        if network_key is None:
            down = -self._shift
            types = {
                (math.ldexp(s, down), math.ldexp(r, down))
                for s, r in set(zip(self._sends, self._receives))
            }
            network_key = _digest(
                {
                    "v": "repro/canonical-network-v1",
                    "latency": math.ldexp(self._latency, down),
                    "types": sorted(types),
                }
            )
            self._network_key = network_key
        return network_key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self._key == other._key and self._scale == other._scale

    def __hash__(self) -> int:
        return hash((self._key, self._scale))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CanonicalForm(key={self.key!r}, scale={self.scale!r})"


#: ``json.dumps(payload, sort_keys=True)`` of the class-key payload
#: ``{"v", "latency", "source", "destinations"}`` — the bytes ``_digest``
#: would hash — spelled out so each distinct destination type is formatted
#: once (``json`` would repr every float of every destination: about twice
#: the cost at n = 64).  JSON writes a finite float as its ``repr``, so the
#: bytes, and every key already in a plan store, are unchanged.
_KEY_TEMPLATE = (
    '{"destinations": [%s], "latency": %r, "source": [%r, %r], '
    '"v": "repro/canonical-v1"}'
)


def canonicalize(mset: MulticastSet) -> CanonicalForm:
    """The canonical form of ``mset`` (cached via ``mset.canonical_form()``).

    The rescale exponent is chosen so the largest model parameter lands in
    ``[1, 2)``; if the instance's dynamic range is so extreme that the
    shift would push a parameter into the subnormal range (where rounding
    breaks exactness), rescaling is skipped and only renaming applies.

    The key is hashed straight from the instance's validated overheads.
    An exact power-of-two shift keeps the canonical destination order, so
    the destinations are re-sorted only when ``int`` overheads too large
    for a double may round, as building the canonical instance would.
    """
    sends = mset._sends
    receives = mset._receives
    latency = mset.latency
    largest = max(latency, max(sends), max(receives))
    smallest = min(latency, min(sends), min(receives))
    shift = math.frexp(largest)[1] - 1
    if math.ldexp(float(smallest), -shift) < _SMALLEST_NORMAL:
        shift = 0  # pragma: no cover - pathological >2^1000 dynamic range
    down = -shift
    ldexp = math.ldexp
    pairs = list(zip(sends[1:], receives[1:]))
    # equal overheads rescale to equal values: rescale each type once
    scaled = {
        pair: (ldexp(pair[0], down), ldexp(pair[1], down)) for pair in set(pairs)
    }
    if largest >= _EXACT_INT_LIMIT:
        pairs.sort(key=scaled.__getitem__)
    text = {pair: "[%r, %r]" % value for pair, value in scaled.items()}
    payload = _KEY_TEMPLATE % (
        ", ".join(map(text.__getitem__, pairs)),
        ldexp(latency, down),
        ldexp(sends[0], down),
        ldexp(receives[0], down),
    )
    key = hashlib.sha256(payload.encode()).hexdigest()[:32]
    return CanonicalForm(mset, shift, key)


def canonical_key(mset: MulticastSet) -> str:
    """The instance's equivalence-class key (see :class:`CanonicalForm`)."""
    return mset.canonical_form().key


def same_network(a: MulticastSet, b: MulticastSet) -> bool:
    """Whether two instances draw from the same canonical network.

    ``True`` exactly when the canonical type systems match — same distinct
    ``(o_send, o_receive)`` pairs after the power-of-two rescale, same
    canonical latency.  This is the repair engine's reuse-or-rebuild
    predicate for membership deltas: joins, leaves and handovers *within*
    the existing types keep the network key (the cached optimal table
    still answers every query), while a delta that introduces a new type,
    drains an old one, or moves the largest model parameter (and with it
    the rescale exponent) changes it and forces the cold path.
    """
    return a.canonical_form().network_key == b.canonical_form().network_key


def map_schedule(schedule: Schedule, mset: MulticastSet) -> Schedule:
    """Bind a schedule planned on one instance onto an equivalent one.

    Node indices transfer unchanged (canonicalization preserves the
    canonical destination order), so only the timing is recomputed — from
    ``mset``'s own overheads, exactly as a direct solve would.
    """
    if schedule.multicast.n != mset.n:
        raise SolverError(
            f"cannot map a schedule for n={schedule.multicast.n} onto an "
            f"instance with n={mset.n}"
        )
    return Schedule(mset, schedule.children)
