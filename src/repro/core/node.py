"""Workstation nodes of the heterogeneous receive-send model.

The model (Banikazemi et al. [3], as used throughout the paper) attaches to
every workstation ``p``:

* a **sending overhead** ``o_send(p)`` — the time ``p`` is busy when sending
  one message, and
* a **receiving overhead** ``o_receive(p)`` — the time ``p`` is busy when
  receiving one message.

Both are positive and, in the paper, integral.  The library accepts any
positive real; property tests exercise the integral case that the paper
assumes.  Network latency ``L`` is global and lives on
:class:`repro.core.multicast.MulticastSet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.exceptions import ModelError

__all__ = ["Node", "overhead_key", "same_type"]

Number = float  # ints are accepted everywhere; the paper assumes ints


_INF = float("inf")


def _check_positive(value: Number, what: str, name: str) -> None:
    # fast path for the overwhelmingly common plain positive finite number
    # (every decoded request, result and store record); anything else —
    # bool, subclasses, NaN, infinities, non-positives — takes the full
    # checks below, so acceptance and error messages are unchanged
    if (type(value) is float or type(value) is int) and 0 < value < _INF:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ModelError(f"{what} of node {name!r} must be a number, got {value!r}")
    if not value > 0:
        raise ModelError(f"{what} of node {name!r} must be positive, got {value!r}")
    if value != value or value in (float("inf"), float("-inf")):
        raise ModelError(f"{what} of node {name!r} must be finite, got {value!r}")


@dataclass(frozen=True)
class Node:
    """A workstation with its receive-send model parameters.

    Parameters
    ----------
    name:
        Human-readable identifier.  Names need not be unique inside a
        cluster, but :class:`~repro.core.multicast.MulticastSet` requires
        uniqueness so schedules can be reported unambiguously.
    send_overhead:
        ``o_send`` — time the node is busy per message sent.  Positive.
    receive_overhead:
        ``o_receive`` — time the node is busy per message received.  Positive.
    """

    name: str
    send_overhead: Number
    receive_overhead: Number
    meta: Tuple[Tuple[str, str], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ModelError(f"node name must be a non-empty string, got {self.name!r}")
        _check_positive(self.send_overhead, "send overhead", self.name)
        _check_positive(self.receive_overhead, "receive overhead", self.name)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def ratio(self) -> float:
        """Receive-send ratio ``alpha = o_receive / o_send`` (Section 3)."""
        return self.receive_overhead / self.send_overhead

    @property
    def type_key(self) -> Tuple[Number, Number]:
        """The pair ``(o_send, o_receive)`` identifying the workstation type.

        Two nodes of equal ``type_key`` are interchangeable in any schedule
        (Section 4 treats them as one *type*).
        """
        return (self.send_overhead, self.receive_overhead)

    # ------------------------------------------------------------------
    # convenience constructors / transforms
    # ------------------------------------------------------------------
    def renamed(self, name: str) -> "Node":
        """Return a copy of this node with a different name."""
        return Node(name, self.send_overhead, self.receive_overhead, self.meta)

    def with_overheads(self, send_overhead: Number, receive_overhead: Number) -> "Node":
        """Return a copy with replaced overheads (used by instance rounding)."""
        return Node(self.name, send_overhead, receive_overhead, self.meta)

    def swapped(self) -> "Node":
        """Return the node with send/receive overheads exchanged.

        Used by the multicast/reduce duality in :mod:`repro.collectives`.
        """
        return Node(self.name, self.receive_overhead, self.send_overhead, self.meta)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}(s={self.send_overhead:g}, r={self.receive_overhead:g})"


def overhead_key(node: Node) -> Tuple[Number, Number]:
    """Sort key for the paper's canonical non-decreasing overhead order.

    Because of the correlation assumption, sorting by ``o_send`` alone is
    equivalent; including ``o_receive`` makes the key total even for inputs
    that violate the assumption (validation rejects those separately).
    """
    return (node.send_overhead, node.receive_overhead)


def same_type(a: Node, b: Node) -> bool:
    """``True`` when two nodes have identical overhead parameters."""
    return a.type_key == b.type_key
