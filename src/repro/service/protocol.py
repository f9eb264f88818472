"""JSON-lines wire protocol of the planning service (documented in SERVICE.md).

One message per ``\\n``-terminated line, UTF-8 JSON objects, correlated by
a caller-chosen ``id`` echoed on the response — so a client may pipeline
many requests and read responses out of order.

Client -> server message types:

====================  ========================================================
``plan``              ``{"type": "plan", "id": ..., "client": ...,
                      "request": {repro/plan-request-v1}}``
``ping``              liveness probe
``metrics``           request a counters snapshot
``session-open``      ``{"type": "session-open", "id": ..., "client": ...,
                      "session": optional chosen id, "request":
                      {repro/plan-request-v1}}`` — open a group session
``session-delta``     ``{"type": "session-delta", "id": ..., "session":
                      ..., "delta": {repro/membership-delta-v1}}`` —
                      stream one membership batch
``session-resume``    ``{"type": "session-resume", "id": ...,
                      "session": ...}`` — reconnect: replay the last
                      acknowledged update
``session-close``     ``{"type": "session-close", "id": ...,
                      "session": ...}``
====================  ========================================================

Server -> client message types:

====================  ========================================================
``result``            ``{"type": "result", "id": ..., "tier":
                      "memory"|"store"|"solve"|"degraded", "result":
                      {repro/plan-result-v1}}`` — plus ``"degraded":
                      true`` when a solve deadline forced a greedy
                      fallback answer (key absent otherwise)
``error``             ``{"type": "error", "id": ..., "error": "..."}`` —
                      plus ``"retryable": true`` when the failure is
                      transient (admission queue full, shard worker died
                      twice, injected solver/store faults); key absent
                      for permanent errors
``pong``              answer to ``ping``
``metrics``           ``{"type": "metrics", "metrics": {...}}``
``session-result``    ``{"type": "session-result", "id": ..., "session":
                      ..., "seq": ..., "tier": ..., "repaired":
                      true|false, "result": {repro/plan-result-v1}}`` —
                      the acknowledged plan as of ``seq`` (``0`` for the
                      opening plan); answers ``session-open``,
                      ``session-delta`` and ``session-resume``
``session-closed``    ``{"type": "session-closed", "id": ...,
                      "session": ...}``
====================  ========================================================

The session message family is versioned as ``session-v1`` (its sequencing
semantics — accept exactly ``last + 1``, exact duplicates idempotent,
everything else fail-closed — live in :mod:`repro.service.sessions`).
The instance/request/result/delta payloads are exactly the versioned
formats of :mod:`repro.io.serialization` and :mod:`repro.core.repair` —
the wire adds only the envelope.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.api.request import PlanRequest, PlanResult
from repro.core.repair import (
    MembershipDelta,
    membership_delta_from_dict,
    membership_delta_to_dict,
)
from repro.exceptions import ReproError, ServiceError
from repro.io.serialization import (
    plan_request_from_dict,
    plan_request_to_dict,
    plan_result_from_dict,
    plan_result_to_dict,
)
from repro.service.sessions import SessionUpdate

__all__ = [
    "PROTOCOL",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "encode",
    "decode",
    "plan_message",
    "ping_message",
    "metrics_message",
    "result_message",
    "error_message",
    "session_open_message",
    "session_delta_message",
    "session_resume_message",
    "session_close_message",
    "session_result_message",
    "session_closed_message",
    "parse_plan_request",
    "parse_plan_result",
    "parse_session_open",
    "parse_session_ref",
    "parse_session_delta",
    "parse_session_update",
]

#: Protocol identifier (bumped on incompatible envelope changes).
PROTOCOL = "repro/service-v1"

REQUEST_TYPES = (
    "plan",
    "ping",
    "metrics",
    "session-open",
    "session-delta",
    "session-resume",
    "session-close",
)
RESPONSE_TYPES = (
    "result",
    "error",
    "pong",
    "metrics",
    "session-result",
    "session-closed",
)


def encode(message: Dict[str, Any]) -> bytes:
    """Serialize a message to one wire line (UTF-8, newline-terminated)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict (envelope-validated)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ServiceError("malformed wire message: not a JSON line") from None
    if not isinstance(message, dict):
        raise ServiceError(
            f"malformed wire message: expected an object, "
            f"got {type(message).__name__}"
        )
    if "type" not in message:
        raise ServiceError("malformed wire message: missing 'type'")
    return message


# ----------------------------------------------------------------------
# client-side constructors
# ----------------------------------------------------------------------
def plan_message(
    request: PlanRequest, *, id: Any = None, client: Optional[str] = None
) -> Dict[str, Any]:
    """Envelope a :class:`PlanRequest` as a ``plan`` message."""
    message: Dict[str, Any] = {
        "type": "plan",
        "id": id,
        "request": plan_request_to_dict(request),
    }
    if client is not None:
        message["client"] = client
    return message


def ping_message(*, id: Any = None) -> Dict[str, Any]:
    """A liveness probe."""
    return {"type": "ping", "id": id}


def metrics_message(*, id: Any = None) -> Dict[str, Any]:
    """A counters-snapshot request."""
    return {"type": "metrics", "id": id}


def session_open_message(
    request: PlanRequest,
    *,
    id: Any = None,
    client: Optional[str] = None,
    session: Optional[str] = None,
) -> Dict[str, Any]:
    """Open a group session on ``request`` (``session`` picks the id)."""
    message: Dict[str, Any] = {
        "type": "session-open",
        "id": id,
        "request": plan_request_to_dict(request),
    }
    if client is not None:
        message["client"] = client
    if session is not None:
        message["session"] = session
    return message


def session_delta_message(
    session: str,
    delta: MembershipDelta,
    *,
    id: Any = None,
    client: Optional[str] = None,
) -> Dict[str, Any]:
    """Stream one membership delta into an open session."""
    message: Dict[str, Any] = {
        "type": "session-delta",
        "id": id,
        "session": session,
        "delta": membership_delta_to_dict(delta),
    }
    if client is not None:
        message["client"] = client
    return message


def session_resume_message(session: str, *, id: Any = None) -> Dict[str, Any]:
    """Reconnect: ask for the session's last acknowledged update."""
    return {"type": "session-resume", "id": id, "session": session}


def session_close_message(session: str, *, id: Any = None) -> Dict[str, Any]:
    """Close an open session (releases its pinned table)."""
    return {"type": "session-close", "id": id, "session": session}


# ----------------------------------------------------------------------
# server-side constructors
# ----------------------------------------------------------------------
def result_message(
    result: PlanResult, tier: str, *, id: Any = None, degraded: bool = False
) -> Dict[str, Any]:
    """Envelope a :class:`PlanResult` (with its serving tier) as ``result``.

    ``degraded=True`` marks a deadline-degraded answer: the server ran
    out of solve budget and returned a fast greedy plan plus the bounds
    sandwich instead of the requested solver's answer.  The key is only
    present when set, so pre-resilience clients parse unchanged.
    """
    message: Dict[str, Any] = {
        "type": "result",
        "id": id,
        "tier": tier,
        "result": plan_result_to_dict(result),
    }
    if degraded:
        message["degraded"] = True
    return message


def error_message(error: str, *, id: Any = None, retryable: bool = False) -> Dict[str, Any]:
    """Envelope a failure as an ``error`` message.

    ``retryable`` marks a transient failure (the server raised
    :class:`~repro.exceptions.ServiceRetryableError`); clients decide
    whether to retry from this field alone, never from the text.
    """
    message: Dict[str, Any] = {"type": "error", "id": id, "error": error}
    if retryable:
        message["retryable"] = True
    return message


def session_result_message(update: SessionUpdate, *, id: Any = None) -> Dict[str, Any]:
    """Envelope a :class:`SessionUpdate` as a ``session-result``."""
    return {
        "type": "session-result",
        "id": id,
        "session": update.session_id,
        "seq": update.seq,
        "tier": update.tier,
        "repaired": update.repaired,
        "result": plan_result_to_dict(update.result),
    }


def session_closed_message(session: str, *, id: Any = None) -> Dict[str, Any]:
    """Acknowledge a ``session-close``."""
    return {"type": "session-closed", "id": id, "session": session}


# ----------------------------------------------------------------------
# payload extraction
# ----------------------------------------------------------------------
def parse_plan_request(message: Dict[str, Any]) -> PlanRequest:
    """Extract the :class:`PlanRequest` from a ``plan`` message."""
    if message.get("type") != "plan":
        raise ServiceError(f"expected a 'plan' message, got {message.get('type')!r}")
    payload = message.get("request")
    if not isinstance(payload, dict):
        raise ServiceError("'plan' message carries no request payload")
    return plan_request_from_dict(payload)


def parse_plan_result(message: Dict[str, Any]) -> PlanResult:
    """Extract the :class:`PlanResult` from a ``result`` message."""
    if message.get("type") != "result":
        raise ServiceError(
            f"expected a 'result' message, got {message.get('type')!r}"
        )
    payload = message.get("result")
    if not isinstance(payload, dict):
        raise ServiceError("'result' message carries no result payload")
    return plan_result_from_dict(payload)


def parse_session_open(
    message: Dict[str, Any],
) -> "tuple[PlanRequest, Optional[str]]":
    """``(request, chosen session id or None)`` from a ``session-open``."""
    if message.get("type") != "session-open":
        raise ServiceError(
            f"expected a 'session-open' message, got {message.get('type')!r}"
        )
    payload = message.get("request")
    if not isinstance(payload, dict):
        raise ServiceError("'session-open' message carries no request payload")
    session = message.get("session")
    if session is not None and (not isinstance(session, str) or not session):
        raise ServiceError("'session-open' session id must be a non-empty string")
    return plan_request_from_dict(payload), session


def parse_session_ref(message: Dict[str, Any]) -> str:
    """The session id any ``session-*`` message refers to."""
    session = message.get("session")
    if not isinstance(session, str) or not session:
        raise ServiceError(
            f"{message.get('type', 'session')!r} message carries no session id"
        )
    return session


def parse_session_delta(message: Dict[str, Any]) -> "tuple[str, MembershipDelta]":
    """``(session id, delta)`` from a ``session-delta`` message."""
    if message.get("type") != "session-delta":
        raise ServiceError(
            f"expected a 'session-delta' message, got {message.get('type')!r}"
        )
    session = parse_session_ref(message)
    payload = message.get("delta")
    try:
        delta = membership_delta_from_dict(payload)
    except ServiceError:
        raise
    except ReproError as exc:
        raise ServiceError(f"malformed session delta: {exc}") from exc
    return session, delta


def parse_session_update(message: Dict[str, Any]) -> SessionUpdate:
    """Rebuild the :class:`SessionUpdate` from a ``session-result``."""
    if message.get("type") != "session-result":
        raise ServiceError(
            f"expected a 'session-result' message, got {message.get('type')!r}"
        )
    payload = message.get("result")
    if not isinstance(payload, dict):
        raise ServiceError("'session-result' message carries no result payload")
    seq = message.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ServiceError(f"'session-result' seq must be an int >= 0, got {seq!r}")
    return SessionUpdate(
        session_id=parse_session_ref(message),
        seq=seq,
        result=plan_result_from_dict(payload),
        tier=str(message.get("tier", "")),
        repaired=bool(message.get("repaired", False)),
    )
