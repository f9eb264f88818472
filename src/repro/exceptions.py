"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate normally.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ModelError(ReproError):
    """An instance violates the communication model's requirements."""


class CorrelationError(ModelError):
    """The overhead-correlation assumption of the paper (Section 2) fails.

    The paper assumes for any two nodes ``p, q``::

        o_send(p) < o_send(q)  <=>  o_receive(p) < o_receive(q)

    which also forces equal receive overheads whenever send overheads are
    equal.  Raised by :class:`repro.core.multicast.MulticastSet` validation.
    """


class InvalidScheduleError(ReproError):
    """A schedule tree is structurally or numerically invalid."""


class TransformError(ReproError):
    """A Lemma 3 exchange was requested on inputs violating its premises."""


class SimulationError(ReproError):
    """The discrete-event simulation detected an inconsistency.

    For example a node asked to perform two overlapping communication
    operations, or simulated times disagreeing with the analytic recurrence.
    """


class SolverError(ReproError):
    """An exact solver was used outside its supported regime."""


class ContentionError(ReproError):
    """A cross-group contention constraint is violated or unsatisfiable.

    Raised when a :class:`repro.core.contention.MultiGroupInstance` is
    malformed (empty, inconsistent shared-node overheads, bad weights) or
    when a :class:`repro.core.contention.MultiGroupSchedule` claims the
    same sender's transmit slots for two groups in overlapping intervals.
    """


class WorkloadError(ReproError):
    """A workload generator received unsatisfiable parameters."""


class ConformanceError(ReproError):
    """The conformance engine was misused or fed malformed records.

    Raised for unknown scenario families or corpus suites, undecodable
    ``repro/conformance-v1`` records, and replay requests that do not
    reference a failure.  Invariant *violations* are not exceptions — they
    are data (:class:`repro.conformance.FailureRecord`) so the runner can
    keep sweeping and report everything at once.
    """


class ServiceError(ReproError):
    """The planning service refused or failed a request.

    Raised for wire protocol violations, attempts to use a service that is
    not running, and errors the server reports back over the JSON-lines
    protocol.  Transient refusals — admission-control rejections among
    them — raise the :class:`ServiceRetryableError` subclass.
    """


class ServiceRetryableError(ServiceError):
    """A transient service failure that is safe to retry.

    Raised for transport-level losses (connect failures, read timeouts,
    dropped connections, out-of-order streams), admission-control
    rejections and worker-death failures — conditions where retrying an
    *idempotent* request (``plan``, ``ping``, ``metrics``,
    ``session-resume``; canonical cache keys make repeated plans
    side-effect-free) cannot produce a wrong answer.  The client-side
    :class:`repro.service.client.RetryPolicy` retries exactly this class;
    everything else fails fast.
    """


class DeadlineExceededError(ServiceError):
    """A per-request solve deadline elapsed before the solver finished.

    Internal signal of the graceful-degradation path: the service catches
    it and answers with a fast greedy plan plus the Theorem 1 bounds
    sandwich, explicitly marked ``degraded`` — never a silent timeout and
    never a silently wrong answer.
    """

