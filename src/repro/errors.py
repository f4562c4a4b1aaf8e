"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`BerthaError`, so
callers can catch one type.  Sub-hierarchies separate the three layers users
interact with: the Chunnel/DAG API, the connection control plane
(negotiation + discovery), and the simulated substrate.
"""

from __future__ import annotations

__all__ = [
    "BerthaError",
    "DagError",
    "ScopeError",
    "ChunnelArgumentError",
    "NegotiationError",
    "IncompatibleDagError",
    "NoImplementationError",
    "ResourceExhaustedError",
    "OfferReferenceError",
    "ConnectionTimeoutError",
    "DeadlineExceeded",
    "DegradedEstablishmentWarning",
    "ReconfigurationError",
    "DiscoveryError",
    "RegistrationError",
    "AddressError",
    "TransportError",
    "ConnectionClosedError",
]


class BerthaError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Chunnel / DAG specification errors
# --------------------------------------------------------------------------
class DagError(BerthaError):
    """A Chunnel DAG is malformed (cycles, dangling branches, bad wiring)."""


class ScopeError(DagError):
    """A scoping constraint is unsatisfiable or contradictory."""


class ChunnelArgumentError(BerthaError):
    """A Chunnel was constructed with invalid arguments."""


# --------------------------------------------------------------------------
# Control plane: negotiation and discovery
# --------------------------------------------------------------------------
class NegotiationError(BerthaError):
    """Connection negotiation failed."""


class IncompatibleDagError(NegotiationError):
    """The two endpoints' Chunnel DAGs cannot be unified (§4.3)."""


class NoImplementationError(NegotiationError):
    """No registered implementation satisfies a Chunnel's constraints."""


class ResourceExhaustedError(NegotiationError):
    """Every eligible offload's resources are occupied and no fallback exists."""


class OfferReferenceError(NegotiationError):
    """An OFFER named an offer the listener does not hold, or its digest
    differs from the listener's expansion; the client re-offers in full."""


class ConnectionTimeoutError(NegotiationError):
    """The peer did not answer negotiation messages in time."""


class DeadlineExceeded(ConnectionTimeoutError):
    """An end-to-end deadline budget ran out before the RPC completed.

    Subclasses :class:`ConnectionTimeoutError` so every existing
    degraded-mode / fallback catch treats a blown budget exactly like an
    unanswered peer; callers that care about the distinction catch this
    type and read :attr:`elapsed` / :attr:`attempts`.
    """

    def __init__(self, message: str, elapsed: float = 0.0, attempts: int = 0):
        super().__init__(message)
        #: Seconds of (virtual) time spent before the budget ran out.
        self.elapsed = elapsed
        #: Attempts actually sent before the budget ran out.
        self.attempts = attempts


class DegradedEstablishmentWarning(BerthaError, UserWarning):
    """A connection was established in degraded (fallback-only) mode.

    Emitted — as a warning, not an error — when the discovery service is
    unreachable during connection establishment: the runtime proceeds with
    process-registered fallbacks and direct name resolution
    (``NullDiscoveryClient`` semantics) instead of failing the connection.
    Counted on ``Runtime.degraded_establishments``.
    """


class ReconfigurationError(NegotiationError):
    """A live stack transition could not be started or completed."""


class DiscoveryError(BerthaError):
    """The discovery service rejected a request."""


class RegistrationError(DiscoveryError):
    """An implementation record is invalid or conflicts with an existing one."""


# --------------------------------------------------------------------------
# Substrate errors
# --------------------------------------------------------------------------
class TransportError(BerthaError):
    """A simulated transport operation failed."""


class AddressError(TransportError):
    """Destination entity does not exist, or an address is malformed."""


class ConnectionClosedError(TransportError):
    """Operation on a connection that has been closed."""
