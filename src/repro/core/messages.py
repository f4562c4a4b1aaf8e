"""The control-plane message schema (one dialect for the whole paper).

Every control message Bertha exchanges — negotiation OFFER/ACCEPT/ERROR
(§4.3), the live-reconfiguration TRANSITION handshake, and the discovery
query/reserve/release/watch RPCs (§4.2) — is a frozen dataclass defined
here and registered in the :mod:`repro.core.wire` codec table, which
gives it a frame kind id.  Senders :func:`encode_message_sized` instances
into frames; receivers :func:`decode_message` the payload and dispatch on
the type.  A frame that is not a registered message, or whose fields (at
any depth) have the wrong arity or type, raises :class:`WireError` at the
receiver, where callers count it (``malformed_total`` /
``ctl_malformed_total``); a version newer than the receiver speaks is
rejected the same way.  PROTOCOL.md's message catalogue is generated from
these docstrings and the codec table (``tests/core/test_protocol_doc.py``
renders it and fails when the committed document differs), so code and
spec cannot drift.

Docstring convention: the first paragraph describes the message; a
``Direction:`` line names sender → receiver and channel; a ``Retransmit:``
line states the reliability contract.  The catalogue generator parses
exactly these.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Type, Union

from ..errors import (
    IncompatibleDagError,
    NegotiationError,
    NoImplementationError,
    OfferReferenceError,
    ResourceExhaustedError,
)
from ..sim.datagram import Address
from .chunnel import Offer as ImplOffer
from .dag import ChunnelDag
from .wire import (
    Digest,
    WireError,
    decode_frame,
    encode_sized,
    frame_fields,
    register_frame_type,
    register_wire_type,
    retire_frame_ids,
)

__all__ = [
    "ControlMessage",
    "Offer",
    "Accept",
    "Resume",
    "ResumeAccept",
    "ResumeReject",
    "Error",
    "Hello",
    "Transition",
    "TransitionAck",
    "TransitionRequest",
    "Heartbeat",
    "HeartbeatAck",
    "Migrate",
    "MigrateAck",
    "Query",
    "QueryReply",
    "Reserve",
    "ReserveReply",
    "LeaseCheck",
    "LeaseCheckReply",
    "Release",
    "ReleaseReply",
    "Watch",
    "WatchReply",
    "RegisterName",
    "RegisterNameReply",
    "Revoked",
    "LeaseRevoked",
    "ServiceError",
    "GetShardMap",
    "ShardMapReply",
    "Ping",
    "Pong",
    "Promote",
    "PromoteReply",
    "decode_message",
    "encode_message_sized",
    "request_id",
]

#: Registry of message classes by wire kind (for the PROTOCOL.md generator
#: and schema-wide tests).
BY_KIND: Dict[str, Type["ControlMessage"]] = {}


@dataclass(frozen=True)
class ControlMessage:
    """Base class for all control-plane messages.

    Subclasses set ``KIND`` (the wire tag; the pre-existing protocol
    strings are kept verbatim) and are registered with
    :func:`control_message`.  Instances are immutable; derive variants with
    :func:`dataclasses.replace`.
    """

    KIND: ClassVar[str] = ""
    VERSION: ClassVar[int] = 1


def control_message(cls: Type[ControlMessage]) -> Type[ControlMessage]:
    """Class decorator: add ``cls`` to the codec table by its KIND and give
    it the next frame kind id (declaration order)."""
    if not cls.KIND:
        raise WireError(f"{cls.__name__} has no KIND")
    register_wire_type(cls.KIND, cls)
    register_frame_type(cls, cls.VERSION)
    BY_KIND[cls.KIND] = cls
    return cls


#: Decode a received control frame, strictly: raises :class:`WireError`
#: when the payload is not the frame of a registered control message
#: (callers count these instead of silently dropping, per the control-plane
#: hardening contract).
decode_message = decode_frame


def encode_message_sized(message: ControlMessage) -> tuple[bytes, int]:
    """A control message's frame and wire size, memoized per instance.

    Control messages are frozen dataclasses, so an instance's frame never
    changes; retransmit loops and reply-cache replays re-send the same
    instance, and the memo makes every send after the first free.
    """
    if not isinstance(message, ControlMessage):
        raise WireError(f"not a control message: {message!r}")
    cached = message.__dict__.get("_wire_sized")
    if cached is None:
        cached = encode_sized(message)
        object.__setattr__(message, "_wire_sized", cached)
    return cached


def request_id(payload: Any) -> Optional[str]:
    """The ``req_id`` of a discovery request frame that failed to decode.

    Every discovery message carries ``req_id`` as its first field, so a
    well-framed request of an unknown kind, or with a malformed later
    field, can still be answered with ``disc.error``.
    """
    items = frame_fields(payload)
    if items and type(items[0]) is str:
        return items[0]
    return None


# --------------------------------------------------------------------------
# Negotiation (§4.3) and live reconfiguration
# --------------------------------------------------------------------------
#: An OFFER list entry: a reference — an implementation name in ``offers``,
#: a discovery record id in ``network_offers`` — or the offer in full.
OfferEntry = Union[str, ImplOffer]
#: An ACCEPT choice: an index into the OFFER's expanded lists for the
#: node's chunnel type (its client offers, then its network offers), or
#: the chosen offer in full.
ChoiceEntry = Union[int, ImplOffer]


@control_message
@dataclass(frozen=True)
class Offer(ControlMessage):
    """Negotiation request: the client's DAG plus every implementation
    offer it holds (its own registry and its discovery view), each by
    reference where the listener holds it too — an ``endpoints: both``
    registry offer by implementation name, a network offer by discovery
    record id — and in full otherwise, with the digest of the fully
    expanded lists.  A reference the listener cannot resolve, or a
    digest other than its expansion's, is answered with a
    ``bertha.error`` of type ``OfferReferenceError``, and the client
    re-offers every entry in full under a fresh ``conn_id``.

    Direction: client → server, control socket.
    Retransmit: client resends on a fixed timeout; the server replays its
    original verdict per ``(kind, conn_id)`` on duplicates.
    """

    KIND: ClassVar[str] = "bertha.offer"
    VERSION: ClassVar[int] = 2

    conn_id: str
    dag: ChunnelDag
    offers: Dict[str, List[OfferEntry]]
    client_entity: str
    network_offers: Dict[str, List[OfferEntry]]
    offers_digest: Digest


@control_message
@dataclass(frozen=True)
class Accept(ControlMessage):
    """Negotiation response: the unified DAG, the per-node implementation
    choice, the server's data-path address, and negotiated parameters.
    Each choice is an index into the OFFER's expanded lists where the
    client sent the chosen offer, and the offer in full otherwise (a
    server-origin offer, a record only the listener's pool holds).

    Direction: server → client, control socket (reply to ``bertha.offer``).
    Retransmit: never sent unsolicited; replayed from the server's reply
    cache when the offer is retransmitted.
    """

    KIND: ClassVar[str] = "bertha.accept"
    VERSION: ClassVar[int] = 2

    conn_id: str
    dag: ChunnelDag
    choice: Dict[int, ChoiceEntry]
    data_addr: Address
    transport: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: The deciding side's policy epoch at decision time; clients key
    #: negotiation-cache entries on it (PROTOCOL.md §7).
    policy_epoch: int = 0


@control_message
@dataclass(frozen=True)
class Resume(ControlMessage):
    """One-RTT resumption request: re-establish the binding both ends
    cached at the last full negotiation, named rather than carried — the
    digest of the client DAG's shape (the server's lookup key) and the
    binding digest of the accepted ``(dag, choice)``.  The server skips
    offer gathering and the policy walk, revalidates reservations only,
    and answers ``bertha.resume_accept`` or ``bertha.resume_reject``
    (PROTOCOL.md §7).

    Direction: client → server, control socket.
    Retransmit: client resends on a fixed timeout; the server replays its
    original verdict per ``(kind, conn_id)`` on duplicates.
    """

    KIND: ClassVar[str] = "bertha.resume"
    VERSION: ClassVar[int] = 2

    conn_id: str
    client_entity: str
    policy_epoch: int
    shape_digest: Digest
    binding_digest: Digest


@control_message
@dataclass(frozen=True)
class ResumeReject(ControlMessage):
    """Resumption refusal: the cached binding is no longer valid (the
    server holds no entry for the shape digest, the policy epoch moved,
    the binding digest differs from the server's, or a reservation was
    denied).  The client evicts its cache entry and falls back
    to a full ``bertha.offer`` negotiation.

    Direction: server → client, control socket (reply to ``bertha.resume``).
    Retransmit: never sent unsolicited; replayed from the server's reply
    cache when the resume is retransmitted.
    """

    KIND: ClassVar[str] = "bertha.resume_reject"

    conn_id: str
    reason: str = ""


@control_message
@dataclass(frozen=True)
class Error(ControlMessage):
    """Negotiation failure: the error's type name and text, so the client
    re-raises the peer's exception class.

    Direction: server → client, control socket (reply to ``bertha.offer``).
    Retransmit: replayed from the server's reply cache like an accept.
    """

    KIND: ClassVar[str] = "bertha.error"

    conn_id: str
    error_type: str = "NegotiationError"
    error: str = "negotiation failed"

    @classmethod
    def from_exception(cls, conn_id: str, error: Exception) -> "Error":
        return cls(
            conn_id=conn_id, error_type=type(error).__name__, error=str(error)
        )

    def raise_remote(self) -> None:
        """Re-raise the peer-reported negotiation error locally."""
        for cls in (
            IncompatibleDagError,
            NoImplementationError,
            OfferReferenceError,
            ResourceExhaustedError,
        ):
            if cls.__name__ == self.error_type:
                raise cls(f"(from peer) {self.error}")
        raise NegotiationError(f"(from peer) {self.error_type}: {self.error}")


@control_message
@dataclass(frozen=True)
class Hello(ControlMessage):
    """First in-band datagram after establishment: tells the server the
    client's data address so server-initiated transitions can reach it even
    when the data path never touches the server's socket (offloads).

    Direction: client → server, in-band (data socket, ``bertha_ctl``
    header).
    Retransmit: none — best-effort; a lost hello only delays the server
    learning the return address until the first data datagram.
    """

    KIND: ClassVar[str] = "bertha.hello"

    conn_id: str


@control_message
@dataclass(frozen=True)
class Transition(ControlMessage):
    """Live-reconfiguration announcement: adopt stack ``epoch`` with the
    carried binding (full DAG + per-node choice), so the peer rebuilds
    without another negotiation round.

    Direction: transition initiator → peer, in-band (``bertha_ctl``).
    Retransmit: initiator resends on a fixed timeout until acked; the peer
    replays cached acks for already-seen epochs (two-phase commit, see
    PROTOCOL.md §"Live reconfiguration").
    """

    KIND: ClassVar[str] = "bertha.transition"

    conn_id: str
    epoch: int
    dag: ChunnelDag
    choice: Dict[int, ImplOffer]
    reason: str = ""


@control_message
@dataclass(frozen=True)
class TransitionAck(ControlMessage):
    """Transition acknowledgement (or refusal, with ``ok=False`` and an
    error string): the epoch is (or could not be made) live on the peer.

    Direction: transition peer → initiator, in-band (``bertha_ctl``).
    Retransmit: sent once per received TRANSITION; duplicates of the
    TRANSITION re-trigger it from the peer's per-epoch ack cache.
    """

    KIND: ClassVar[str] = "bertha.transition_ack"

    conn_id: str
    epoch: int
    ok: bool
    error: Optional[str] = None


@control_message
@dataclass(frozen=True)
class TransitionRequest(ControlMessage):
    """Client-initiated reconfiguration: please renegotiate this
    connection (the decision still runs on the server, like establishment).

    Direction: client → server, in-band (``bertha_ctl``).
    Retransmit: none — best-effort; the client's trigger fires again if the
    condition persists.
    """

    KIND: ClassVar[str] = "bertha.transition_request"

    conn_id: str
    reason: str = ""


# --------------------------------------------------------------------------
# Connection survivability: liveness probes and migration (PROTOCOL.md §9)
# --------------------------------------------------------------------------
@control_message
@dataclass(frozen=True)
class Heartbeat(ControlMessage):
    """Per-connection liveness probe, sent on the data socket while it is
    otherwise idle.  ``seq`` matches probe to answer; any inbound traffic
    (data, acks, or a heartbeat answer) counts as liveness, so probes only
    flow when the connection is quiet.

    Direction: failover watcher (client) → peer, in-band (``bertha_ctl``).
    Retransmit: none per probe — the watcher counts consecutive unanswered
    probes against an adaptive RTT-derived timeout and suspects the peer
    after the miss threshold.
    """

    KIND: ClassVar[str] = "bertha.heartbeat"

    conn_id: str
    seq: int


@control_message
@dataclass(frozen=True)
class HeartbeatAck(ControlMessage):
    """Liveness probe answer, echoing the probe's ``seq`` so the watcher
    can compute an RTT sample for its adaptive suspicion timeout.

    Direction: peer → failover watcher, in-band (``bertha_ctl``).
    Retransmit: sent once per received heartbeat.
    """

    KIND: ClassVar[str] = "bertha.heartbeat_ack"

    conn_id: str
    seq: int


@control_message
@dataclass(frozen=True)
class Migrate(ControlMessage):
    """Mid-connection failover handshake: after renegotiating with a
    standby, the client announces migration epoch ``epoch`` on its rebound
    data socket so the standby learns the return address and the epoch
    under which replayed and future data will arrive.

    Direction: migrating client → standby server, in-band (``bertha_ctl``)
    on the rebound data socket.
    Retransmit: client resends on a fixed timeout until acked; the server
    replays cached acks per ``(conn_id, epoch)`` on duplicates.
    """

    KIND: ClassVar[str] = "bertha.migrate"

    conn_id: str
    epoch: int
    client_entity: str = ""


@control_message
@dataclass(frozen=True)
class MigrateAck(ControlMessage):
    """Migration acknowledgement: the standby accepted the migration epoch
    and is ready to receive the replayed unacked window.

    Direction: standby server → migrating client, in-band (``bertha_ctl``).
    Retransmit: sent once per received MIGRATE; duplicates re-trigger it
    from the server's per-``(conn_id, epoch)`` ack cache.
    """

    KIND: ClassVar[str] = "bertha.migrate_ack"

    conn_id: str
    epoch: int
    ok: bool = True
    error: Optional[str] = None


# --------------------------------------------------------------------------
# Discovery RPCs (§4.2)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class DiscoveryMessage(ControlMessage):
    """Base for discovery requests/replies: all carry a requester-unique
    ``req_id`` (reply matching and at-most-once dedup) and an ``attempt``
    tag (late-reply detection), as their first two fields."""

    req_id: Optional[str] = None
    attempt: Any = 0

    def stamped(self, req_id: Optional[str], attempt: Any) -> "DiscoveryMessage":
        """A copy carrying the given request id and attempt tag."""
        return dataclasses.replace(self, req_id=req_id, attempt=attempt)


@control_message
@dataclass(frozen=True)
class Query(DiscoveryMessage):
    """Discovery query: all registered offers for the given Chunnel types,
    plus — when ``service_name`` is set — the service's instance addresses.

    Direction: any runtime → discovery service, dedicated socket.
    Retransmit: client resends with capped exponential backoff ± jitter;
    the service dedups by ``(kind, req_id)`` and replays the cached reply.
    """

    KIND: ClassVar[str] = "disc.query"

    types: List[str] = field(default_factory=list)
    service_name: Optional[str] = None


@control_message
@dataclass(frozen=True)
class QueryReply(DiscoveryMessage):
    """Query result: offers by Chunnel type and resolved instances.

    Direction: discovery service → requester (reply to ``disc.query``).
    Retransmit: replayed verbatim from the service's reply cache on
    duplicate requests; ``attempt`` echoes the triggering request's tag.
    """

    KIND: ClassVar[str] = "disc.query_reply"

    offers: Dict[str, List[ImplOffer]] = field(default_factory=dict)
    instances: List[Address] = field(default_factory=list)


@control_message
@dataclass(frozen=True)
class Reserve(DiscoveryMessage):
    """Take one holder's reference on the ``(record_id, owner)`` lease.
    Creating the lease runs admission and charges the record's resources
    once (§6's contended-offload accounting); a further reference — another
    runtime sharing a group-scoped owner — only counts.  A runtime sends
    this when it holds no reference of its own; while it holds one, its
    further connections ask ``disc.lease_check`` instead.

    Direction: any runtime → discovery service, dedicated socket.
    Retransmit: backoff like ``disc.query``; at-most-once — a retransmitted
    reserve replays the original verdict instead of double-counting.
    """

    KIND: ClassVar[str] = "disc.reserve"

    record_id: str = ""
    owner: str = ""


@control_message
@dataclass(frozen=True)
class ReserveReply(DiscoveryMessage):
    """Reservation verdict (``ok=False`` means capacity is exhausted or the
    record is unknown — the caller moves down its ranking).

    Direction: discovery service → requester (reply to ``disc.reserve``).
    Retransmit: replayed from the reply cache on duplicate requests.
    """

    KIND: ClassVar[str] = "disc.reserve_reply"

    ok: bool = False


@control_message
@dataclass(frozen=True)
class LeaseCheck(DiscoveryMessage):
    """Ask whether the ``(record_id, owner)`` lease still stands: a read.
    A runtime that already holds a reference sends this, instead of
    another ``disc.reserve``, for each further connection it binds under
    the lease; nothing at the service changes.

    Direction: any runtime → discovery service (sharded: the record's
    shard primary), dedicated socket.
    Retransmit: backoff like ``disc.query``; answered from local state and
    never logged, so a retransmit is simply answered again (or replayed
    from the reply cache).
    """

    KIND: ClassVar[str] = "disc.lease_check"

    record_id: str = ""
    owner: str = ""


@control_message
@dataclass(frozen=True)
class LeaseCheckReply(DiscoveryMessage):
    """Lease-check verdict: ``ok`` iff the record exists and the lease
    stands (``ok=False``: revoked, preempted or never taken — the holder
    drops its entry and reserves afresh, which re-runs admission).

    Direction: discovery service → requester (reply to
    ``disc.lease_check``).
    Retransmit: replayed from the reply cache on duplicate requests.
    """

    KIND: ClassVar[str] = "disc.lease_check_reply"

    ok: bool = False


@control_message
@dataclass(frozen=True)
class Release(DiscoveryMessage):
    """Give back one holder's reference on the ``(record_id, owner)``
    lease — sent when a runtime's last connection under it goes; the
    service frees the resources with the last holder's reference.

    Direction: any runtime → discovery service, dedicated socket.
    Retransmit: backoff like ``disc.query``; at-most-once per ``req_id``
    (releasing an unheld lease is a no-op), fire-and-forget at most callers.
    """

    KIND: ClassVar[str] = "disc.release"

    record_id: str = ""
    owner: str = ""


@control_message
@dataclass(frozen=True)
class ReleaseReply(DiscoveryMessage):
    """Release confirmation.

    Direction: discovery service → requester (reply to ``disc.release``).
    Retransmit: replayed from the reply cache on duplicate requests.
    """

    KIND: ClassVar[str] = "disc.release_reply"

    ok: bool = True


@control_message
@dataclass(frozen=True)
class Watch(DiscoveryMessage):
    """Subscribe ``address`` to revocation/preemption pushes for a record.

    Direction: any runtime → discovery service, dedicated socket.
    Retransmit: backoff like ``disc.query``; re-subscribing is idempotent.
    """

    KIND: ClassVar[str] = "disc.watch"

    record_id: str = ""
    address: Optional[Address] = None


@control_message
@dataclass(frozen=True)
class WatchReply(DiscoveryMessage):
    """Watch confirmation.

    Direction: discovery service → requester (reply to ``disc.watch``).
    Retransmit: replayed from the reply cache on duplicate requests.
    """

    KIND: ClassVar[str] = "disc.watch_reply"

    ok: bool = True


@control_message
@dataclass(frozen=True)
class RegisterName(DiscoveryMessage):
    """Register a service instance with the cluster name service.

    Direction: listener → discovery service, dedicated socket.
    Retransmit: backoff like ``disc.query``; idempotent.
    """

    KIND: ClassVar[str] = "disc.register_name"

    name: str = ""
    address: Optional[Address] = None


@control_message
@dataclass(frozen=True)
class RegisterNameReply(DiscoveryMessage):
    """Name-registration confirmation.

    Direction: discovery service → requester (reply to
    ``disc.register_name``).
    Retransmit: replayed from the reply cache on duplicate requests.
    """

    KIND: ClassVar[str] = "disc.register_name_reply"

    ok: bool = True


# Kind ids 26 and 27 were disc.unregister_name and its reply, which no
# client sent; ids are positional, so the slots stay taken.
retire_frame_ids(2)


@control_message
@dataclass(frozen=True)
class ServiceError(DiscoveryMessage):
    """Discovery-service error reply (unknown or malformed request), so a
    misbehaving client stops retransmitting instead of timing out.

    Direction: discovery service → requester.
    Retransmit: sent once per offending request.
    """

    KIND: ClassVar[str] = "disc.error"

    error: str = ""


# --------------------------------------------------------------------------
# Sharded discovery tier (PROTOCOL.md §8)
# --------------------------------------------------------------------------
@control_message
@dataclass(frozen=True)
class GetShardMap(DiscoveryMessage):
    """Fetch the current shard map: which discovery shard owns which
    chunnel types and service names, and each shard's primary replica.

    Direction: any runtime → shard router, dedicated socket.
    Retransmit: backoff like ``disc.query``; the reply is idempotent (the
    map is versioned, so duplicates are harmless).
    """

    KIND: ClassVar[str] = "disc.shard_map"



@control_message
@dataclass(frozen=True)
class ShardMapReply(DiscoveryMessage):
    """The shard map: a monotonically versioned list of shard descriptors
    (``shard_id``, ``primary`` address, ``replicas`` addresses).  Clients
    route by hashing chunnel type / service name over ``len(shards)`` and
    refresh the map when a primary stops answering.

    Direction: shard router → requester (reply to ``disc.shard_map``).
    Retransmit: replayed from the router's reply cache on duplicates.
    """

    KIND: ClassVar[str] = "disc.shard_map_reply"

    version: int = 0
    shards: List[Any] = field(default_factory=list)


@control_message
@dataclass(frozen=True)
class Ping(DiscoveryMessage):
    """Liveness probe for a shard primary (the router's failure detector).

    Direction: shard router → shard replica, dedicated socket.
    Retransmit: none per probe — the router counts consecutive unanswered
    probes and promotes a standby after the miss threshold.
    """

    KIND: ClassVar[str] = "disc.ping"



@control_message
@dataclass(frozen=True)
class Pong(DiscoveryMessage):
    """Liveness probe answer.

    Direction: shard replica → shard router (reply to ``disc.ping``).
    Retransmit: sent once per received probe.
    """

    KIND: ClassVar[str] = "disc.pong"

    ok: bool = True


@control_message
@dataclass(frozen=True)
class Promote(DiscoveryMessage):
    """Failover handshake: the router instructs a standby replica to take
    over as primary of ``shard_id`` under map version ``version``.  The
    promoted replica starts serving reads/pushes and re-mirrors its name
    table; watchers re-subscribe via the refreshed map.

    Direction: shard router → shard replica, dedicated socket.
    Retransmit: backoff like ``disc.query``; promotion is idempotent for
    the same (shard, version) pair.
    """

    KIND: ClassVar[str] = "disc.promote"

    shard_id: int = 0
    version: int = 0


@control_message
@dataclass(frozen=True)
class PromoteReply(DiscoveryMessage):
    """Promotion acknowledgement (``ok=False`` when the replica refuses —
    e.g. it has already seen a newer map version).

    Direction: shard replica → shard router (reply to ``disc.promote``).
    Retransmit: replayed from the reply cache on duplicate requests.
    """

    KIND: ClassVar[str] = "disc.promote_reply"

    ok: bool = True
    version: int = 0


# --------------------------------------------------------------------------
# Discovery pushes (no reply expected)
# --------------------------------------------------------------------------
@control_message
@dataclass(frozen=True)
class Revoked(ControlMessage):
    """Push: an offload record was revoked (operator action or device
    failure); holders should renegotiate away from it.

    Direction: discovery service → every watcher of the record.
    Retransmit: none — best-effort; the reservation audit sweeps up
    watchers that missed it.
    """

    KIND: ClassVar[str] = "disc.revoked"

    record_id: str = ""


@control_message
@dataclass(frozen=True)
class LeaseRevoked(ControlMessage):
    """Push: one owner's lease was preempted by a higher-priority
    reservation; only that owner must move.

    Direction: discovery service → every watcher of the record.
    Retransmit: none — best-effort, like ``disc.revoked``.
    """

    KIND: ClassVar[str] = "disc.lease_revoked"

    record_id: str = ""
    owner: str = ""


# --------------------------------------------------------------------------
# Later kinds: declared last, so every earlier kind keeps its id
# --------------------------------------------------------------------------
@control_message
@dataclass(frozen=True)
class ResumeAccept(ControlMessage):
    """Resumption success: only what the resume made new — the data-path
    address, transport, negotiated parameters and the server's policy
    epoch.  The client already holds the binding the RESUME named and
    rebuilds the ``bertha.accept`` from its cache entry.

    Direction: server → client, control socket (reply to ``bertha.resume``).
    Retransmit: never sent unsolicited; replayed from the server's reply
    cache when the resume is retransmitted.
    """

    KIND: ClassVar[str] = "bertha.resume_accept"

    conn_id: str
    data_addr: Address
    transport: str
    params: Dict[str, Any] = field(default_factory=dict)
    policy_epoch: int = 0

    def with_binding(self, dag: ChunnelDag, choice: Dict[int, ChoiceEntry]) -> Accept:
        """The ``bertha.accept`` for this connection on ``dag``/``choice``."""
        return Accept(
            conn_id=self.conn_id,
            dag=dag,
            choice=choice,
            data_addr=self.data_addr,
            transport=self.transport,
            params=self.params,
            policy_epoch=self.policy_epoch,
        )
