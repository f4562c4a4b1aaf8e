"""Runtime-side discovery clients.

The Bertha runtime talks to the discovery service when establishing
connections.  Three client flavours share one generator-based interface
(each method is a generator a simulation process drives with ``yield
from``):

``RemoteDiscoveryClient``
    The real thing: request/response over the network.  The ``query`` it
    performs per connection is one of Figure 3's two extra round trips.

``DirectDiscoveryClient``
    Calls a co-located :class:`DiscoveryService` object with zero network
    cost.  Used by unit tests and by deployments that embed the service.

``NullDiscoveryClient``
    No discovery at all: queries return nothing, reservations succeed.
    Lets a two-process Bertha app run with only process-registered
    fallbacks, and resolves names straight from the cluster name service.
"""

from __future__ import annotations

import random
import zlib
from typing import TYPE_CHECKING, Optional

from ..core import messages as msgs
from ..core import rpc
from ..core.chunnel import Offer
from ..core.wire import WireError
from ..sim.datagram import Address
from ..sim.transport import UdpSocket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.host import NetEntity
    from .service import DiscoveryService

__all__ = [
    "QueryResult",
    "DiscoveryClientBase",
    "RemoteDiscoveryClient",
    "DirectDiscoveryClient",
    "NullDiscoveryClient",
]

#: :class:`RemoteDiscoveryClient`'s default first wait and backoff factor.
RETRY_TIMEOUT = 2e-3
RETRY_BACKOFF = 2.0
#: The ± fraction every wait is scaled by (desynchronizes retransmits).
RETRY_JITTER = 0.2


class QueryResult:
    """What one discovery query returns."""

    def __init__(self, offers: dict[str, list[Offer]], instances: list[Address]):
        self.offers = offers
        self.instances = instances

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryResult offers={{{', '.join(self.offers)}}} "
            f"instances={len(self.instances)}>"
        )


class DiscoveryClientBase:
    """Interface shared by all discovery clients.

    Every client implements the same generator methods, driven with
    ``yield from``: ``query(types, service_name=None, *, deadline=None)``
    → :class:`QueryResult`; ``reserve(record_id, owner)`` and
    ``lease_check(record_id, owner)`` → bool (a lease check is a read —
    nothing at the service changes);
    ``release(record_id, owner)``, ``register_name(name, address)`` and
    ``watch(record_id, address)`` → None (a watch subscribes ``address``
    to ``disc.revoked`` / ``disc.lease_revoked`` pushes for the record).

    A query's ``deadline`` is an *absolute* virtual-time budget
    (``env.now`` units) the network-backed clients thread into
    :func:`repro.core.rpc.call`; zero-cost clients accept and ignore it so
    callers can pass it unconditionally.
    """


class RemoteDiscoveryClient(DiscoveryClientBase):
    """Talks to the discovery service over the network.

    Retransmission uses capped exponential backoff with jitter: attempt
    ``n`` waits ``timeout * backoff**n`` (clamped to ``max_timeout``),
    scaled by a uniform ±:data:`RETRY_JITTER` fraction drawn from a per-client
    seeded RNG (seeded from the entity name, so runs are deterministic
    but clients don't retransmit in lockstep).

    Requests carry both a per-call ``req_id`` and a per-send ``attempt``
    tag the service echoes back, so a reply to attempt N arriving during
    attempt N+1 is still accepted (same ``req_id``) but counted in
    :attr:`late_replies` — making retransmit-induced round trips visible
    in metrics instead of silently inflating :attr:`round_trips`.
    """

    def __init__(
        self,
        entity: "NetEntity",
        service_address: Address,
        timeout: float = RETRY_TIMEOUT,
        retries: int = 5,
        backoff: float = RETRY_BACKOFF,
        max_timeout: float = 20e-3,
        stats: Optional[rpc.RpcStats] = None,
        req_tag: Optional[str] = None,
    ):
        self.policy = rpc.RetryPolicy(
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            max_timeout=max_timeout,
            jitter=RETRY_JITTER,
        )
        self.entity = entity
        self.env = entity.env
        self.service_address = service_address
        # crc32, not hash(): hash() is salted per process and would make
        # the retransmit schedule nondeterministic across runs.
        self._rng = random.Random(zlib.crc32(entity.name.encode()))
        self._req_counter = 0
        #: Request ids must be unique per service, and the service dedups
        #: them globally — so when several clients share one entity (the
        #: sharded client's pool), each needs its own namespace or their
        #: counters collide and the dedup cache replays one client's reply
        #: to another's fresh request.
        self._req_prefix = (
            f"{entity.name}#{req_tag}" if req_tag else entity.name
        )
        # ``stats`` lets an aggregating caller (the sharded client routes
        # through one RemoteDiscoveryClient per shard primary) charge all
        # its children to one shared counter set.
        self.stats = stats if stats is not None else rpc.RpcStats()

    # The ablations read discovery round trips straight off the client.
    @property
    def round_trips(self) -> int:
        return self.stats.round_trips

    def _rpc(
        self,
        request: "msgs.DiscoveryMessage",
        deadline: Optional[float] = None,
    ):
        """One request/response exchange with backoff-based retransmit."""
        self._req_counter += 1
        req_id = f"{self._req_prefix}-{self._req_counter}"
        socket = UdpSocket(self.entity)

        def send(attempt: int) -> None:
            payload, size = msgs.encode_message_sized(
                request.stamped(req_id, attempt)
            )
            socket.send(
                payload, self.service_address, size=size
            )

        def match(dgram, attempt: int):
            try:
                reply = msgs.decode_message(dgram.payload)
            except WireError:
                return None
            if getattr(reply, "req_id", None) != req_id:
                return None
            if getattr(reply, "attempt", attempt) != attempt:
                self.stats.late_replies += 1
            return reply

        try:
            return (
                yield from rpc.call(
                    self.env,
                    self.policy,
                    send,
                    rpc.socket_waiter(self.env, socket, match),
                    stats=self.stats,
                    rng=self._rng,
                    describe=f"discovery service at {self.service_address}",
                    trace=self.entity.network.trace,
                    deadline=deadline,
                )
            )
        finally:
            socket.close()

    def query(self, types, service_name=None, *, deadline=None):
        reply = yield from self._rpc(
            msgs.Query(types=sorted(set(types)), service_name=service_name),
            deadline=deadline,
        )
        if not isinstance(reply, msgs.QueryReply):
            return QueryResult({}, [])
        return QueryResult(dict(reply.offers), list(reply.instances))

    def reserve(self, record_id, owner):
        reply = yield from self._rpc(msgs.Reserve(record_id=record_id, owner=owner))
        return isinstance(reply, msgs.ReserveReply) and reply.ok

    def lease_check(self, record_id, owner):
        reply = yield from self._rpc(msgs.LeaseCheck(record_id=record_id, owner=owner))
        return isinstance(reply, msgs.LeaseCheckReply) and reply.ok

    def release(self, record_id, owner):
        yield from self._rpc(msgs.Release(record_id=record_id, owner=owner))

    def register_name(self, name, address):
        yield from self._rpc(msgs.RegisterName(name=name, address=address))

    def watch(self, record_id, address):
        yield from self._rpc(msgs.Watch(record_id=record_id, address=address))


class DirectDiscoveryClient(DiscoveryClientBase):
    """Zero-cost calls into a co-located service object."""

    def __init__(self, service: "DiscoveryService"):
        self.service = service
        self.round_trips = 0

    def query(self, types, service_name=None, *, deadline=None):
        offers = self.service.offers_for(sorted(set(types)))
        instances = []
        if service_name:
            instances = [
                r.address for r in self.service.network.names.resolve(service_name)
            ]
        return QueryResult(offers, instances)
        yield  # pragma: no cover - generator form, never reached

    def reserve(self, record_id, owner):
        return self.service.reserve(record_id, owner)
        yield  # pragma: no cover

    def lease_check(self, record_id, owner):
        return self.service.lease_check(record_id, owner)
        yield  # pragma: no cover

    def release(self, record_id, owner):
        self.service.release(record_id, owner)
        return None
        yield  # pragma: no cover

    def register_name(self, name, address):
        self.service.register_name(name, address)
        return None
        yield  # pragma: no cover

    def watch(self, record_id, address):
        self.service.add_watch(record_id, address)
        return None
        yield  # pragma: no cover


class NullDiscoveryClient(DiscoveryClientBase):
    """No discovery service: local fallbacks only, names from the cluster."""

    def __init__(self, entity: "NetEntity"):
        self.entity = entity
        self.round_trips = 0

    def query(self, types, service_name=None, *, deadline=None):
        instances = []
        if service_name:
            instances = [
                r.address
                for r in self.entity.network.names.resolve(service_name)
            ]
        return QueryResult({t: [] for t in types}, instances)
        yield  # pragma: no cover

    def reserve(self, record_id, owner):
        return True
        yield  # pragma: no cover

    def lease_check(self, record_id, owner):
        return True
        yield  # pragma: no cover

    def release(self, record_id, owner):
        return None
        yield  # pragma: no cover

    def register_name(self, name, address):
        self.entity.network.names.register(name, address)
        return None
        yield  # pragma: no cover

    def watch(self, record_id, address):
        return None  # no service, nothing will ever push
        yield  # pragma: no cover
