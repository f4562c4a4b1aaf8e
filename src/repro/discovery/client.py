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
from typing import TYPE_CHECKING, Iterable, Optional

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
    """Interface shared by all discovery clients (all methods generators).

    ``deadline`` on :meth:`query` / :meth:`reserve` / :meth:`lease_check`
    is an *absolute*
    virtual-time budget (``env.now`` units) the network-backed clients
    thread into :func:`repro.core.rpc.call`; zero-cost clients accept and
    ignore it so callers can pass it unconditionally.
    """

    def query(
        self,
        types: Iterable[str],
        service_name: Optional[str] = None,
        *,
        deadline: Optional[float] = None,
    ):
        """Generator → :class:`QueryResult`."""
        raise NotImplementedError
        yield  # pragma: no cover

    def reserve(
        self, record_id: str, owner: str, *, deadline: Optional[float] = None
    ):
        """Generator → bool."""
        raise NotImplementedError
        yield  # pragma: no cover

    def lease_check(
        self, record_id: str, owner: str, *, deadline: Optional[float] = None
    ):
        """Generator → bool: does the ``(record_id, owner)`` lease stand?
        A read — nothing at the service changes."""
        raise NotImplementedError
        yield  # pragma: no cover

    def release(self, record_id: str, owner: str):
        """Generator → None."""
        raise NotImplementedError
        yield  # pragma: no cover

    def register_name(self, name: str, address: Address):
        """Generator → None."""
        raise NotImplementedError
        yield  # pragma: no cover

    def unregister_name(self, name: str, address: Address):
        """Generator → None."""
        raise NotImplementedError
        yield  # pragma: no cover

    def watch(self, record_id: str, address: Address):
        """Generator → None.  Subscribe ``address`` to revocation pushes
        (``disc.revoked`` / ``disc.lease_revoked``) for ``record_id``."""
        raise NotImplementedError
        yield  # pragma: no cover


class RemoteDiscoveryClient(DiscoveryClientBase):
    """Talks to the discovery service over the network.

    Retransmission uses capped exponential backoff with jitter: attempt
    ``n`` waits ``timeout * backoff**n`` (clamped to ``max_timeout``),
    scaled by a uniform ±``jitter`` fraction drawn from a per-client
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
        timeout: float = 2e-3,
        retries: int = 5,
        backoff: float = 2.0,
        max_timeout: float = 20e-3,
        jitter: float = 0.2,
        stats: Optional[rpc.RpcStats] = None,
        req_tag: Optional[str] = None,
    ):
        self.policy = rpc.RetryPolicy(
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            max_timeout=max_timeout,
            jitter=jitter,
        )
        self.entity = entity
        self.env = entity.env
        self.service_address = service_address
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_timeout = max_timeout
        self.jitter = jitter
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

    # Counter views over the shared RPC stats (the chaos experiment and
    # the robustness tests read these names).
    @property
    def round_trips(self) -> int:
        return self.stats.round_trips

    @property
    def retransmits_total(self) -> int:
        return self.stats.retransmits_total

    @property
    def late_replies(self) -> int:
        return self.stats.late_replies

    @property
    def failures_total(self) -> int:
        return self.stats.failures_total

    def _attempt_timeout(self, attempt: int) -> float:
        return self.policy.attempt_timeout(attempt, self._rng)

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

    def reserve(self, record_id, owner, *, deadline=None):
        reply = yield from self._rpc(
            msgs.Reserve(record_id=record_id, owner=owner), deadline=deadline
        )
        return isinstance(reply, msgs.ReserveReply) and reply.ok

    def lease_check(self, record_id, owner, *, deadline=None):
        reply = yield from self._rpc(
            msgs.LeaseCheck(record_id=record_id, owner=owner), deadline=deadline
        )
        return isinstance(reply, msgs.LeaseCheckReply) and reply.ok

    def release(self, record_id, owner):
        yield from self._rpc(msgs.Release(record_id=record_id, owner=owner))

    def register_name(self, name, address):
        yield from self._rpc(msgs.RegisterName(name=name, address=address))

    def unregister_name(self, name, address):
        yield from self._rpc(msgs.UnregisterName(name=name, address=address))

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

    def reserve(self, record_id, owner, *, deadline=None):
        return self.service.reserve(record_id, owner)
        yield  # pragma: no cover

    def lease_check(self, record_id, owner, *, deadline=None):
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

    def unregister_name(self, name, address):
        self.service.unregister_name(name, address)
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

    def reserve(self, record_id, owner, *, deadline=None):
        return True
        yield  # pragma: no cover

    def lease_check(self, record_id, owner, *, deadline=None):
        return True
        yield  # pragma: no cover

    def release(self, record_id, owner):
        return None
        yield  # pragma: no cover

    def register_name(self, name, address):
        self.entity.network.names.register(name, address)
        return None
        yield  # pragma: no cover

    def unregister_name(self, name, address):
        self.entity.network.names.unregister(name, address)
        return None
        yield  # pragma: no cover

    def watch(self, record_id, address):
        return None  # no service, nothing will ever push
        yield  # pragma: no cover
