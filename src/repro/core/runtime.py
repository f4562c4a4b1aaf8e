"""The Bertha runtime: endpoints, listeners, and connection establishment.

This module is the paper's §4 made concrete:

* :class:`Runtime` — one per application process.  Holds the process's
  fallback-implementation registry (Listing 5), its discovery client, the
  operator policy, and the shares reused across connections (installed
  device programs and such, :meth:`~repro.core.stack.SetupContext.share`).

* :class:`Endpoint` — what ``runtime.new(name, dag)`` returns, the Bertha
  equivalent of a socket (§3.1).  ``listen`` produces a :class:`Listener`;
  ``connect`` negotiates with one server (or a whole replica group, Listing
  2) and returns a :class:`~repro.core.connection.Connection`.

* :class:`Listener` — accepts connections: for each client offer it unifies
  DAGs, gathers offers from the client, its own registry, and the discovery
  service, ranks them with the operator policy, confirms reservations, runs
  the chosen implementations' setup hooks, and replies with the binding.

Establishing a connection costs exactly two control round trips on the
client: one discovery query (implementation offers + name resolution) and
one offer/accept exchange with the server — the overhead measured in the
paper's Figure 3.  Reservation RPCs happen only when a chosen
implementation declares resource needs.

With the negotiation cache enabled (``Runtime(negotiation_cache_size=N)``,
off by default), a repeat connect to the same peer under an unchanged DAG
and policy epoch takes the one-round-trip RESUME fast path instead
(PROTOCOL.md §7): the client names the binding both ends cached by its
digest, the server revalidates reservations only and answers with the new
data path alone, and any mismatch falls back to the full exchange
transparently.
"""

from __future__ import annotations

import dataclasses
import logging
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Union

import warnings

from ..errors import (
    BerthaError,
    ConnectionTimeoutError,
    DegradedEstablishmentWarning,
    NegotiationError,
    NoImplementationError,
    OfferReferenceError,
)
from ..sim.datagram import Address
from ..sim.eventloop import Event, Interrupt
from ..sim.resources import Store
from ..sim.transport import SimSocket, UdpSocket
from . import messages as msgs
from . import rpc
from .chunnel import ChunnelSpec, Offer, Role
from .connection import Connection, next_conn_id
from .dag import ChunnelDag, wrap
from .establish import establish_connection
from .leases import LeaseHandle, LeaseTable
from .negcache import NegotiationCache, binding_digest, offers_digest, shape_digest
from .negotiation import (
    candidate_pool,
    decide_with_reservations,
    reserve_choice,
)
from .policy import DefaultPolicy, Policy, PolicyContext
from .registry import ChunnelRegistry, ImplCatalog, catalog as default_catalog
from .scope import Endpoints
from .wire import WireError, wire_kind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.host import NetEntity

__all__ = ["Runtime", "Endpoint", "Listener"]

ConnectTarget = Union[Address, str, Sequence[Address]]

_log = logging.getLogger("repro.ctl")


def _referenced(lists: dict, reference) -> dict:
    """Per-type offer lists for an OFFER: each offer as ``reference(offer)``,
    or in full where that is None."""
    return {
        ctype: [reference(offer) or offer for offer in offers]
        for ctype, offers in lists.items()
    }


def _expand_references(lists: dict, resolve) -> dict[str, list[Offer]]:
    """Per-type OFFER lists with every reference replaced by
    ``resolve(chunnel_type, reference)``; a reference that resolves to
    None raises :class:`OfferReferenceError`, since it is never guessed."""
    expanded: dict[str, list[Offer]] = {}
    for ctype, entries in lists.items():
        offers = expanded[ctype] = []
        for entry in entries:
            offer = entry if isinstance(entry, Offer) else resolve(ctype, entry)
            if offer is None:
                raise OfferReferenceError(f"no {ctype!r} offer {entry!r} here")
            offers.append(offer)
    return expanded


def _node_entries(offer: "msgs.Offer", dag: ChunnelDag, node_id: int) -> list:
    """What an ACCEPT choice index for ``node_id`` counts through: the
    expanded OFFER's client offers for the node's type, then its network
    offers."""
    spec = dag.nodes.get(node_id)
    if spec is None:
        return []
    ctype = spec.type_name
    return offer.offers.get(ctype, []) + offer.network_offers.get(ctype, [])


def _choice_references(offer: "msgs.Offer", dag: ChunnelDag, choice: dict) -> dict:
    """The ACCEPT's choice: each node's offer by its index in the expanded
    ``offer``'s entries for the node, in full where the OFFER did not
    carry it."""
    references = {}
    for node_id, chosen in choice.items():
        entries = _node_entries(offer, dag, node_id)
        references[node_id] = entries.index(chosen) if chosen in entries else chosen
    return references


def _rebuilt_accept(accept: "msgs.Accept", offer: "msgs.Offer") -> "msgs.Accept":
    """``accept`` with every choice index replaced by the offer it names in
    the full ``offer`` this side sent: the binding the server encoded."""
    choice = {}
    for node_id, entry in accept.choice.items():
        if not isinstance(entry, Offer):
            entries = _node_entries(offer, accept.dag, node_id)
            if not 0 <= entry < len(entries):
                raise NegotiationError(
                    f"{accept.conn_id}: choice index {entry} for node "
                    f"{node_id} names no offer"
                )
            entry = entries[entry]
        choice[node_id] = entry
    return dataclasses.replace(accept, choice=choice)


class Runtime:
    """Per-process Bertha runtime state."""

    def __init__(
        self,
        entity: "NetEntity",
        discovery=None,
        policy: Optional[Policy] = None,
        catalog: Optional[ImplCatalog] = None,
        client_discovery_ttl: Optional[float] = None,
        optimizer=None,
        negotiation_cache_size: int = 0,
        ephemeral_connections: bool = False,
        failover=None,
    ):
        from ..discovery.client import (
            DirectDiscoveryClient,
            DiscoveryClientBase,
            NullDiscoveryClient,
            RemoteDiscoveryClient,
        )
        from ..discovery.service import DiscoveryService

        self.entity = entity
        self.env = entity.env
        self.network = entity.network
        self.catalog = catalog or default_catalog
        self.registry = ChunnelRegistry(self.catalog)
        self.policy = policy or DefaultPolicy()
        #: Runtime-wide shares by key; only :mod:`repro.core.stack`
        #: (``SetupContext.share``) reads or writes it.
        self.shared: dict = {}
        #: Client-side discovery caching: None (the default, and the
        #: paper's behaviour) queries discovery on every connect — which is
        #: what makes Figure 4's dynamic switchover work.  A number enables
        #: caching query results for that many seconds: cheaper connects,
        #: stale placement.  The caching ablation quantifies the trade.
        self.client_discovery_ttl = client_discovery_ttl
        self._query_cache: dict = {}
        #: Optional §6 DAG optimizer; when set, listeners reorder/merge/
        #: specialize the unified DAG before choosing implementations.
        self.optimizer = optimizer
        self._reconfig = None
        #: Fleet-scale mode: a closed connection unbinds its per-connection
        #: metrics instead of freezing them, so a world driving 10^5
        #: establishments keeps a registry proportional to *live*
        #: connections.  Off by default — per-connection history stays
        #: visible in snapshots, byte-identical with earlier baselines.
        self.ephemeral_connections = ephemeral_connections
        #: Degraded-mode establishment metrics: connections that proceeded
        #: with fallback-only stacks because discovery was unreachable.
        self.degraded_establishments = 0
        self.degraded_events: list[dict] = []
        #: ``disc.release`` calls that timed out (the lease table keeps
        #: the entry as owed and retries with its next last release).
        self.release_failures = 0
        #: This process's references on discovery leases: one per
        #: ``(record_id, owner)`` at the service however many connections
        #: share it (PROTOCOL.md §2).
        self.leases = LeaseTable(self)
        #: Shared RPC counters for this process's negotiation exchanges
        #: (the offer/accept loop charges the same counter names the
        #: discovery client does — one retransmit dialect).
        self.negotiation_stats = rpc.RpcStats()
        #: Operator-policy generation.  Bumping it (``bump_policy_epoch``)
        #: invalidates every cached negotiation result: resumption keys and
        #: the ``bertha.resume``/``bertha.resume_accept`` epoch check both
        #: carry it.
        self.policy_epoch = 0
        #: Negotiation-result cache for one-RTT resumption (PROTOCOL.md
        #: §7).  Disabled by default (size 0): with the cache off, not a
        #: single wire byte or timing changes.  Clients key entries on the
        #: connect target; servers on the resuming client entity.
        self.negcache = NegotiationCache(
            size=negotiation_cache_size,
            clock=lambda: self.env.now,
        )
        #: Record ids the cache holds entries for and has already
        #: subscribed to revocation pushes on (dedup for watch_record).
        self._negcache_watched: set = set()
        if discovery is None:
            self.discovery = NullDiscoveryClient(entity)
        elif isinstance(discovery, Address):
            self.discovery = RemoteDiscoveryClient(entity, discovery)
        elif isinstance(discovery, DiscoveryService):
            self.discovery = DirectDiscoveryClient(discovery)
        elif isinstance(discovery, DiscoveryClientBase):
            self.discovery = discovery
        else:
            raise TypeError(f"unsupported discovery argument {discovery!r}")
        # Register this process's counters with the world's metrics
        # registry (replace: a rebuilt runtime on the same entity — e.g. a
        # simulated process restart — takes over its predecessor's names).
        obs = self.network.obs
        name = entity.name
        obs.bind_stats(f"rpc.negotiation.{name}", self.negotiation_stats)
        obs.bind(
            f"runtime.{name}.degraded_establishments",
            self,
            "degraded_establishments",
            replace=True,
        )
        obs.bind(
            f"runtime.{name}.release_failures", self, "release_failures", replace=True
        )
        stats = getattr(self.discovery, "stats", None)
        if stats is not None:
            obs.bind_stats(f"rpc.discovery.{name}", stats)
        for counter in ("hits", "misses", "invalidations", "fallbacks"):
            obs.bind(
                f"negcache.{name}.{counter}", self.negcache, counter, replace=True
            )
        #: Mid-connection failover (PROTOCOL.md §9).  Off by default
        #: (None): no watcher, no heartbeat, no metric name, no wire byte.
        #: Pass True for defaults or a FailoverConfig to tune.
        self.failover = None
        if failover:
            from .failover import FailoverConfig, FailoverManager

            config = failover if isinstance(failover, FailoverConfig) else None
            self.failover = FailoverManager(self, config)

    def register_chunnel(self, impl_cls) -> None:
        """Register a fallback implementation (Listing 5, line 2)."""
        self.registry.register(impl_cls)

    def new(self, name: str, dag=None) -> "Endpoint":
        """Create a connection endpoint (the paper's ``bertha::new``).

        ``dag`` may be a :class:`ChunnelDag`, a single spec, or None/empty
        (``wrap!()``) for a bare connection whose Chunnels the peer dictates.
        """
        if dag is None:
            dag = ChunnelDag.empty()
        elif isinstance(dag, ChunnelSpec):
            dag = wrap(dag)
        return Endpoint(self, name, dag)

    def record_degraded(self, conn_id: str, reason: str) -> None:
        """Count (and warn about) a degraded-mode establishment."""
        self.degraded_establishments += 1
        self.degraded_events.append(
            {"time": self.env.now, "conn_id": conn_id, "reason": reason}
        )
        warnings.warn(
            f"{conn_id}: establishing degraded ({reason}); "
            "proceeding with fallback-only stacks",
            DegradedEstablishmentWarning,
            stacklevel=3,
        )

    @property
    def reconfig(self):
        """The process's live-reconfiguration engine (created on demand)."""
        if self._reconfig is None:
            from ..reconfig.engine import ReconfigManager

            self._reconfig = ReconfigManager(self)
        return self._reconfig

    # -- negotiation-result cache (one-RTT resumption) -----------------------
    def bump_policy_epoch(self) -> int:
        """Advance the operator-policy epoch, invalidating every cached
        negotiation result.  Callers change :attr:`policy` (or its
        configuration) first, then bump: in-flight resumes carrying the old
        epoch are rejected and renegotiate under the new policy."""
        self.policy_epoch += 1
        self.negcache.invalidate_all()
        return self.policy_epoch

    def negcache_watch_records(self, record_ids) -> None:
        """Subscribe the cache to revocation pushes for ``record_ids``.

        A ``disc.revoked``/``disc.lease_revoked`` push evicts every entry
        whose choice uses the record — the push is best-effort, so this
        only protects the hit rate; a resume that slips through still
        fails the server's reservation revalidation and falls back.
        """
        for record_id in sorted(set(record_ids) - self._negcache_watched):
            self._negcache_watched.add(record_id)
            self.reconfig.discovery_watcher.watch_record(
                record_id,
                lambda rid, _kind, _body: self.negcache.invalidate_tag(rid),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Runtime on {self.entity.name!r} {self.registry!r}>"


class Endpoint:
    """A named endpoint with a Chunnel DAG, ready to listen or connect."""

    def __init__(self, runtime: Runtime, name: str, dag: ChunnelDag):
        self.runtime = runtime
        self.name = name
        self.dag = dag

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def listen(
        self,
        port: Optional[int] = None,
        service_name: Optional[str] = None,
        auto_reconfig: bool = False,
    ) -> "Listener":
        """Start accepting connections (the paper's ``.listen``).

        ``service_name`` additionally registers this instance with the
        cluster name service so clients can connect by name — resolution
        happens per client connection, which is what lets clients discover
        a newly-started closer instance (Figure 4).

        ``auto_reconfig`` subscribes every accepted connection to the
        runtime's reconfiguration engine: offload revocations and device
        failures then trigger automatic mid-stream renegotiation instead
        of silently degrading service (:mod:`repro.reconfig`).
        """
        return Listener(
            self, port=port, service_name=service_name, auto_reconfig=auto_reconfig
        )

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def connect(
        self,
        target: ConnectTarget,
        timeout: float = 2e-3,
        retries: int = 8,
        deadline: Optional[float] = None,
    ):
        """Generator → :class:`Connection` (the paper's ``.connect``).

        ``target`` is a server control address, a service name, or — for
        group Chunnels like ordered multicast (Listing 2) — a list of
        addresses.  Drive with ``conn = yield from ep.connect(...)``.

        ``deadline`` is a *relative* end-to-end budget in seconds: the
        discovery query, the resume attempt, and every offer/accept
        exchange share one elapsed-time allowance, threaded down as an
        absolute :func:`repro.core.rpc.call` deadline.  Without it each
        nested retry loop budgets independently and the worst case is
        their sum.
        """
        runtime = self.runtime
        conn_id = next_conn_id(runtime.entity)
        trace = runtime.network.trace
        span = trace.begin("negotiate", conn_id, target=str(target))
        deadline_at = (
            None if deadline is None else runtime.env.now + deadline
        )
        try:
            connection = yield from self._connect(
                conn_id, span, target, timeout, retries, deadline_at
            )
        except BerthaError as error:
            if span.end is None:
                trace.finish(span, status="error", error=type(error).__name__)
            raise
        if runtime.failover is not None:
            runtime.failover.watch(connection, endpoint=self, target=target)
        return connection

    def _connect(
        self,
        conn_id: str,
        span,
        target: ConnectTarget,
        timeout: float,
        retries: int,
        deadline: Optional[float] = None,
    ):
        """The body of :meth:`connect` (wrapped for lifecycle tracing)."""
        runtime = self.runtime
        env = runtime.env
        # Round trip 0 (the fast path): with the negotiation cache enabled
        # and a fresh entry for (target, DAG fingerprint, policy epoch),
        # RESUME the cached binding, named by its digest, in one control
        # round trip — no discovery query, no offer gathering, no policy
        # walk.
        key = self._resume_key(target)
        resumed = yield from self._resume(
            conn_id, key, (), runtime.negotiation_stats, timeout, retries,
            deadline, trace=runtime.network.trace,
        )
        degraded = False
        if resumed:
            accepts = [resumed[0]]
        else:
            if resumed is False:
                # The resume may have half-landed (e.g. the accept was lost
                # after the server established): a fresh conn_id keeps the
                # fallback offer unambiguous, and the negotiate span names
                # the connection it produces.
                conn_id = span.conn_id = next_conn_id(runtime.entity)
            # Round trip 1: discovery (implementation offers + name
            # resolution).  With client-side caching enabled (non-default),
            # a fresh cache entry skips this round trip — at the cost of
            # stale placement.
            service_name = target if isinstance(target, str) else None
            query_types = sorted(self._query_types())
            cache_key = (tuple(query_types), service_name)
            ttl = runtime.client_discovery_ttl
            cached = None if ttl is None else runtime._query_cache.get(cache_key)
            if cached is not None and (env.now - cached[0]) <= ttl:
                disc = cached[1]
            else:
                try:
                    disc = yield from runtime.discovery.query(
                        query_types, service_name=service_name, deadline=deadline
                    )
                except ConnectionTimeoutError:
                    # Degraded mode: discovery is unreachable.  Proceed as
                    # the null client — no network offers (so the
                    # negotiated stack is fallback-only), names straight
                    # from the cluster name service — and surface a warning
                    # metric instead of failing the connection.
                    from ..discovery.client import NullDiscoveryClient

                    degraded = True
                    runtime.record_degraded(conn_id, "discovery query timed out")
                    disc = yield from NullDiscoveryClient(runtime.entity).query(
                        query_types, service_name=service_name
                    )
                else:
                    if ttl is not None:
                        runtime._query_cache[cache_key] = (env.now, disc)
            # Round trip 2: offer/accept with each target endpoint.
            targets, accepts = yield from self._offer(
                conn_id, target, query_types, disc, (), timeout, retries, deadline
            )
            conn_id = span.conn_id = accepts[0].conn_id
            if key is not None and not degraded and len(accepts) == 1:
                # Degraded results are deliberately not cached: they encode
                # a discovery outage, not a negotiation outcome.
                self._remember(key, targets[0], accepts[0])

        first = accepts[0]
        params = dict(first.params)
        if len(accepts) > 1:
            params["per_peer"] = [dict(a.params) for a in accepts]
        peers = [a.data_addr for a in accepts]
        runtime.network.trace.finish(
            span, peers=len(peers), degraded=degraded, transport=first.transport,
            **({"resumed": True} if resumed else {}),
        )
        return establish_connection(
            runtime,
            name=self.name,
            conn_id=conn_id,
            role=Role.CLIENT,
            dag=first.dag,
            choice=first.choice,
            client_entity=runtime.entity.name,
            server_entity=peers[0].host,
            peers=peers,
            transport=first.transport,
            params=params,
            degraded=degraded,
            hello=True,
        )

    def connect_raw(self, target: Address) -> Connection:
        """Interoperate with a *non-Bertha* datagram peer.

        §4.1 defers interoperability with other network APIs; this is the
        datagram half of it: no negotiation, no control round trips — a
        connection whose peer is any plain socket.  Only Chunnels this
        client can run unilaterally are allowed: every DAG node must have a
        locally-registered implementation whose endpoint constraint is
        CLIENT or ANY (client-push sharding and rate limiting qualify;
        reliability or serialization would need a cooperating peer and are
        rejected).

        Synchronous: returns the Connection immediately.
        """
        runtime = self.runtime
        dag = self.dag
        conn_id = next_conn_id(runtime.entity)
        choice: dict[int, "Offer"] = {}
        for node_id in dag.topological_order():
            spec = dag.nodes[node_id]
            offers = runtime.registry.offers_for(
                [spec.type_name], origin="client"
            )[spec.type_name]
            usable = [
                o
                for o in offers
                if not o.meta.endpoints.needs_server()
                and spec.scope_requirement.satisfied_by(o.meta.scope)
            ]
            if not usable:
                raise NoImplementationError(
                    f"cannot run chunnel {spec.type_name!r} against a "
                    "non-Bertha peer: no client-side implementation "
                    "registered (peer cooperation would be required)"
                )
            ctx = PolicyContext(
                client_entity=runtime.entity.name,
                server_entity=target.host,
                client_host=runtime.entity.host.name,
                server_host=target.host,
                same_host=False,
                path_switches=[],
            )
            choice[node_id] = runtime.policy.rank(spec, usable, ctx)[0]
        return establish_connection(
            runtime,
            name=self.name,
            conn_id=conn_id,
            role=Role.CLIENT,
            dag=dag,
            choice=choice,
            client_entity=runtime.entity.name,
            server_entity=target.host,
            peers=[target],
            transport="udp",
        )

    def _query_types(self) -> set:
        """The Chunnel types a discovery query asks about: our DAG's, and
        every type our registry implements."""
        return set(self.dag.chunnel_types()) | self.runtime.registry.registered_types()

    def _select_instance(self, instances: list[Address]) -> Address:
        """Pick which service instance to negotiate with.

        Chunnel specs may provide a ``select_instance(instances, entity,
        network)`` hook (the local-fast-path Chunnel does);
        otherwise the first registered instance wins.
        """
        for spec in self.dag.specs_in_order():
            selector = getattr(spec, "select_instance", None)
            if selector is not None:
                chosen = selector(
                    instances, self.runtime.entity, self.runtime.network
                )
                if chosen is not None:
                    return chosen
        return instances[0]

    def _resume_key(self, target: ConnectTarget):
        """The client-side resumption key: (peer, DAG fingerprint, policy
        epoch), or None when the cache is off or ``target`` is a group.
        Name targets key on the name — resolution happens per connect, so
        a resumed instance is whichever one last accepted."""
        if not self.runtime.negcache.enabled or not isinstance(
            target, (str, Address)
        ):
            return None
        if isinstance(target, str):
            peer = ("name", target)
        else:
            peer = ("addr", target.host, target.port)
        return ("peer", peer, self.dag.canonical_shape(), self.runtime.policy_epoch)

    def _resume(
        self, conn_id: str, key, avoid, stats, timeout, retries, deadline,
        trace=None,
    ):
        """Generator: one RESUME round trip naming the binding cached under
        ``key`` by its digests, charged to ``stats`` → ``(accept,
        ctl_addr)`` with the accept rebuilt from the entry; False when it
        fell back; None when there is nothing to resume (no key, a miss,
        or an entry naming a host in ``avoid``).

        A rejection, a remote error and a timeout all fall back rather than
        fail — resumption is an optimization, never a new way for an
        establishment to break — and evict the entry.  ``trace``, when
        given, records the attempt as a ``resume`` span.
        """
        if key is None:
            return None
        runtime = self.runtime
        entry = runtime.negcache.lookup(key)
        if entry is None or entry["ctl_addr"].host in avoid:
            return None
        ctl_addr = entry["ctl_addr"]
        if trace is not None:
            span = trace.begin("resume", conn_id, target=str(ctl_addr))
        message = msgs.Resume(
            conn_id=conn_id,
            client_entity=runtime.entity.name,
            policy_epoch=entry["server_epoch"],
            shape_digest=entry["shape"],
            binding_digest=entry["binding"],
        )
        ctl = UdpSocket(runtime.entity)
        try:
            reply = yield from self._exchange(
                ctl, ctl_addr, message,
                (msgs.ResumeAccept, msgs.ResumeReject, msgs.Error),
                stats, timeout, retries, deadline, "resume",
            )
        except ConnectionTimeoutError:
            reply = None
        finally:
            ctl.close()
        if isinstance(reply, msgs.ResumeAccept):
            if trace is not None:
                trace.finish(span)
            return reply.with_binding(entry["dag"], entry["choice"]), ctl_addr
        runtime.negcache.note_fallback(key)
        if trace is not None:
            if reply is None:
                reason = "timeout"
            elif isinstance(reply, msgs.ResumeReject):
                reason = reply.reason or "rejected"
            else:
                reason = f"remote error: {reply.error}"
            trace.finish(span, status="fallback", reason=reason)
        return False

    def _offer(
        self, conn_id: str, target: ConnectTarget, query_types: list, disc,
        avoid, timeout, retries, deadline,
    ):
        """Generator → ``(targets, accepts)``: OFFER ``conn_id`` — our DAG,
        our registry's offers for ``query_types`` and ``disc``'s network
        offers, by reference where the listener holds them too — to each
        of ``target``'s endpoints over one control socket; a service
        name's is the instance :meth:`_select_instance` picks from
        ``disc`` outside the hosts in ``avoid``.  Each accept is rebuilt
        with its choice in full.  After a reference miss every endpoint
        gets the OFFER in full under ``<conn_id>:full``, which the accepts
        then carry as their ``conn_id``.

        Raises :class:`NegotiationError` when there is no endpoint or a
        group's endpoints negotiate different DAGs, and a remote
        ``bertha.error`` as its own type.
        """
        runtime = self.runtime
        if isinstance(target, str):
            instances = [addr for addr in disc.instances if addr.host not in avoid]
            if not instances:
                raise NegotiationError(
                    f"service {target!r} has no registered instances"
                )
            targets = [self._select_instance(instances)]
        elif isinstance(target, Address):
            targets = [target]
        else:
            targets = list(target)
            if not targets:
                raise NegotiationError("connect() needs at least one target")
        offers = runtime.registry.offers_for(query_types, origin="client")
        full = msgs.Offer(
            conn_id=conn_id,
            dag=self.dag,
            offers=offers,
            client_entity=runtime.entity.name,
            network_offers=disc.offers,
            offers_digest=offers_digest(offers, disc.offers),
        )
        # By reference where the listener holds the offer too: an
        # endpoints::Both implementation (which the server must have
        # registered to run it) by name, a discovery record by its id.
        message = dataclasses.replace(
            full,
            offers=_referenced(
                offers,
                lambda o: o.meta.name if o.meta.endpoints is Endpoints.BOTH else None,
            ),
            network_offers=_referenced(disc.offers, lambda o: o.record_id),
        )
        # A listener that could not resolve a reference (or expanded to
        # another digest) guessed nothing: offer every entry in full, to
        # every endpoint, under a fresh id — the reply cache would replay
        # the error.
        refull = dataclasses.replace(full, conn_id=f"{conn_id}:full")
        ctl = UdpSocket(runtime.entity)
        try:
            for attempt in (message, refull):
                accepts = []
                try:
                    for addr in targets:
                        reply = yield from self._exchange(
                            ctl, addr, attempt, (msgs.Accept,),
                            runtime.negotiation_stats, timeout, retries, deadline,
                            "negotiation",
                        )
                        accepts.append(_rebuilt_accept(reply, full))
                    break
                except OfferReferenceError:
                    if attempt is refull:
                        raise
        finally:
            ctl.close()
        if len({a.dag.canonical_shape() for a in accepts}) != 1:
            raise NegotiationError(
                f"{conn_id}: group endpoints negotiated different DAGs"
            )
        return targets, accepts

    def _exchange(
        self, ctl: SimSocket, dst: Address, message, ends: tuple, stats,
        timeout: float, retries: int, deadline: Optional[float], describe: str,
    ):
        """Generator: send ``message`` to ``dst`` over ``ctl`` until a reply
        for its conn_id whose kind is in ``ends`` comes back, and return it
        (the shared reliable-RPC core; fixed timeout, no backoff —
        establishment's latency budget is the paper's two round trips).  A
        ``bertha.error`` outside ``ends`` raises the remote error."""
        runtime = self.runtime
        conn_id = message.conn_id
        payload, size = msgs.encode_message_sized(message)

        def send(_attempt: int) -> None:
            ctl.send(payload, dst, size=size)

        def match(dgram, _attempt: int):
            try:
                reply = msgs.decode_message(dgram.payload)
            except WireError:
                return None
            if getattr(reply, "conn_id", None) != conn_id:
                return None
            if isinstance(reply, ends):
                return reply
            if isinstance(reply, msgs.Error):
                reply.raise_remote()
            return None

        return (
            yield from rpc.call(
                runtime.env,
                rpc.RetryPolicy(timeout=timeout, retries=retries),
                send,
                rpc.socket_waiter(runtime.env, ctl, match),
                stats=stats,
                describe=f"{describe} with {dst}",
                trace=runtime.network.trace,
                conn_id=conn_id,
                deadline=deadline,
            )
        )

    def _remember(self, key, ctl_addr: Address, accept: "msgs.Accept") -> None:
        """Cache ``accept``'s binding under ``key`` for one-RTT resumption,
        with the two digests a RESUME names it by, evictable by any record
        it uses, either DAG shape, and the serving host."""
        runtime = self.runtime
        record_ids = {o.record_id for o in accept.choice.values() if o.record_id}
        runtime.negcache.store(
            key,
            {
                "ctl_addr": ctl_addr,
                "dag": accept.dag,
                "choice": accept.choice,
                "server_epoch": accept.policy_epoch,
                "shape": shape_digest(self.dag),
                "binding": binding_digest(accept.dag, accept.choice),
            },
            tags=record_ids
            | {
                self.dag.canonical_shape(),
                accept.dag.canonical_shape(),
                # Suspicion (PROTOCOL.md §9) tag-evicts by serving host, so
                # a dead instance's cached binding never burns a resume
                # timeout inside a migration budget.
                runtime.negcache.instance_tag(accept.data_addr.host),
            },
        )
        runtime.negcache_watch_records(record_ids)


class Listener:
    """Accepts Bertha connections for one endpoint.

    The serve loop is a dispatcher, not a worker: it decodes each control
    datagram and answers it through :attr:`responder` under ``(KIND,
    conn_id)`` — one verdict, one connection and one reservation walk per
    key (PROTOCOL.md §6.2).  Each fresh OFFER/RESUME runs as its own
    handler process, so an establishment waiting on a reservation round
    trip never holds up the ones behind it.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        port: Optional[int] = None,
        service_name: Optional[str] = None,
        auto_reconfig: bool = False,
    ):
        self.endpoint = endpoint
        self.runtime = endpoint.runtime
        self.env = self.runtime.env
        self.ctl = UdpSocket(self.runtime.entity, port)
        self.service_name = service_name
        self.auto_reconfig = auto_reconfig
        self.accepted: Store = Store(self.env, name=f"{endpoint.name}.accepted")
        self.connections: list[Connection] = []
        self.optimizations: list = []  # OptimizationResults applied (§6)
        self.negotiations_failed = 0
        #: Control datagrams rejected as malformed or unexpected (anything
        #: that is not a well-formed OFFER); each offending kind is logged
        #: once per listener.
        self.ctl_malformed_total = 0
        self._malformed_logged: set = set()
        #: OFFERs answered with an ``OfferReferenceError``: a reference this
        #: listener could not resolve, or a digest its expansion missed.
        #: Not failures — the client re-offers in full.
        self.offer_ref_misses_total = 0
        obs = self.runtime.network.obs
        prefix = f"listener.{self.runtime.entity.name}.{endpoint.name}"
        for counter in (
            "ctl_malformed_total", "negotiations_failed", "offer_ref_misses_total"
        ):
            obs.bind(f"{prefix}.{counter}", self, counter, replace=True)
        self._closed = False
        self.responder = rpc.Responder(self.env, 1024)
        self._network_offers: dict[str, list[Offer]] = {}
        self._network_offers_at: Optional[float] = None
        #: While an offer refresh is in flight, the events of the handlers
        #: waiting on it (they share its one discovery query); else None.
        self._refresh_waiters: Optional[list[Event]] = None
        self._server = self.env.process(
            self._serve(), name=f"{endpoint.name}.listener"
        )

    @property
    def address(self) -> Address:
        """The control address clients connect to."""
        return self.ctl.address

    def accept(self) -> Event:
        """Event that fires with the next established Connection."""
        return self.accepted.get()

    def close(self) -> None:
        """Stop accepting; existing connections stay open."""
        if self._closed:
            return
        self._closed = True
        if self.service_name:
            self.runtime.network.names.unregister(self.service_name, self.address)
        for process in (self._server, *self.responder.inflight.values()):
            process.interrupt("listener closed")
        self.ctl.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve(self):
        if self.service_name:
            try:
                yield from self.runtime.discovery.register_name(
                    self.service_name, self.address
                )
            except ConnectionTimeoutError:
                # Discovery outage at startup: register as the null client
                # does, straight with the cluster name service, so clients
                # can still find us, and note the degradation.
                from ..discovery.client import NullDiscoveryClient

                yield from NullDiscoveryClient(self.runtime.entity).register_name(
                    self.service_name, self.address
                )
                self.runtime.record_degraded(
                    f"listener:{self.endpoint.name}",
                    "name registration timed out",
                )
        try:
            yield from self._refresh_network_offers()
        except ConnectionTimeoutError:
            # Serve with fallback-only offers for now; each client OFFER
            # carries its own discovery view, so the candidate pool heals
            # itself as soon as clients can reach discovery again.
            self._network_offers = {}
            self._network_offers_at = None
        while not self._closed:
            try:
                dgram = yield self.ctl.recv()
            except Interrupt:
                return
            try:
                message = msgs.decode_message(dgram.payload)
            except WireError as error:
                self._count_malformed(dgram.payload, error)
                continue
            if not isinstance(message, (msgs.Offer, msgs.Resume)):
                self._count_malformed(
                    dgram.payload, f"unexpected {message.KIND} on a listener"
                )
                continue
            # Keyed on the kind too: a rejected RESUME must never be
            # replayed against an OFFER, however the ids line up.
            self.responder.answer(
                (message.KIND, message.conn_id),
                partial(self._handle, message),
                partial(self._send_reply, dst=dgram.src),
            )

    def _handle(self, message):
        """Generator: one establishment's verdict, returned only once
        reserves have resolved, so a retransmission can never observe a
        half-made decision.  Checks of leases the runtime already holds
        resolve afterwards, behind the connection's held data path
        (``_admit``)."""
        try:
            if isinstance(message, msgs.Resume):
                reply = yield from self._handle_resume(message)
            else:
                reply = yield from self._handle_offer(message)
        except OfferReferenceError as error:
            self.offer_ref_misses_total += 1
            reply = msgs.Error.from_exception(message.conn_id, error)
        except NegotiationError as error:
            self.negotiations_failed += 1
            reply = msgs.Error.from_exception(message.conn_id, error)
        except Interrupt:
            # close() mid-decision (reservation RPCs yield): the walk has
            # handed back what it held.  The client's retransmit times out.
            return None
        if self._closed:
            # close() landed in the instant the decision completed: the
            # connection stands, but a closed listener sends nothing.
            return None
        return reply

    def _send_reply(self, message: "msgs.ControlMessage", dst: Address) -> None:
        payload, size = msgs.encode_message_sized(message)
        self.ctl.send(payload, dst, size=size)

    def _count_malformed(self, payload, error) -> None:
        """Count (and log, once per kind) a rejected control datagram."""
        self.ctl_malformed_total += 1
        kind = wire_kind(payload)
        if kind is None:
            kind = type(payload).__name__
        if kind not in self._malformed_logged:
            self._malformed_logged.add(kind)
            _log.warning(
                "%s: dropping malformed control message kind=%r (%s)",
                self.endpoint.name,
                kind,
                error,
            )

    def _refresh_network_offers(self):
        """Generator: re-query discovery for this endpoint's offer pool.

        Single-flight: a handler that finds a refresh already under way
        waits for that one (and, like its initiator, carries on with the
        old pool if it failed) rather than querying again.
        """
        if self._refresh_waiters is not None:
            done = self.env.event()
            self._refresh_waiters.append(done)
            yield done
            return
        types = self.endpoint._query_types()
        if self.runtime.optimizer is not None:
            # Merge targets (e.g. tls) may have discovery-registered
            # implementations even though no endpoint names them directly.
            types |= self.runtime.optimizer.traits.merge_targets()
        self._refresh_waiters = []
        try:
            result = yield from self.runtime.discovery.query(sorted(types))
            self._network_offers = result.offers
            self._network_offers_at = self.env.now
        finally:
            waiters, self._refresh_waiters = self._refresh_waiters, None
            for done in waiters:
                done.succeed()

    def _offers_stale(self) -> bool:
        # When the initial refresh failed (discovery outage at startup):
        # retry on every accept, so the offer pool heals as soon as
        # discovery comes back — otherwise a listener started during an
        # outage would serve fallback-only stacks forever.  And after an
        # OFFER named a record this pool lacks or holds in another version
        # (``_expand_offer``): otherwise every later OFFER naming it would
        # miss too.  Else a pool fetched once is kept: the client's
        # per-connect query carries the fresh network offers.
        return self._network_offers_at is None

    def _optimized_dag(
        self, dag: ChunnelDag, message: "msgs.Offer", ctx: PolicyContext
    ) -> Optional[ChunnelDag]:
        """Apply the §6 optimizer; returns the transformed DAG or None."""
        optimizer = self.runtime.optimizer
        if optimizer is None or dag.is_empty:
            return None
        from .negotiation import _location_feasible

        probe_types = set(dag.chunnel_types()) | optimizer.traits.merge_targets()
        probe = candidate_pool(
            self.runtime.registry, probe_types, message.offers,
            message.network_offers, self._network_offers,
        )
        offloadable = {
            ctype
            for ctype, offers in probe.items()
            if any(
                offer.meta.placement.is_offload
                and _location_feasible(offer, ctx)
                for offer in offers
            )
        }
        available = {ctype for ctype, offers in probe.items() if offers}
        # The pipe transport (negotiated when both ends share a host and a
        # local_or_remote Chunnel is present) is reliable and in-order.
        reliable_transport = (
            ctx.same_host and "local_or_remote" in dag.chunnel_types()
        )
        result = optimizer.optimize(
            dag,
            offloadable=offloadable,
            available_types=available,
            reliable_transport=reliable_transport,
        )
        if not result.steps:
            return None
        self.optimizations.append(result)
        return result.dag

    def _expand_offer(self, message: "msgs.Offer") -> "msgs.Offer":
        """``message`` with every reference resolved: an implementation
        name against this runtime's registry, a record id against the
        offer pool.  Raises :class:`OfferReferenceError` when one resolves
        to nothing or the expansion's digest is not the OFFER's."""
        registry = self.runtime.registry
        records = {
            offer.record_id: offer
            for offers in self._network_offers.values()
            for offer in offers
        }

        def registered(ctype: str, name: str) -> Optional[Offer]:
            meta = registry.meta(ctype, name)
            return None if meta is None else Offer(meta=meta, origin="client")

        offers = _expand_references(message.offers, registered)
        try:
            network = _expand_references(
                message.network_offers, lambda _ctype, record_id: records.get(record_id)
            )
            if offers_digest(offers, network) != message.offers_digest:
                raise OfferReferenceError(
                    "the offers referenced expand to another digest here"
                )
        except OfferReferenceError:
            # The pool is behind discovery: the next accept refreshes it.
            # A miss on an implementation name (above) is no sign of that.
            self._network_offers_at = None
            raise
        return dataclasses.replace(message, offers=offers, network_offers=network)

    def _handle_offer(self, message: "msgs.Offer"):
        """Generator: negotiate one connection; returns the reply message."""
        runtime = self.runtime
        conn_id = message.conn_id
        client_entity = message.client_entity
        dag = ChunnelDag.unify(message.dag, self.endpoint.dag)

        if self._offers_stale():
            try:
                yield from self._refresh_network_offers()
            except ConnectionTimeoutError:
                pass  # keep the stale cache; better than failing the accept
        message = self._expand_offer(message)

        ctx = self._policy_context(client_entity)

        # Try the optimized DAG first (if the runtime has an optimizer and
        # it changed anything); fall back to the application's DAG when the
        # optimized one cannot bind (e.g. a merge target with no usable
        # implementation on this connection).
        attempts = [dag]
        optimized = self._optimized_dag(dag, message, ctx)
        if optimized is not None:
            attempts.insert(0, optimized)
        last_error: Optional[NegotiationError] = None
        choice = None
        reservations: dict[int, LeaseHandle] = {}
        for attempt_dag in attempts:
            # Network offers: the client's discovery view, then our cache.
            candidates = candidate_pool(
                runtime.registry, attempt_dag.chunnel_types(), message.offers,
                message.network_offers, self._network_offers,
            )
            try:
                # Answer without waiting for the checks of leases this
                # runtime already holds: the connection holds its data
                # path until they are in (``_admit``).
                choice, reservations = yield from decide_with_reservations(
                    runtime, attempt_dag, candidates, ctx, self._owner,
                    conn_id=conn_id, settle=False,
                )
                dag = attempt_dag
                break
            except NegotiationError as error:
                last_error = error
        if choice is None:
            raise last_error if last_error is not None else NegotiationError(
                "negotiation produced no choice"
            )

        # What a transition re-decides from (the owner is the listener's).
        state = (message.offers, ctx)
        accept = self._admit(message, dag, choice, reservations, state).with_binding(
            dag, _choice_references(message, dag, choice)
        )
        if runtime.negcache.enabled:
            # Remember the decision for one-RTT resumption: a later RESUME
            # from this client (same DAG, same policy epoch) naming this
            # binding skips offer gathering and the policy walk,
            # revalidating reservations only.
            record_ids = {o.record_id for o in choice.values() if o.record_id}
            runtime.negcache.store(
                self._resume_key(client_entity, shape_digest(message.dag)),
                {
                    "dag": dag,
                    "choice": choice,
                    "state": state,
                    "binding": binding_digest(dag, choice),
                },
                tags=record_ids
                | {message.dag.canonical_shape(), dag.canonical_shape()},
            )
            runtime.negcache_watch_records(record_ids)
        return accept

    def _resume_key(self, client_entity: str, shape: str):
        """The server-side resumption key (PROTOCOL.md §7): who is asking,
        for which client DAG shape digest, under which policy generation."""
        return ("client", client_entity, shape, self.runtime.policy_epoch)

    def _handle_resume(self, message: "msgs.Resume"):
        """Generator: revalidate a cached negotiation result; returns a
        ResumeAccept, or a ResumeReject steering the client to the full
        path.

        The RESUME names the binding by digest: the entry under its shape
        digest must hold a binding with the same digest, or the client's
        cached choice diverged from this side's.  Only the reservation walk
        re-runs — offer gathering and the policy
        rank are pinned by the cache entry, which is exactly what makes the
        fast path one round trip.  Reservation revalidation (not cache
        invalidation, which is best-effort) is the correctness gate: a
        record this runtime holds no lease on must be reserved, and a
        refusal rejects the resume here; under a lease it does hold, the
        accept leaves at once and a "no" from the check steers the new
        connection off the record before any stage has seen its data —
        either way with every invalidation push lost.
        """
        runtime = self.runtime
        conn_id = message.conn_id
        trace = runtime.network.trace
        span = trace.begin("resume", conn_id, client=message.client_entity)
        key = self._resume_key(message.client_entity, message.shape_digest)
        entry = runtime.negcache.lookup(key)
        reason: Optional[str] = None
        if entry is None:
            reason = "no cached negotiation result"
        elif message.policy_epoch != runtime.policy_epoch:
            reason = (
                f"policy epoch {message.policy_epoch} != "
                f"{runtime.policy_epoch}"
            )
        elif message.binding_digest != entry["binding"]:
            reason = "cached choice diverged"
        if reason is not None:
            if entry is not None:
                runtime.negcache.note_fallback(key)
            trace.finish(span, status="reject", reason=reason)
            return msgs.ResumeReject(conn_id=conn_id, reason=reason)

        dag: ChunnelDag = entry["dag"]
        choice = entry["choice"]
        confirmed, denied = yield from reserve_choice(
            runtime, dag, choice, self._owner, conn_id
        )
        if denied is not None:
            for handle in confirmed.values():
                runtime.leases.release_nowait(handle)
            runtime.negcache.note_fallback(key)
            reject_reason = (
                f"reservation revalidation failed for {denied.record_id}"
            )
            trace.finish(span, status="reject", reason=reject_reason)
            return msgs.ResumeReject(conn_id=conn_id, reason=reject_reason)

        reply = self._admit(message, dag, choice, confirmed, entry["state"])
        trace.finish(span, reservations=len(confirmed))
        return reply

    @property
    def _owner(self) -> str:
        """The reservation owner of this listener's connections: the
        reconfiguration engine derives the same from a connection."""
        return f"{self.runtime.entity.name}:{self.endpoint.name}"

    def _policy_context(self, client_entity: str) -> PolicyContext:
        network = self.runtime.network
        client_host = network.entity(client_entity).host.name
        server_host = self.runtime.entity.host.name
        if client_host == server_host:
            path_switches: list[str] = []
        else:
            path = network.route(client_host, server_host)
            path_switches = [n for n in path if n in network.switches]
        return PolicyContext(
            client_entity=client_entity,
            server_entity=self.runtime.entity.name,
            client_host=client_host,
            server_host=server_host,
            same_host=client_host == server_host,
            path_switches=path_switches,
        )

    def _admit(
        self, message, dag: ChunnelDag, choice: dict,
        reservations: dict[int, LeaseHandle], state: tuple,
    ) -> "msgs.ResumeAccept":
        """The one accept tail of an OFFER or a RESUME: establish the
        server side of ``message``'s connection on ``dag``/``choice``
        (instantiate, server-side setup hooks — transport negotiation
        happens there — socket, stack), hand it to the application with
        its data path held until the lease verdicts still out are in
        (PROTOCOL.md §2), and answer with what is new: its data path.  An
        OFFER's reply adds the binding (``with_binding``); a RESUME's
        peer already holds it."""
        runtime = self.runtime
        connection = establish_connection(
            runtime,
            name=self.endpoint.name,
            conn_id=message.conn_id,
            role=Role.SERVER,
            dag=dag,
            choice=choice,
            client_entity=message.client_entity,
            server_entity=runtime.entity.name,
            reservations=reservations,
            negotiation_state=state,
        )
        unverified = {
            node_id: handle
            for node_id, handle in reservations.items()
            if not handle.verdict.processed
        }
        if unverified:
            connection.await_verdicts(unverified)
        if self.auto_reconfig:
            self.runtime.reconfig.watch(connection)
        connection.listener = self
        self.connections.append(connection)
        self.accepted.put(connection)
        return msgs.ResumeAccept(
            conn_id=message.conn_id,
            data_addr=connection.local_address,
            transport=connection.transport,
            params=dict(connection.params),
            policy_epoch=runtime.policy_epoch,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Listener {self.endpoint.name!r} @ {self.address}>"
