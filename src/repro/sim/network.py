"""Topology, routing, name service, and the datagram delivery engine.

A :class:`Network` ties the substrate together: hosts and switches are
vertices of a ``networkx`` graph, links are edges, and :meth:`Network.transmit`
walks a datagram across the graph charging realistic delays:

1. *(already paid by the transport)* sender-side stack cost;
2. per-link propagation + serialization delay;
3. per-switch forwarding latency, plus any installed switch programs (which
   may rewrite the destination, clone for multicast, or drop);
4. at the destination host: NIC receive queueing, then kernel fast-path
   (XDP-like) programs, then one receive-side stack traversal, then delivery
   into the bound socket.

Same-host datagrams (container → container over loopback) skip the NIC and
kernel programs — matching real XDP, which does not see loopback traffic —
but still pay two stack traversals, which is precisely the overhead the
paper's ``local_or_remote`` Chunnel exists to avoid.

The :class:`NameService` is the cluster's service directory: servers
register named instances, and connection establishment resolves a name to
the set of live instances (this per-connection resolution is what makes the
paper's Figure 4 dynamic-switchover behaviour work).
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from ..errors import AddressError
from ..obs import MetricsRegistry, TraceLog
from .datagram import Address, Datagram
from .eventloop import Environment
from .faults import CORRUPT_HEADER, FaultPlan, clone_datagram
from .host import Container, CostModel, Host, NetEntity
from .link import Link
from .nic import Nic
from .programs import PacketAction, PacketProgram
from .switch import ProgrammableSwitch

__all__ = ["Network", "NameService", "ServiceRecord", "SRCROUTE_HEADER"]

_MAX_REDIRECTS = 32

#: Datagram header carrying a pinned source route: a tuple of node names
#: from the sending host to the destination host.  The delivery walk
#: follows the pin hop by hop instead of consulting the routing tables —
#: this is how the multipath Chunnel keeps traffic on the tunnel it chose
#: rather than whatever ``route()`` currently prefers.  A pin that no
#: longer matches the topology (node off-path after a redirect, edge
#: removed) falls back to normal routing and counts ``srcroute_fallbacks``.
SRCROUTE_HEADER = "srcroute_path"


# _Walk states.  The first five are heap-dispatch targets (see ``_fire``).
# In the last three the walk is not on the heap: it is running one hop's
# packet programs, or waiting on one of their stations, and the state says
# which hop so the chain's end knows where the datagram goes next.
_W_DEPART = 0
_W_ARRIVE_SWITCH = 1
_W_ARRIVE_HOST = 2
_W_RX_STACK = 3
_W_DELIVER = 4
_W_SWITCH_PROGRAMS = 5
_W_NIC_PROGRAMS = 6
_W_KERNEL_PROGRAMS = 7


class _Walk:
    """One datagram's whole journey as a single flat heap entry.

    The walk is a small state machine that reschedules *itself*, and it
    fuses pure-delay slots — instead of waking at the link's far end and
    again after the switch's forwarding latency, it computes the downstream
    timestamps up front and sleeps straight through to the next instant at
    which something order-sensitive happens.

    Two disciplines make fused schedules reproduce the recorded same-seed
    baselines:

    *Timestamps* are computed with one fixed floating-point operation
    sequence per hop — ``(t + d1) + d2``, never ``t + (d1 + d2)`` — and
    pushed at absolute times via :meth:`Environment._push_at`, so every
    observable event lands on a bit-identical clock reading.

    *Order-sensitive effects* keep their own instants: fault-plan RNG draws
    happen at link-entry time (draw order on a shared link is draw order of
    the competing walks), NIC station submissions happen at host-arrival
    time (FIFO slot assignment), and socket delivery happens after the
    receive-side stack traversal.  Only effect-free waits are fused away.

    Packet programs (switch rules, SmartNIC offloads, kernel fast-path
    hooks) run on the walk too: :meth:`_step_programs` runs a hop's matched
    programs in order.  A station wait is one heap entry, and not the
    walk's: the walk submits the datagram and registers as second waiter on
    the station's completion event (after the station's own accounting), so
    it resumes at the completion instant without scheduling anything
    itself.  The NIC of a program-bearing host is waited on the same way.
    """

    __slots__ = (
        "net",
        "env",
        "dgram",
        "state",
        "current",
        "crossed",
        "hops",
        "dst_entity",
        "switch",
        "host",
        "programs",
        "index",
    )

    def __init__(
        self, net: "Network", dgram: Datagram, current: str, crossed: bool = False
    ):
        self.net = net
        self.env = net.env
        self.dgram = dgram
        self.state = _W_DEPART
        self.current = current
        self.crossed = crossed
        self.hops = 0
        self.dst_entity = net.entities.get(dgram.dst.host)
        self.switch = None
        self.host = None
        # ``programs`` and ``index`` are set on entering a program hop.

    # -- heap protocol -----------------------------------------------------
    def _fire(self) -> None:
        state = self.state
        if state == _W_ARRIVE_SWITCH:
            self._arrive_switch()
        elif state == _W_ARRIVE_HOST:
            self._arrive_host(True)
        elif state == _W_DELIVER:
            self._deliver()
        elif state == _W_DEPART:
            self._depart()
        else:  # _W_RX_STACK: jittered stack-cost draw at its own instant
            self._rx_stack()

    # -- forward path ------------------------------------------------------
    def _depart(self) -> None:
        """Cross the next link toward the destination (or deliver locally).

        Runs at the link-entry instant: the fault plan's RNG draw for this
        crossing happens here, in the order walks enter the link.
        """
        net = self.net
        dgram = self.dgram
        dst_entity = self.dst_entity
        if dst_entity is None:
            net.dropped_no_entity += 1
            return
        dst_name = dst_entity.host.name
        current = self.current
        if current == dst_name:
            self._arrive_host(self.crossed)
            return
        if self.hops >= _MAX_REDIRECTS:
            raise AddressError(
                f"datagram {dgram!r} exceeded {_MAX_REDIRECTS} redirects; "
                "suspected forwarding loop"
            )
        self.hops += 1
        pin = dgram.headers.get(SRCROUTE_HEADER)
        if pin is not None:
            # Pinned source route: take the pin's next hop when the walk is
            # on the pinned path and the edge still exists; otherwise fall
            # back to normal routing (counted, never silently dropped).
            # Pinned hops deliberately bypass — and never populate — the
            # hop cache, which only memoizes the routing tables' answers.
            link = None
            for index in range(len(pin) - 1):
                if pin[index] == current:
                    neighbours = net.graph.adj.get(current)
                    data = (
                        neighbours.get(pin[index + 1])
                        if neighbours is not None
                        else None
                    )
                    if data is not None:
                        next_node = pin[index + 1]
                        link = data["link"]
                    break
            if link is None:
                net.srcroute_fallbacks += 1
                pin = None
        if pin is None:
            hop = net._hop_cache.get((current, dst_name))
            if hop is None:
                next_node = net.route(current, dst_name)[1]
                link = net.link_between(current, next_node)
                net._hop_cache[(current, dst_name)] = (next_node, link)
            else:
                next_node, link = hop
        if not link.up:
            net.dropped_link_down += 1
            return
        if net._partition_state is not None and net._partition_blocks(
            current, next_node, dgram
        ):
            net.dropped_partition += 1
            return
        env = self.env
        extra_delay = 0.0
        plan = link.fault_plan
        if plan is not None and not plan._benign:
            decision = plan.decide(dgram)
            if decision.drop:
                net.dropped_by_fault += 1
                return
            if decision.corrupt:
                dgram.headers[CORRUPT_HEADER] = True
            if decision.duplicate:
                # The copy continues from the far end of this link after
                # the normal crossing delay, so it is not re-duplicated
                # on the same link.
                copy = clone_datagram(dgram)
                link.record(copy.size)
                env._push(
                    link.delay_for(copy.size), _Walk(net, copy, next_node, True)
                )
            extra_delay = decision.extra_delay
        link.record(dgram.size)
        t_arrive = env._now + (link.delay_for(dgram.size) + extra_delay)
        self.current = next_node
        self.crossed = True
        if next_node == dst_name:
            self.state = _W_ARRIVE_HOST
            env._push_at(t_arrive, self)
            return
        switch = net.switches.get(next_node)
        if switch is not None:
            # Fused: sleep through the link *and* the switch's forwarding
            # latency; forwarding is recorded (and the next link's fault
            # decision drawn) when the datagram leaves the switch.
            self.switch = switch
            self.state = _W_ARRIVE_SWITCH
            env._push_at(t_arrive + switch.forward_latency, self)
            return
        # A plain host en route (unusual topology): depart again on arrival.
        self.state = _W_DEPART
        env._push_at(t_arrive, self)

    def _arrive_switch(self) -> None:
        switch = self.switch
        dgram = self.dgram
        switch.record_forward(dgram)
        if switch.programs:
            programs = switch.matching_programs(dgram)
            if programs:
                self._begin_programs(programs, _W_SWITCH_PROGRAMS)
                return
        self._depart()

    # -- receive side ------------------------------------------------------
    def _arrive_host(self, via_nic: bool) -> None:
        net = self.net
        dgram = self.dgram
        host = self.dst_entity.host
        if host.down:
            net.dropped_host_down += 1
            return
        if dgram.headers.pop(CORRUPT_HEADER, None):
            # The NIC's frame checksum rejects garbled payloads before they
            # reach any program or socket: corruption is loss, counted apart.
            net.dropped_corrupt += 1
            return
        self.host = host
        env = self.env
        cost = host.cost
        if not via_nic:
            # Loopback: no NIC, no programs — fuse latency + stack cost.
            if cost.jitter == 0:
                transport_cost = dgram.headers.get("rx_stack_cost")
                if transport_cost is None:
                    transport_cost = cost.stack_cost(dgram.size)
                self.state = _W_DELIVER
                env._push_at(
                    (env._now + cost.loopback_latency) + transport_cost, self
                )
            else:
                # Jittered cost models draw from a shared RNG: the stack
                # cost must be drawn at its own instant.
                self.state = _W_RX_STACK
                env._push(cost.loopback_latency, self)
            return
        nic = host.nic
        smartnic = host.smartnic
        if (smartnic is not None and smartnic.programs) or host.kernel_programs:
            # Programs run between NIC completion and the stack traversal,
            # each at its own instant, so nothing downstream can be fused:
            # wait for the NIC as second waiter on its completion event.
            nic.rx_station.submit(dgram).add_callback(self._nic_done)
            return
        done_at = nic.rx_station.submit_walk(dgram)
        dgram.hops.append(nic.rx_visit_label)
        if cost.jitter == 0:
            transport_cost = dgram.headers.get("rx_stack_cost")
            if transport_cost is None:
                transport_cost = cost.stack_cost(dgram.size)
            self.state = _W_DELIVER
            env._push_at(done_at + transport_cost, self)
        else:
            self.state = _W_RX_STACK
            env._push_at(done_at, self)

    def _rx_stack(self) -> None:
        """Receive-side stack traversal starting now.

        Reached off the heap on a jittered host (the cost draw from the
        shared RNG must happen at this instant, not at arrival) and directly
        from the end of a host's packet programs.
        """
        dgram = self.dgram
        transport_cost = dgram.headers.get("rx_stack_cost")
        if transport_cost is None:
            transport_cost = self.host.cost.stack_cost(dgram.size)
        self.state = _W_DELIVER
        self.env._push(transport_cost, self)

    def _deliver(self) -> None:
        net = self.net
        dgram = self.dgram
        dst_entity = net.entities.get(dgram.dst.host)
        if dst_entity is None or dst_entity.host is not self.host:
            net.dropped_no_entity += 1
            return
        socket = dst_entity.ports.get(dgram.dst.port)
        if socket is None:
            net.dropped_unbound += 1
            return
        net.delivered += 1
        dgram.hops.append("socket:" + str(dgram.dst))
        socket.deliver(dgram)

    # -- packet programs ---------------------------------------------------
    def _nic_done(self, _completion) -> None:
        """NIC receive completed on a host with installed programs."""
        dgram = self.dgram
        host = self.host
        dgram.hops.append(host.nic.rx_visit_label)
        smartnic = host.smartnic
        if smartnic is not None and smartnic.programs:
            programs = smartnic.matching_programs(dgram)
            if programs:
                self._begin_programs(programs, _W_NIC_PROGRAMS)
                return
        self._kernel_stage()

    def _kernel_stage(self) -> None:
        host = self.host
        if host.kernel_programs:
            dgram = self.dgram
            programs = [p for p in host.kernel_programs if p.match(dgram)]
            if programs:
                self._begin_programs(programs, _W_KERNEL_PROGRAMS)
                return
        self._rx_stack()

    def _begin_programs(self, programs: list[PacketProgram], stage: int) -> None:
        """Run this hop's ``programs`` — matched once, before any of them
        ran, so a rewrite by one cannot unmatch a later one."""
        self.programs = programs
        self.index = 0
        self.state = stage
        self._step_programs(None)

    def _step_programs(self, completion) -> None:
        """Run the hop's programs in order from ``self.index``.

        Called with ``None`` to start and with a station's completion event
        to resume.  A program whose turn has come and that has a station
        (read now, not at match time) first queues the datagram there: the
        walk registers on the completion and returns; called back, it runs
        that program without queueing again and carries on down the chain.
        Clones start walks of their own from this node.
        """
        net = self.net
        dgram = self.dgram
        programs = self.programs
        index = self.index
        verdict = PacketAction.PASS
        while index < len(programs):
            program = programs[index]
            if completion is None and program.station is not None:
                self.index = index
                program.station.submit(dgram).add_callback(self._step_programs)
                return
            completion = None
            index += 1
            result = program.run(dgram)
            dgram.visit(f"program:{program.name}@{self.current}")
            for clone in result.clones:
                self.env._push(0.0, _Walk(net, clone, self.current))
            action = result.action
            if action is PacketAction.CLONE:
                action = result.action_after
            if action is PacketAction.DROP:
                # Dropped mid-chain: later programs' stations never see it.
                net.dropped_by_program += 1
                return
            if action is PacketAction.REDIRECT:
                verdict = action
                break
        if self.state == _W_SWITCH_PROGRAMS:
            # REDIRECT and PASS both fall through: recompute the route
            # toward the (possibly rewritten) destination.
            self.dst_entity = net.entities.get(dgram.dst.host)
            self._depart()
            return
        if verdict is PacketAction.REDIRECT:
            entity = net.entities.get(dgram.dst.host)
            if entity is None or entity.host is not self.host:
                # XDP_TX-style bounce back into the network from this
                # host, skipping its remaining stages.  ``hops`` carries
                # over, so two hosts redirecting to each other exhaust
                # ``_MAX_REDIRECTS``.
                self.crossed = False
                self.dst_entity = entity
                self.state = _W_DEPART
                self.env._push(0.0, self)
                return
        if self.state == _W_NIC_PROGRAMS:
            self._kernel_stage()
        else:
            self._rx_stack()


def _up_weight(u: str, v: str, data: dict) -> Optional[float]:
    """Edge-weight callable for routing: ``None`` (= unusable) for down
    links, the configured latency weight otherwise."""
    if not data["link"].up:
        return None
    return data["weight"]


class ServiceRecord:
    """One registered instance of a named service."""

    __slots__ = ("name", "address", "registered_at")

    def __init__(self, name: str, address: Address, registered_at: float):
        self.name = name
        self.address = address
        self.registered_at = registered_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServiceRecord {self.name!r} @ {self.address}>"


class NameService:
    """Service-name → instance-address directory.

    Resolution order is registration order; callers that care about
    placement (e.g. the ``local_or_remote`` Chunnel)
    inspect all instances and choose.
    """

    def __init__(self, network: "Network"):
        self._network = network
        self._records: dict[str, list[ServiceRecord]] = {}

    def register(self, name: str, address: Address) -> ServiceRecord:
        """Add an instance of service ``name`` at ``address``."""
        record = ServiceRecord(name, address, self._network.env.now)
        self._records.setdefault(name, []).append(record)
        return record

    def unregister(self, name: str, address: Address) -> None:
        """Remove the instance of ``name`` at ``address`` (no-op if absent)."""
        records = self._records.get(name, [])
        self._records[name] = [r for r in records if r.address != address]

    def resolve(self, name: str) -> list[ServiceRecord]:
        """All live instances of ``name`` (may be empty)."""
        return list(self._records.get(name, []))


class Network:
    """The simulated cluster: topology, entities, and datagram delivery."""

    def __init__(self):
        self.env = Environment()
        self.graph = nx.Graph()
        self.entities: dict[str, NetEntity] = {}
        self.hosts: dict[str, Host] = {}
        self.switches: dict[str, ProgrammableSwitch] = {}
        self.names = NameService(self)
        self._route_cache: dict[tuple[str, str], list[str]] = {}
        #: (current node, destination host) → (next node, link): the one
        #: lookup the delivery walk needs per hop, memoized past the path
        #: cache so the hot path skips ``route()``/``link_between`` entirely.
        #: Invalidated wherever ``_route_cache`` is.
        self._hop_cache: dict[tuple[str, str], tuple[str, Link]] = {}
        #: (src, dst, k) → up to ``k`` edge-disjoint paths (see
        #: :meth:`k_routes`).  Invalidated wherever ``_route_cache`` is.
        self._k_route_cache: dict[tuple[str, str, int], list[list[str]]] = {}
        #: Active partition: node name → group index (see
        #: ``ChaosController.partition``); None means fully connected.
        #: Assigned through the ``_partition`` property so that setting or
        #: healing a partition also invalidates cached routes.
        self._partition_state: Optional[dict[str, int]] = None
        # Counters.
        self.delivered = 0
        self.dropped_unbound = 0
        self.dropped_no_entity = 0
        self.dropped_by_program = 0
        self.dropped_by_fault = 0
        self.dropped_corrupt = 0
        self.dropped_link_down = 0
        self.dropped_partition = 0
        self.dropped_host_down = 0
        #: Datagrams whose pinned source route no longer matched the
        #: topology, rerouted via the normal tables instead of dropped.
        self.srcroute_fallbacks = 0
        #: One metrics registry and one trace log per world; everything
        #: constructed against this network registers its counters here.
        self.obs = MetricsRegistry(clock=lambda: self.env.now)
        self.trace = TraceLog(self.env)
        self.obs.bind("net.delivered", self, "delivered")
        for cause, attr in (
            ("unbound", "dropped_unbound"),
            ("no_entity", "dropped_no_entity"),
            ("program", "dropped_by_program"),
            ("fault", "dropped_by_fault"),
            ("corrupt", "dropped_corrupt"),
            ("link_down", "dropped_link_down"),
            ("partition", "dropped_partition"),
            ("host_down", "dropped_host_down"),
        ):
            self.obs.bind(f"net.dropped.{cause}", self, attr)
        self.obs.bind("net.srcroute_fallbacks", self, "srcroute_fallbacks")
        self.obs.gauge("net.fault_drops", lambda: self.fault_drops)

    # -- topology construction ------------------------------------------------
    def add_host(
        self,
        name: str,
        cost: Optional[CostModel] = None,
        nic: Optional[Nic] = None,
    ) -> Host:
        """Create a host vertex."""
        self._check_fresh_name(name)
        host = Host(self.env, self, name, cost=cost, nic=nic)
        self.hosts[name] = host
        self.entities[name] = host
        self.graph.add_node(name, kind="host")
        if host.smartnic is not None:
            bus = host.smartnic.pcie
            self.obs.bind(f"pcie.{name}.crossings", bus, "crossings")
            self.obs.bind(f"pcie.{name}.bytes", bus, "bytes_moved")
        return host

    def add_switch(self, name: str, **kwargs) -> ProgrammableSwitch:
        """Create a programmable-switch vertex."""
        self._check_fresh_name(name)
        switch = ProgrammableSwitch(self.env, name, **kwargs)
        self.switches[name] = switch
        self.graph.add_node(name, kind="switch")
        return switch

    def add_link(self, a: str, b: str, latency: float = 5e-6) -> Link:
        """Connect two vertices with a full-duplex link."""
        for node in (a, b):
            if node not in self.graph:
                raise AddressError(f"unknown node {node!r}")
        link = Link(a, b, latency=latency)
        link.on_state_change = self._on_link_state_change
        self.graph.add_edge(a, b, link=link, weight=latency)
        self._route_cache.clear()
        self._hop_cache.clear()
        self._k_route_cache.clear()
        self.obs.bind(f"link.{a}-{b}.bytes", link, "bytes_carried")
        self.obs.bind(f"link.{a}-{b}.datagrams", link, "datagrams_carried")
        return link

    def _check_fresh_name(self, name: str) -> None:
        if name in self.graph or name in self.entities:
            raise AddressError(f"node name {name!r} already in use")

    # -- lookup ---------------------------------------------------------------
    def entity(self, name: str) -> NetEntity:
        """The host or container called ``name``."""
        try:
            return self.entities[name]
        except KeyError:
            raise AddressError(f"unknown entity {name!r}") from None

    def route(self, src: str, dst: str) -> list[str]:
        """Latency-weighted shortest path between two graph vertices.

        Down links are excluded, so traffic reroutes over an alternate up
        path when one exists.  When no up path remains, the path over the
        full topology is returned instead: the walk then drops at the dead
        link and counts ``link_down``, preserving the pre-failure loss
        semantics (routing does not mask a genuinely severed network).
        Cached paths are invalidated on every link state change and on
        partition set/clear (see :meth:`_on_link_state_change`).
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        try:
            path = self._shortest_path(src, dst, _up_weight)
        except nx.NetworkXNoPath:
            try:
                path = nx.shortest_path(self.graph, src, dst, weight="weight")
            except nx.NetworkXNoPath:
                raise AddressError(
                    f"no route from {src!r} to {dst!r}"
                ) from None
        except nx.NodeNotFound:
            raise AddressError(f"no route from {src!r} to {dst!r}") from None
        self._route_cache[key] = path
        return path

    #: Vertex count beyond which routing switches to bidirectional
    #: Dijkstra.  Small worlds keep the plain algorithm so their paths —
    #: and therefore every recorded baseline — are bit-for-bit unchanged;
    #: fleet-scale topologies get the roughly-halved search frontier.
    ROUTE_BIDIRECTIONAL_OVER = 256

    def k_routes(self, src: str, dst: str, k: int) -> list[list[str]]:
        """Up to ``k`` edge-disjoint latency-weighted paths from ``src`` to
        ``dst``, cheapest first.

        Greedy disjoint-path search: the shortest up path is taken, its
        edges are banned, and the search repeats until ``k`` paths exist or
        no up path remains.  Fewer than ``k`` paths may come back on sparse
        topologies; when *no* up path exists at all the result degenerates
        to ``[route(src, dst)]``, preserving :meth:`route`'s severed-network
        semantics (the walk drops at the dead link and counts
        ``link_down``).  Results are cached in ``_k_route_cache`` and
        invalidated exactly where ``_route_cache`` is: on ``add_link``, on
        every link state change, and on partition set/clear.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        key = (src, dst, k)
        cached = self._k_route_cache.get(key)
        if cached is not None:
            return cached
        banned: set[frozenset] = set()

        def disjoint_up_weight(u: str, v: str, data: dict) -> Optional[float]:
            if frozenset((u, v)) in banned:
                return None
            return _up_weight(u, v, data)

        paths: list[list[str]] = []
        for _ in range(k):
            try:
                path = self._shortest_path(src, dst, disjoint_up_weight)
            except nx.NetworkXNoPath:
                break
            except nx.NodeNotFound:
                raise AddressError(f"no route from {src!r} to {dst!r}") from None
            paths.append(path)
            banned.update(frozenset(pair) for pair in zip(path, path[1:]))
        if not paths:
            paths = [self.route(src, dst)]
        self._k_route_cache[key] = paths
        return paths

    def _shortest_path(self, src: str, dst: str, weight) -> list[str]:
        if self.graph.number_of_nodes() > self.ROUTE_BIDIRECTIONAL_OVER:
            _length, path = nx.bidirectional_dijkstra(
                self.graph, src, dst, weight=weight
            )
            return path
        return nx.shortest_path(self.graph, src, dst, weight=weight)

    def _on_link_state_change(self, _link: Link) -> None:
        """Route-cache invalidation hook installed on every link.

        Without this, only ``add_link`` cleared the cache: a link that
        failed after a path was cached kept attracting traffic (dropped as
        ``link_down``) even when an alternate up path existed.
        """
        self._route_cache.clear()
        self._hop_cache.clear()
        self._k_route_cache.clear()

    @property
    def _partition(self) -> Optional[dict[str, int]]:
        return self._partition_state

    @_partition.setter
    def _partition(self, membership: Optional[dict[str, int]]) -> None:
        self._partition_state = membership
        self._route_cache.clear()
        self._hop_cache.clear()
        self._k_route_cache.clear()

    def link_between(self, a: str, b: str) -> Link:
        """The link connecting two adjacent vertices."""
        try:
            return self.graph.edges[a, b]["link"]
        except KeyError:
            raise AddressError(f"no link between {a!r} and {b!r}") from None

    # -- fault injection --------------------------------------------------------
    def attach_faults(self, a: str, b: str, plan: FaultPlan) -> FaultPlan:
        """Attach a fault plan to the link between ``a`` and ``b``."""
        link = self.link_between(a, b)
        link.fault_plan = plan
        self._register_fault_plan(a, b, plan)
        return plan

    def _register_fault_plan(self, a: str, b: str, plan: FaultPlan) -> None:
        """Expose one link's fault-plan counters (``replace``, not
        ``register``: re-attaching a plan must override the old one)."""
        a, b = sorted((a, b))
        for cause in ("evaluated", "dropped", "duplicated", "reordered", "corrupted"):
            self.obs.replace(
                f"faults.{a}-{b}.{cause}",
                lambda plan=plan, cause=cause: getattr(plan, cause),
            )

    def attach_faults_everywhere(
        self, plan: FaultPlan
    ) -> dict[tuple[str, str], FaultPlan]:
        """Attach an independent copy of ``plan`` to every link.

        Each link gets its own RNG stream derived from ``plan.seed`` and
        the link's position in the sorted edge list, so topologies built in
        the same order fault identically run-to-run.
        """
        plans: dict[tuple[str, str], FaultPlan] = {}
        for index, (a, b) in enumerate(sorted(self.graph.edges)):
            link = self.graph.edges[a, b]["link"]
            link.fault_plan = plan.with_seed(plan.seed + 7919 * (index + 1))
            plans[(a, b)] = link.fault_plan
            self._register_fault_plan(a, b, link.fault_plan)
        return plans

    @property
    def fault_drops(self) -> int:
        """Datagrams removed by injected faults of any kind."""
        return (
            self.dropped_by_fault
            + self.dropped_corrupt
            + self.dropped_link_down
            + self.dropped_partition
            + self.dropped_host_down
        )

    def _partition_blocks(self, a: str, b: str, dgram: Datagram) -> bool:
        """Whether the active partition cuts this link crossing."""
        membership = self._partition
        if membership is None:
            return False
        group_a, group_b = membership.get(a), membership.get(b)
        if group_a is not None and group_b is not None and group_a != group_b:
            return True
        # Islands also separate endpoints whose path runs through an
        # unassigned middlebox (e.g. a ToR switch named in no group).
        src_entity = self.entities.get(dgram.src.host)
        dst_entity = self.entities.get(dgram.dst.host)
        if src_entity is None or dst_entity is None:
            return False
        group_src = membership.get(src_entity.host.name)
        group_dst = membership.get(dst_entity.host.name)
        return (
            group_src is not None
            and group_dst is not None
            and group_src != group_dst
        )

    # -- delivery ---------------------------------------------------------------
    def transmit(self, dgram: Datagram, after: float = 0.0) -> None:
        """Inject ``dgram`` into the network ``after`` seconds from now.

        The caller (a transport) has already charged sender-side costs into
        ``after``.  Delivery then proceeds asynchronously — one :class:`_Walk`
        heap entry carries the datagram end to end; undeliverable datagrams
        are counted and dropped, mirroring UDP semantics.
        """
        src_entity = self.entities.get(dgram.src.host)
        if src_entity is None:
            raise AddressError(f"transmit from unknown entity {dgram.src.host!r}")
        if src_entity.host.down:
            self.dropped_host_down += 1
            return
        if after < 0:
            raise AddressError(f"cannot transmit into the past (after={after})")
        dgram.sent_at = self.env.now
        self.env._push(after, _Walk(self, dgram, src_entity.host.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network hosts={len(self.hosts)} switches={len(self.switches)} "
            f"delivered={self.delivered}>"
        )
