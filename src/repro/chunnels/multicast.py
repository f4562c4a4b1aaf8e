"""The ordered-multicast Chunnel (Listing 2, §3.2 "Network-Assisted
Consensus").

``ordered_mcast`` delivers every client request to *all* members of a
replica group in one global order — the network-ordering primitive that
Speculative Paxos and NOPaxos build consensus on.  The ordering point is a
**sequencer** that stamps a per-group sequence number on each request and
fans it out to the members:

* ``McastSwitchSequencer`` — the sequencer is a program on a programmable
  switch (the NOPaxos design): one stage, stamps and clones at line rate.
* ``McastSequencerFallback`` — the sequencer is a userspace process hosted
  by the group's deterministic leader (lowest member name): correct
  everywhere, but serialized through one host.

Replica-side delivery is resequenced *globally per group* (not per
connection): two clients' requests interleave in sequencer order, so the
resequencer is shared by all of a replica's connections in that group.  A
gap that outlives the flush timeout is surfaced to the application via the
``mcast_gap`` header — triggering the consensus protocol's gap-recovery
path (NOPaxos's gap agreement), which is the application's business, not
the Chunnel's.

Simulator license, documented: the member fan-out list travels in message
headers (a real deployment would use a group address programmed at join
time), and fallback-sequencer discovery reads the cluster name service
directly during connection setup rather than spending an extra RPC.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.chunnel import (
    ChunnelImpl,
    ChunnelSpec,
    ChunnelStage,
    ImplMeta,
    Message,
    Role,
    register_spec,
)
from ..core.registry import catalog
from ..core.resources import SWITCH_SRAM_KB, SWITCH_STAGES, ResourceVector
from ..core.scope import Endpoints, Placement, Scope
from ..core.stack import SetupContext
from ..errors import ChunnelArgumentError, NegotiationError
from ..sim.datagram import Address, Datagram
from ..sim.eventloop import Environment, Interrupt
from ..sim.programs import PacketAction, PacketProgram, ProgramResult
from ..sim.switch import SwitchProgramFootprint
from ..sim.transport import UdpSocket

__all__ = [
    "OrderedMcast",
    "McastSequencerFallback",
    "McastSwitchSequencer",
    "GroupSequencer",
    "SequencerProgram",
    "GROUP_HEADER",
    "SEQ_HEADER",
    "GAP_HEADER",
]

GROUP_HEADER = "mcast_group"
SEQ_HEADER = "mcast_seq"
MEMBERS_HEADER = "mcast_members"
ORIGIN_HEADER = "mcast_origin"
GAP_HEADER = "mcast_gap"
NACK_HEADER = "mcast_nack"
NACK_TO_HEADER = "mcast_nack_to"


@register_spec
class OrderedMcast(ChunnelSpec):
    """Globally-ordered delivery to a named replica group.

    Parameters
    ----------
    group:
        Group name; the ordering domain.
    members:
        Entity names of the group members (used to pick the fallback
        sequencer's host deterministically).
    flush_after:
        Seconds a sequence gap may block replica delivery before buffered
        messages are released with the ``mcast_gap`` marker.
    """

    type_name = "ordered_mcast"

    def __init__(
        self,
        group: str,
        members: Optional[list[str]] = None,
        flush_after: float = 1e-3,
    ):
        if not group:
            raise ChunnelArgumentError("multicast group name must be non-empty")
        super().__init__(
            group=group, members=list(members or []), flush_after=flush_after
        )

    @property
    def group(self) -> str:
        return self.args["group"]

    def reservation_scope(self) -> str:
        """One sequencer serves the whole group: reserve per group, so N
        replicas negotiating the same switch program consume its stages
        once, under one lease, not N times."""
        return f"mcast-group:{self.group}"


def sequencer_service_name(group: str) -> str:
    """The name-service key for a group's fallback sequencer."""
    return f"_mcastseq.{group}"


# --------------------------------------------------------------------------
# Fallback: host sequencer process
# --------------------------------------------------------------------------
class GroupSequencer:
    """A userspace sequencer: stamp, then forward to every member.

    Keeps a bounded history of recently sequenced messages so a replica
    that lost one fan-out leg can NACK the missing sequence numbers and
    get a unicast retransmission — the sequencer half of NOPaxos's gap
    recovery, without involving the other replicas.
    """

    BASE_COST = 0.7e-6
    PER_MEMBER_COST = 0.3e-6
    HISTORY = 512

    def __init__(self, entity, group: str):
        self.entity = entity
        self.env: Environment = entity.env
        self.group = group
        self.socket = UdpSocket(entity)
        self.next_seq = 1
        self.messages_sequenced = 0
        self.retransmits_served = 0
        #: seq -> (payload, size, per-member header template)
        self._history: dict[int, tuple] = {}
        self._proc = self.env.process(self._run(), name=f"mcastseq:{group}")

    @property
    def address(self) -> Address:
        return self.socket.address

    def _run(self):
        while True:
            try:
                dgram: Datagram = yield self.socket.recv()
            except Interrupt:
                return
            nacked = dgram.headers.get(NACK_HEADER)
            if nacked is not None:
                yield self.env.timeout(self.BASE_COST)
                self._serve_nack(dgram, nacked)
                continue
            members = dgram.headers.get(MEMBERS_HEADER) or []
            yield self.env.timeout(
                self.BASE_COST + self.PER_MEMBER_COST * len(members)
            )
            seq = self.next_seq
            self.next_seq += 1
            self.messages_sequenced += 1
            template = dict(dgram.headers)
            template[SEQ_HEADER] = seq
            template[ORIGIN_HEADER] = [dgram.src.host, dgram.src.port]
            template.pop(MEMBERS_HEADER, None)
            self._history[seq] = (dgram.payload, dgram.size, template)
            while len(self._history) > self.HISTORY:
                self._history.pop(next(iter(self._history)))
            for host, port in members:
                self.socket.send(
                    dgram.payload,
                    Address(host, port),
                    size=dgram.size,
                    headers=dict(template),
                )

    def _serve_nack(self, dgram: Datagram, nacked) -> None:
        reply_to = dgram.headers.get(NACK_TO_HEADER)
        if not reply_to:
            return
        target = Address(reply_to[0], reply_to[1])
        for seq in nacked:
            entry = self._history.get(seq)
            if entry is None:
                continue  # evicted or never sequenced: the gap flush owns it
            payload, size, template = entry
            self.retransmits_served += 1
            self.socket.send(payload, target, size=size, headers=dict(template))


# --------------------------------------------------------------------------
# Switch sequencer program
# --------------------------------------------------------------------------
class SequencerProgram(PacketProgram):
    """Stamp-and-clone at a programmable switch (the NOPaxos sequencer)."""

    def __init__(self, name: str, group: str):
        super().__init__(name)
        self.group = group
        self.next_seq = 1
        self.messages_sequenced = 0

    def match(self, dgram: Datagram) -> bool:
        return (
            dgram.headers.get(GROUP_HEADER) == self.group
            and SEQ_HEADER not in dgram.headers
        )

    def handle(self, dgram: Datagram) -> ProgramResult:
        members = dgram.headers.get(MEMBERS_HEADER) or []
        if not members:
            return ProgramResult(action=PacketAction.DROP)
        seq = self.next_seq
        self.next_seq += 1
        self.messages_sequenced += 1
        origin = [dgram.src.host, dgram.src.port]
        clones: list[Datagram] = []
        for host, port in members[1:]:
            clone = Datagram(
                src=dgram.src,
                dst=Address(host, port),
                payload=dgram.payload,
                size=dgram.size,
                headers={
                    **{
                        k: v
                        for k, v in dgram.headers.items()
                        if k != MEMBERS_HEADER
                    },
                    SEQ_HEADER: seq,
                    ORIGIN_HEADER: origin,
                },
            )
            clones.append(clone)
        first_host, first_port = members[0]
        dgram.dst = Address(first_host, first_port)
        dgram.headers.pop(MEMBERS_HEADER, None)
        dgram.headers[SEQ_HEADER] = seq
        dgram.headers[ORIGIN_HEADER] = origin
        return ProgramResult(
            action=PacketAction.CLONE,
            clones=clones,
            action_after=PacketAction.REDIRECT,
        )


# --------------------------------------------------------------------------
# Replica-side shared resequencer
# --------------------------------------------------------------------------
class _GroupResequencer:
    """Global (per replica process, per group) in-order release.

    Shared by every connection of one replica in one group, because the
    sequence space is global: client A's request n+1 may arrive on a
    different connection than client B's request n.
    """

    #: How many flush_after windows to spend NACKing the sequencer before
    #: giving up and flushing the gap to the application.
    NACK_RETRIES = 2
    #: Cap on missing seqs requested per NACK.
    MAX_NACK_SEQS = 64

    def __init__(self, env: Environment, group: str, flush_after: float, entity=None):
        self.env = env
        self.group = group
        self.flush_after = flush_after
        self.expected = 1
        self._buffer: dict[int, tuple[ChunnelStage, Message]] = {}
        self._timer = None
        self.gaps_flushed = 0
        self.delivered = 0
        self.nacks_sent = 0
        self._entity = entity
        self._nack_socket: Optional[UdpSocket] = None
        #: Learned from in-band traffic (host-sequencer flavour only).
        self._sequencer: Optional[Address] = None
        self._reply_to: Optional[Address] = None

    def feed(self, stage: ChunnelStage, msg: Message) -> list[Message]:
        """Offer one stamped message; returns those releasable via ``stage``.

        Messages buffered earlier (possibly fed by other stages) are
        released through their own stages when the gap fills.
        """
        seq = msg.headers[SEQ_HEADER]
        if seq < self.expected:
            return []  # duplicate
        if seq > self.expected:
            newly_armed = self._timer is None or not self._timer.is_alive
            self._buffer[seq] = (stage, msg)
            self._arm_timer()
            if newly_armed:
                self._send_nack()
            return []
        releasable = [msg]
        self.expected += 1
        self.delivered += 1
        self._release_contiguous(exclude_stage=stage, collected=releasable, stage=stage)
        if not self._buffer:
            self._disarm_timer()
        return releasable

    def _release_contiguous(self, exclude_stage, collected, stage) -> None:
        while self.expected in self._buffer:
            buffered_stage, buffered_msg = self._buffer.pop(self.expected)
            self.expected += 1
            self.delivered += 1
            if buffered_stage is stage:
                collected.append(buffered_msg)
            else:
                buffered_stage.deliver_above(buffered_msg)

    def _arm_timer(self) -> None:
        if self._timer is not None and self._timer.is_alive:
            return
        self._timer = self.env.process(
            self._flush_loop(), name=f"mcast.flush:{self.group}"
        )

    def _disarm_timer(self) -> None:
        if self._timer is not None and self._timer.is_alive:
            self._timer.interrupt("gap filled")
        self._timer = None

    def note_path(self, sequencer: Address, reply_to: Address) -> None:
        """Learn the sequencer and our delivery address from in-band traffic."""
        self._sequencer = sequencer
        self._reply_to = reply_to

    def _can_nack(self) -> bool:
        return (
            self._entity is not None
            and self._sequencer is not None
            and self._reply_to is not None
        )

    def _send_nack(self) -> bool:
        """Ask the sequencer to retransmit the missing seqs; False if we
        have no sequencer to ask (switch flavour) or nothing is missing."""
        if not self._can_nack() or not self._buffer:
            return False
        missing = [
            seq
            for seq in range(self.expected, max(self._buffer))
            if seq not in self._buffer
        ][: self.MAX_NACK_SEQS]
        if not missing:
            return False
        if self._nack_socket is None:
            self._nack_socket = UdpSocket(self._entity)
        self._nack_socket.send(
            b"",
            self._sequencer,
            headers={
                GROUP_HEADER: self.group,
                NACK_HEADER: missing,
                NACK_TO_HEADER: [self._reply_to.host, self._reply_to.port],
            },
        )
        self.nacks_sent += 1
        return True

    def _flush_loop(self):
        retries = self.NACK_RETRIES if self._can_nack() else 0
        for _ in range(retries):
            try:
                yield self.env.timeout(self.flush_after)
            except Interrupt:
                return
            if not self._buffer:
                self._timer = None
                return
            self._send_nack()
        try:
            yield self.env.timeout(self.flush_after)
        except Interrupt:
            return
        if not self._buffer:
            self._timer = None
            return
        self.gaps_flushed += 1
        top = max(self._buffer)
        for seq in sorted(self._buffer):
            buffered_stage, buffered_msg = self._buffer.pop(seq)
            buffered_msg.headers[GAP_HEADER] = True
            self.delivered += 1
            buffered_stage.deliver_above(buffered_msg)
        self.expected = max(self.expected, top + 1)
        self._timer = None


# --------------------------------------------------------------------------
# Stages
# --------------------------------------------------------------------------
class _McastClientStage(ChunnelStage):
    """Client side: route sends to the ordering point with the fan-out list."""

    def __init__(self, impl: ChunnelImpl, role: Role, use_sequencer: bool):
        super().__init__(impl, role)
        #: True → fallback path: resolve and send via the host sequencer.
        #: False → switch path: send toward the first member; the switch
        #: program intercepts and clones en route.
        self.use_sequencer = use_sequencer
        self._via: Optional[Address] = None
        self.multicasts_sent = 0

    def _sequencer_address(self) -> Address:
        if self._via is None:
            group = self.impl.spec.group
            network = self.connection.runtime.network
            records = network.names.resolve(sequencer_service_name(group))
            if not records:
                raise NegotiationError(
                    f"no sequencer registered for group {group!r} "
                    "(did the replicas listen first?)"
                )
            self._via = records[0].address
        return self._via

    def on_send(self, msg: Message) -> Iterable[Message]:
        peers = self.connection.peers if self.connection else []
        if not peers:
            raise NegotiationError("ordered_mcast connection has no peers")
        msg.headers[GROUP_HEADER] = self.impl.spec.group
        msg.headers[MEMBERS_HEADER] = [[p.host, p.port] for p in peers]
        msg.dst = self._sequencer_address() if self.use_sequencer else peers[0]
        self.multicasts_sent += 1
        return [msg]


class _McastReplicaStage(ChunnelStage):
    """Replica side: feed the group's shared resequencer."""

    def __init__(
        self,
        impl: ChunnelImpl,
        role: Role,
        resequencer: _GroupResequencer,
        host_sequencer: bool = False,
    ):
        super().__init__(impl, role)
        self.resequencer = resequencer
        #: With a host sequencer, msg.src before the origin restore IS the
        #: sequencer's socket — learn the NACK path from it.  The switch
        #: flavour preserves the client src, so gap recovery stays off.
        self.host_sequencer = host_sequencer

    def on_recv(self, msg: Message) -> Iterable[Message]:
        if SEQ_HEADER not in msg.headers:
            return [msg]  # non-multicast traffic
        if self.host_sequencer and msg.src is not None and self.connection:
            self.resequencer.note_path(msg.src, self.connection.local_address)
        origin = msg.headers.pop(ORIGIN_HEADER, None)
        if origin is not None:
            msg.src = Address(origin[0], origin[1])
        return self.resequencer.feed(self, msg)


# --------------------------------------------------------------------------
# Implementations
# --------------------------------------------------------------------------
class _McastImplBase(ChunnelImpl):
    """Shared wiring for both sequencer flavours.

    ``setup`` always runs before ``make_stage`` (both in the listener and in
    the connect path), so the setup context is stashed for stage
    construction.
    """

    _USE_SEQUENCER = True

    def setup(self, ctx: SetupContext) -> None:
        self._ctx = ctx

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        if role is not Role.SERVER:
            return _McastClientStage(self, role, use_sequencer=self._USE_SEQUENCER)
        ctx, spec = self._ctx, self.spec
        # No destroy: the group's sequence space outlives any one connection.
        resequencer = ctx.share(
            f"mcast-reseq:{spec.group}",
            lambda: _GroupResequencer(
                ctx.env, spec.group, spec.args["flush_after"], entity=ctx.local_entity
            ),
        )
        return _McastReplicaStage(
            self, role, resequencer, host_sequencer=self._USE_SEQUENCER
        )


@catalog.add
class McastSequencerFallback(_McastImplBase):
    """Host-process sequencer on the group's leader (always available)."""

    meta = ImplMeta(
        chunnel_type="ordered_mcast",
        name="host-sequencer",
        priority=10,
        scope=Scope.GLOBAL,
        endpoints=Endpoints.BOTH,
        placement=Placement.HOST_SOFTWARE,
        description="userspace sequencer on the lowest-named member",
    )

    _USE_SEQUENCER = True

    def setup(self, ctx: SetupContext) -> None:
        super().setup(ctx)
        spec: OrderedMcast = self.spec
        if not ctx.is_server:
            return
        members = spec.args["members"]
        if not members:
            raise NegotiationError(
                "ordered_mcast host-sequencer needs the members argument "
                "to elect a sequencer host"
            )
        if ctx.server_entity != min(members):
            return

        def start() -> GroupSequencer:
            sequencer = GroupSequencer(ctx.local_entity, spec.group)
            ctx.network.names.register(
                sequencer_service_name(spec.group), sequencer.address
            )
            return sequencer

        ctx.share(f"mcast-seq:{spec.group}", start)  # lives with the runtime


@catalog.add
class McastSwitchSequencer(_McastImplBase):
    """Switch-resident sequencer (the NOPaxos/SpecPaxos fast path)."""

    meta = ImplMeta(
        chunnel_type="ordered_mcast",
        name="switch-sequencer",
        priority=80,
        scope=Scope.NETWORK,
        endpoints=Endpoints.SERVER,
        placement=Placement.SWITCH,
        resources=ResourceVector({SWITCH_STAGES: 1, SWITCH_SRAM_KB: 64}),
        description="stamp-and-clone sequencer at the switch",
    )

    FOOTPRINT = SwitchProgramFootprint(stages=1, sram_kb=64)
    _USE_SEQUENCER = False

    def setup(self, ctx: SetupContext) -> None:
        super().setup(ctx)
        spec: OrderedMcast = self.spec
        if not ctx.is_server:
            return
        if self.location is None:
            raise NegotiationError("switch sequencer chosen without a location")
        switch = ctx.network.switches[self.location]
        name = f"mcast-seq-prog:{spec.group}"
        # Scanned on the device, not shared per runtime: every replica's
        # runtime sets this node up, and one program must serve them all.
        if any(p.name == name for p in switch.programs):
            return
        switch.install(SequencerProgram(name, spec.group), self.FOOTPRINT)
