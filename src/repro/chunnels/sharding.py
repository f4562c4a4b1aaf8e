"""The sharding Chunnel (Listing 4, Figure 5).

A service exposes one canonical address; each request is steered to one of
several backend shards by a **shard function** over the request bytes (the
paper's ``hash(p.payload[10..14]) % 3``).  Where the steering happens is
exactly what Bertha negotiates per connection:

* ``ShardClientFallback`` — *client push*: the client computes the shard
  and sends straight to it.  Scales with clients; no server bottleneck.
  (Figure 5's best case — "a case where the presence of a fallback
  implementation improves performance, even in the absence of offloads".)
* ``ShardXdp`` — *server accelerated*: an XDP-like kernel program on the
  server host rewrites the destination port before the packet enters the
  stack.  Cheap per packet, but centralized — the server's kernel fast
  path saturates first under high load.
* ``ShardServerFallback`` — *server fallback*: a userspace process
  receives every request, computes the shard, and re-sends it.  Slowest,
  but always available and correct.
* ``ShardSwitchProgram`` — in-network: the ToR rewrites the destination
  (the P4 sharding implementation of the paper's Figure 1), consuming
  switch stages/SRAM (and therefore subject to §6 scheduling).

Shard functions are *data*, not code: they must travel in the DAG exchange,
so they are declarative objects (:class:`HashBytes`, the paper's byte-range
hash, which every placement can evaluate) registered with the wire codec.
An arbitrary Python callable would be rejected at negotiation time — by
design.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Optional

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
from ..core.resources import (
    SWITCH_SRAM_KB,
    SWITCH_STAGES,
    XDP_SHARE,
    ResourceVector,
)
from ..core.scope import Endpoints, Placement, Scope
from ..core.stack import SetupContext
from ..core.wire import CTL_HEADER, register_wire_type
from ..errors import ChunnelArgumentError
from ..sim.datagram import Address, Datagram
from ..sim.programs import PacketAction, PacketProgram, ProgramResult
from ..sim.switch import SwitchProgramFootprint

__all__ = [
    "ShardFunction",
    "HashBytes",
    "Shard",
    "ShardClientFallback",
    "ShardServerFallback",
    "ShardXdp",
    "ShardSwitch",
    "REPLY_TO_HEADER",
]

REPLY_TO_HEADER = "shard_reply_to"


# --------------------------------------------------------------------------
# Shard functions (declarative, wire-encodable)
# --------------------------------------------------------------------------
class ShardFunction:
    """Maps a request to a shard index in ``[0, n)``:
    ``bucket(payload, headers, n)``."""

    @staticmethod
    def _hash(data: bytes) -> int:
        return zlib.crc32(data) & 0xFFFFFFFF


class HashBytes(ShardFunction):
    """Hash a fixed byte range of the wire payload (the paper's form).

    Works at every placement — client library, XDP, and switch — because it
    needs nothing but the packet bytes.
    """

    def __init__(self, offset: int = 0, length: int = 4):
        if offset < 0 or length <= 0:
            raise ChunnelArgumentError(
                f"invalid byte range: offset={offset} length={length}"
            )
        self.offset = offset
        self.length = length

    def bucket(self, payload: Any, headers: dict, n: int) -> int:
        if not isinstance(payload, (bytes, bytearray)):
            raise ChunnelArgumentError(
                "HashBytes needs byte payloads (serialize before sharding)"
            )
        window = bytes(payload[self.offset : self.offset + self.length])
        if not window:
            window = bytes(payload)
        return self._hash(window) % n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashBytes)
            and (self.offset, self.length) == (other.offset, other.length)
        )


register_wire_type(
    "shard_fn.hash_bytes", HashBytes, fields=[("offset", int), ("length", int)]
)


# --------------------------------------------------------------------------
# Spec
# --------------------------------------------------------------------------
@register_spec
class Shard(ChunnelSpec):
    """Steer each request to one of ``choices`` by ``shard_fn``.

    Parameters
    ----------
    choices:
        Backend shard addresses (the paper's ``shard::args(choices:)``).
    shard_fn:
        A declarative :class:`ShardFunction`.
    client_cost / server_cost:
        Per-request CPU cost of computing the shard at the client library
        or the userspace server fallback (the latter includes the
        receive-forward packet handling of the extra process hop).
    """

    type_name = "shard"

    def __init__(
        self,
        choices: list[Address],
        shard_fn: Optional[ShardFunction] = None,
        client_cost: float = 0.4e-6,
        server_cost: float = 8.0e-6,
    ):
        if not choices:
            raise ChunnelArgumentError("shard needs at least one backend")
        super().__init__(
            choices=list(choices),
            shard_fn=shard_fn or HashBytes(),
            client_cost=client_cost,
            server_cost=server_cost,
        )

    @property
    def choices(self) -> list[Address]:
        return self.args["choices"]

    @property
    def shard_fn(self) -> ShardFunction:
        return self.args["shard_fn"]


# --------------------------------------------------------------------------
# Client push
# --------------------------------------------------------------------------
class _ClientShardStage(ChunnelStage):
    """Compute the shard at the client and address the message directly."""

    def __init__(self, impl: ChunnelImpl, role: Role):
        super().__init__(impl, role)
        self.requests_sharded = 0

    def on_send(self, msg: Message) -> Iterable[Message]:
        spec: Shard = self.impl.spec
        index = spec.shard_fn.bucket(msg.payload, msg.headers, len(spec.choices))
        msg.dst = spec.choices[index]
        self.charge(spec.args["client_cost"])
        self.requests_sharded += 1
        return [msg]


@catalog.add
class ShardClientFallback(ChunnelImpl):
    """Client-push sharding (Figure 5's best-scaling configuration)."""

    meta = ImplMeta(
        chunnel_type="shard",
        name="client-push",
        priority=20,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.CLIENT,
        placement=Placement.HOST_SOFTWARE,
        description="client computes the shard and sends directly",
    )

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        return _ClientShardStage(self, role) if role is Role.CLIENT else None


# --------------------------------------------------------------------------
# Server fallback
# --------------------------------------------------------------------------
class _SharedSharder:
    """One userspace sharder process per server application.

    All of the application's connections funnel through this single serial
    process — which is exactly why the paper's "Server Fallback"
    configuration performs worst: it must "handle traffic from all
    clients".  Requests queue here; each takes ``server_cost`` seconds of
    the sharder's one thread before being re-sent toward its shard.
    """

    def __init__(self, env, spec: "Shard"):
        self.env = env
        self.spec = spec
        from ..sim.resources import Store

        self.queue = Store(env, name="sharder")
        self.requests_forwarded = 0
        self._stopping = False
        self._busy = False
        self._proc = env.process(self._run(), name="shard.fallback")

    def submit(self, stage: ChunnelStage, msg: Message) -> None:
        self.queue.put((stage, msg))

    def stop(self) -> None:
        """Stop once the queue drains (immediately when idle).  The share's
        last holder calls it: live reconfiguration swaps sharders in and
        out mid-run, so one cannot loop forever."""
        self._stopping = True
        if self._proc.is_alive and not self._busy and len(self.queue) == 0:
            self._proc.interrupt("sharder stopped")

    def _run(self):
        from ..sim.eventloop import Interrupt

        while True:
            if self._stopping and len(self.queue) == 0:
                return
            try:
                stage, msg = yield self.queue.get()
            except Interrupt:
                return
            self._busy = True
            yield self.env.timeout(self.spec.args["server_cost"])
            index = self.spec.shard_fn.bucket(
                msg.payload, msg.headers, len(self.spec.choices)
            )
            forward = msg.copy()
            forward.dst = self.spec.choices[index]
            forward.headers["shard_forwarded"] = True
            if msg.src is not None:
                forward.headers[REPLY_TO_HEADER] = [msg.src.host, msg.src.port]
            self.requests_forwarded += 1
            stage.send_below(forward)
            self._busy = False


class _ServerShardStage(ChunnelStage):
    """Per-connection entry into the application's shared sharder."""

    def __init__(self, impl: ChunnelImpl, role: Role, sharder: _SharedSharder):
        super().__init__(impl, role)
        self.sharder = sharder

    def on_recv(self, msg: Message) -> Iterable[Message]:
        if msg.headers.get("shard_forwarded"):
            return [msg]  # already steered (shouldn't normally reach us)
        self.sharder.submit(self, msg)
        return []  # consumed: the shard handles and answers it


@catalog.add
class ShardServerFallback(ChunnelImpl):
    """Userspace sharding at the server (Figure 5's worst case)."""

    meta = ImplMeta(
        chunnel_type="shard",
        name="server-fallback",
        priority=5,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.SERVER,
        placement=Placement.HOST_SOFTWARE,
        description="userspace sharder process at the server",
    )

    def setup(self, ctx: SetupContext) -> None:
        self._ctx = ctx

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        if role is not Role.SERVER:
            return None
        ctx, spec = self._ctx, self.spec
        sharder = ctx.share(
            f"sharder:[{','.join(str(a) for a in spec.choices)}]",
            lambda: _SharedSharder(ctx.env, spec),
            _SharedSharder.stop,
        )
        return _ServerShardStage(self, role, sharder)


# --------------------------------------------------------------------------
# XDP (kernel fast path) offload
# --------------------------------------------------------------------------
class XdpShardProgram(PacketProgram):
    """The XDP redirector: rewrite the destination before the stack."""

    def __init__(self, name: str, spec: Shard):
        super().__init__(name)
        self.spec = spec
        self.watched_ports: set[int] = set()
        self.redirected = 0

    def match(self, dgram: Datagram) -> bool:
        if dgram.headers.get(CTL_HEADER):
            return False  # control traffic falls through to the socket
        return dgram.dst.port in self.watched_ports

    def handle(self, dgram: Datagram) -> ProgramResult:
        index = self.spec.shard_fn.bucket(
            dgram.payload, dgram.headers, len(self.spec.choices)
        )
        dgram.dst = self.spec.choices[index]
        dgram.headers["shard_forwarded"] = True
        self.redirected += 1
        return ProgramResult(action=PacketAction.REDIRECT)


def _redirect_port(ctx: SetupContext, connection, key: str, install, uninstall) -> None:
    """Hold the shard program under ``key`` (``install()`` makes it,
    ``uninstall`` removes it with its last user) and the connection's
    port in it.  The port is a share of its own: a rebuilt node takes it
    before the node it replaces gives it back, so it stays watched."""
    program = ctx.share(key, install, uninstall)
    port = connection.local_address.port
    ctx.share(
        f"{key}:{port}",
        lambda: program.watched_ports.add(port),
        lambda _none: program.watched_ports.discard(port),
    )


@catalog.add
class ShardXdp(ChunnelImpl):
    """Kernel-fast-path sharding at the server host (the paper's 200-line
    XDP program, Figure 5's "Server Accelerated")."""

    meta = ImplMeta(
        chunnel_type="shard",
        name="xdp",
        priority=60,
        scope=Scope.HOST,
        endpoints=Endpoints.SERVER,
        placement=Placement.KERNEL_FASTPATH,
        resources=ResourceVector({XDP_SHARE: 1}),
        description="XDP destination rewrite before the stack",
    )

    def after_establish(self, ctx: SetupContext, connection) -> None:
        if not ctx.is_server:
            return
        spec: Shard = self.spec
        key = f"xdp-shard:[{','.join(str(a) for a in spec.choices)}]"
        host = ctx.local_entity.host

        def install() -> XdpShardProgram:
            program = XdpShardProgram(key, spec)
            host.install_kernel_program(program)
            return program

        # The last connection gone uninstalls the program, so the fast path
        # and the discovery-side accounting (released separately) agree.
        _redirect_port(ctx, connection, key, install, host.remove_kernel_program)

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        return None  # the kernel program is the implementation


# --------------------------------------------------------------------------
# Switch (P4) offload
# --------------------------------------------------------------------------
class SwitchShardProgram(XdpShardProgram):
    """Match-action destination rewrite at a programmable switch.

    The match is (server entity, port): unlike an XDP program — which only
    ever sees traffic addressed to its own host — a switch sees *all*
    transit traffic, so matching the port alone would catch unrelated flows
    whose ephemeral port numbers happen to collide.  The rewrite is the XDP
    program's.
    """

    def __init__(self, name: str, spec: Shard, server_entity: str):
        super().__init__(name, spec)
        self.server_entity = server_entity

    def match(self, dgram: Datagram) -> bool:
        return dgram.dst.host == self.server_entity and super().match(dgram)


@catalog.add
class ShardSwitch(ChunnelImpl):
    """In-network (P4) sharding at a switch on the path (Figure 1's
    offload-implementation example)."""

    meta = ImplMeta(
        chunnel_type="shard",
        name="p4",
        priority=90,
        scope=Scope.NETWORK,
        endpoints=Endpoints.SERVER,
        placement=Placement.SWITCH,
        resources=ResourceVector({SWITCH_STAGES: 2, SWITCH_SRAM_KB: 128}),
        description="match-action destination rewrite at the ToR",
    )

    FOOTPRINT = SwitchProgramFootprint(stages=2, sram_kb=128)

    def after_establish(self, ctx: SetupContext, connection) -> None:
        if not ctx.is_server:
            return
        if self.location is None:
            raise ChunnelArgumentError(
                "switch shard implementation chosen without a location"
            )
        spec: Shard = self.spec
        switch = ctx.network.switches[self.location]
        key = f"p4-shard:{self.location}:[{','.join(str(a) for a in spec.choices)}]"

        def install() -> SwitchShardProgram:
            program = SwitchShardProgram(key, spec, ctx.server_entity)
            switch.install(program, self.FOOTPRINT)
            return program

        _redirect_port(ctx, connection, key, install, switch.uninstall)

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        return None  # the switch program is the implementation
