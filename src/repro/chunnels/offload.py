"""In-switch compute offloads: KV read cache and RPC fan-in aggregation.

The paper's Figure 5 negotiates between host-resident and in-network
implementations of the *same* Chunnel; this module supplies the two offload
shapes NetRPC identifies as the highest-value in-network compute:

* :class:`KvCache` — a read cache for the kv wire protocol, resident in a
  programmable switch (:class:`KvCacheSwitch`) or absent entirely
  (:class:`KvCacheHostPath`, the fallback: every request continues to the
  shard workers).  The switch parses kv-codec requests at **fixed wire
  offsets** — tag at byte 0, op at byte 5, key length at bytes 6..8 — the
  way a P4 parser would, deliberately *not* reusing the host codec.  GET
  hits are answered by rewriting the transiting request into a response
  datagram and redirecting it straight back to the client; PUTs are
  write-through (the cache is updated as the packet transits, so a
  subsequent GET can never observe a stale value once the PUT is
  acknowledged); DELETE and RMW invalidate.  Reads run at line rate
  (station-less, on the fused fast path); cache maintenance crosses the
  switch's control path, modelled as a single-server station whose queueing
  delay is what makes the offload *lose* on write-heavy mixes.

* :class:`FanIn` — scatter/gather RPC: one logical request fans out to N
  workers and their N replies combine into one response.  The scatter is
  always client-side (:class:`_FanInClientStage`); the *gather* either
  happens at the client too (:class:`FanInHost`) or at the ToR
  (:class:`FanInSwitch`), where the switch absorbs N−1 reply datagrams and
  forwards a single combined one — the NetRPC aggregation offload.  Both
  gathers produce byte-identical combined payloads, so the placements are
  observably equivalent above the serialization layer.

Both switch implementations are ordinary discovery records with
:class:`~repro.core.resources.ResourceVector` footprints: negotiation ranks
them by policy, the discovery-side scheduler admits or preempts them
(§6 multi-resource scheduling), and live reconfiguration degrades to the
host path when the switch fails.  A failed switch loses its SRAM: cache
entries and pending aggregations are cleared on both fail and recover, so
a recovered program never serves pre-failure state.
"""

from __future__ import annotations

import struct
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
from ..core.wire import CTL_HEADER
from ..errors import BerthaError, ChunnelArgumentError
from ..sim.datagram import Address, Datagram
from ..sim.faults import CORRUPT_HEADER
from ..sim.programs import PacketAction, PacketProgram, ProgramResult
from ..sim.resources import Station
from ..sim.switch import SwitchProgramFootprint

__all__ = [
    "KvCache",
    "KvCacheSwitch",
    "KvCacheHostPath",
    "SwitchKvCacheReader",
    "SwitchKvCacheWriter",
    "FanIn",
    "FanInHost",
    "FanInSwitch",
    "SwitchFanInProgram",
    "combine_replies",
    "split_combined_value",
]

# kv wire protocol constants, restated at the offsets a switch parser sees.
# (Deliberately independent of apps.kvstore: the P4 program matches bytes,
# it does not link against the host codec.)
_REQ_TAG = 0x10
_RESP_TAG = 0x20
_OP_GET = 0
_OP_PUT = 1
_OP_DELETE = 2
_OP_SCAN = 3
_OP_RMW = 4
_STATUS_OK = 0
_STATUS_NOT_FOUND = 1
_STATUS_ERROR = 2

REPLY_TO_HEADER = "shard_reply_to"
FANIN_PARTS_HEADER = "fanin_parts"
FANIN_COMBINED_HEADER = "fanin_combined"


def _parse_request_key(payload: bytes) -> Optional[tuple[int, bytes]]:
    """(op, raw key) from kv request bytes at fixed offsets, or None.

    Truncated buffers return None — a switch parser falls through to PASS
    rather than acting on garbage (the host codec is the strict validator).
    """
    if len(payload) < 8 or payload[0] != _REQ_TAG:
        return None
    op = payload[5]
    (key_len,) = struct.unpack_from(">H", payload, 6)
    if len(payload) < 8 + key_len:
        return None
    return op, bytes(payload[8 : 8 + key_len])


def _response_bytes(status: int, value: bytes = b"") -> bytes:
    """kv response wire bytes (tag | status | value_len | value)."""
    return struct.pack(">BBI", _RESP_TAG, status, len(value)) + value


def combine_replies(parts: list[bytes]) -> bytes:
    """Fold N kv reply payloads into one combined kv response.

    The combined value is each part's value, length-prefixed (4 bytes, big
    endian), in the order given.  Status is ``ok`` only if every part was
    ``ok``.  Both the host gather and the switch gather call this, which is
    what makes the two placements byte-identical above the wire.
    """
    status = _STATUS_OK
    chunks = []
    for part in parts:
        if len(part) < 6 or part[0] != _RESP_TAG:
            status = _STATUS_ERROR
            chunks.append(struct.pack(">I", 0))
            continue
        part_status = part[1]
        (value_len,) = struct.unpack_from(">I", part, 2)
        value = bytes(part[6 : 6 + value_len])
        if part_status != _STATUS_OK:
            status = _STATUS_ERROR if part_status == _STATUS_ERROR else status
            if part_status == _STATUS_NOT_FOUND and status == _STATUS_OK:
                status = _STATUS_NOT_FOUND
        chunks.append(struct.pack(">I", len(value)) + value)
    return _response_bytes(status, b"".join(chunks))


def split_combined_value(value: bytes) -> list[bytes]:
    """Invert :func:`combine_replies`'s value encoding."""
    parts = []
    offset = 0
    while offset + 4 <= len(value):
        (length,) = struct.unpack_from(">I", value, offset)
        offset += 4
        parts.append(bytes(value[offset : offset + length]))
        offset += length
    return parts


# --------------------------------------------------------------------------
# KV read cache
# --------------------------------------------------------------------------
@register_spec
class KvCache(ChunnelSpec):
    """Cache kv GETs for a set of shard-worker addresses.

    Parameters
    ----------
    choices:
        The shard-worker addresses whose request traffic the cache watches
        (the same list the sharding Chunnel steers across).
    capacity:
        Maximum cached entries; insertion beyond it evicts the oldest
        entry (FIFO — what a register-array P4 cache actually does).
    write_cost:
        Control-path seconds per cache-maintenance operation (PUT/DELETE/
        RMW).  Served by a single control CPU: write-heavy traffic queues
        here, which is the offload's saturation mode.
    """

    type_name = "kvcache"

    def __init__(
        self,
        choices: list[Address],
        capacity: int = 1024,
        write_cost: float = 4.0e-6,
    ):
        if not choices:
            raise ChunnelArgumentError("kvcache needs at least one worker")
        if capacity <= 0:
            raise ChunnelArgumentError("kvcache capacity must be positive")
        if write_cost < 0:
            raise ChunnelArgumentError("kvcache write_cost must be >= 0")
        super().__init__(
            choices=list(choices), capacity=capacity, write_cost=write_cost
        )

    @property
    def choices(self) -> list[Address]:
        return self.args["choices"]


class _CacheState:
    """The register array: key → value plus hit/miss accounting."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: dict[bytes, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidations = 0
        self.evictions = 0

    def insert(self, key: bytes, value: bytes) -> None:
        if key not in self.entries and len(self.entries) >= self.capacity:
            self.entries.pop(next(iter(self.entries)))
            self.evictions += 1
        self.entries[key] = value

    def clear(self) -> None:
        """SRAM wipe: failure and recovery both start from empty."""
        self.entries.clear()


class _CacheProgram(PacketProgram):
    """A cache program's match: kv requests for ``server_entity``'s
    watched ports whose op is one of :attr:`OPS`."""

    OPS: tuple[int, ...] = ()

    def __init__(self, name: str, server_entity: str, state: _CacheState):
        super().__init__(name)
        self.server_entity = server_entity
        self.state = state
        self.watched_ports: set[int] = set()

    def clear(self) -> None:
        self.state.clear()

    def match(self, dgram: Datagram) -> bool:
        # A corrupted PUT must not write-through garbage: the NIC checksum
        # would reject it at the host, so the switch skips it too.
        if dgram.headers.get(CTL_HEADER) or dgram.headers.get(CORRUPT_HEADER):
            return False
        if dgram.dst.host != self.server_entity:
            return False
        if dgram.dst.port not in self.watched_ports:
            return False
        payload = dgram.payload
        return (
            isinstance(payload, (bytes, bytearray))
            and len(payload) >= 8
            and payload[0] == _REQ_TAG
            and payload[5] in self.OPS
        )


class SwitchKvCacheReader(_CacheProgram):
    """Serve GET hits at line rate by rewriting the request in place.

    Station-less on purpose: reads ride the fused `_Walk` fast path.  A hit
    turns the transiting request datagram into the response — payload and
    size rewritten, source/destination swapped — and redirects it straight
    back toward the client, never touching the server host.
    """

    OPS = (_OP_GET,)

    def handle(self, dgram: Datagram) -> ProgramResult:
        parsed = _parse_request_key(bytes(dgram.payload))
        if parsed is None:
            return ProgramResult(action=PacketAction.PASS)
        _op, key = parsed
        value = self.state.entries.get(key)
        if value is None:
            self.state.misses += 1
            return ProgramResult(action=PacketAction.PASS)
        self.state.hits += 1
        reply_to = dgram.headers.get(REPLY_TO_HEADER)
        client = (
            Address(reply_to[0], reply_to[1]) if reply_to else dgram.src
        )
        worker = dgram.dst
        dgram.payload = _response_bytes(_STATUS_OK, value)
        dgram.size = len(dgram.payload)
        dgram.dst = client
        dgram.src = worker
        headers = {"ser_codec": "kv"}
        if "rpc_id" in dgram.headers:
            headers["rpc_id"] = dgram.headers["rpc_id"]
        dgram.headers = headers
        return ProgramResult(action=PacketAction.REDIRECT)


class SwitchKvCacheWriter(_CacheProgram):
    """Cache maintenance on the switch control path (PUT/DELETE/RMW).

    Write-through: a PUT updates the cached value *as the packet transits*,
    before the worker applies it — by the time the client sees the PUT
    acknowledged, cache and store agree, so no later GET reads stale data.
    DELETE and RMW invalidate (the switch cannot compute the merged RMW
    value).  The attached station is the control CPU: one server, fixed
    per-op cost, and therefore a queue that grows with write rate.
    """

    OPS = (_OP_PUT, _OP_DELETE, _OP_RMW)

    def __init__(
        self,
        name: str,
        server_entity: str,
        state: _CacheState,
        station: Station,
    ):
        super().__init__(name, server_entity, state)
        self.station = station

    def handle(self, dgram: Datagram) -> ProgramResult:
        parsed = _parse_request_key(bytes(dgram.payload))
        if parsed is None:
            return ProgramResult(action=PacketAction.PASS)
        op, key = parsed
        if op == _OP_PUT:
            value = bytes(dgram.payload[8 + len(key) :])
            self.state.insert(key, value)
            self.state.writes += 1
        else:  # DELETE / RMW: drop the entry, let the store answer.
            if self.state.entries.pop(key, None) is not None:
                self.state.invalidations += 1
        return ProgramResult(action=PacketAction.PASS)


@catalog.add
class KvCacheSwitch(ChunnelImpl):
    """The in-switch KV read cache (NetCache-style, NetRPC's first shape)."""

    meta = ImplMeta(
        chunnel_type="kvcache",
        name="switch",
        priority=85,
        scope=Scope.NETWORK,
        endpoints=Endpoints.SERVER,
        placement=Placement.SWITCH,
        resources=ResourceVector({SWITCH_STAGES: 3, SWITCH_SRAM_KB: 512}),
        description="in-switch GET cache with write-through invalidation",
    )

    FOOTPRINT = SwitchProgramFootprint(stages=3, sram_kb=512)

    def after_establish(self, ctx: SetupContext, connection) -> None:
        if not ctx.is_server:
            return
        if self.location is None:
            raise ChunnelArgumentError(
                "switch kv-cache implementation chosen without a location"
            )
        spec: KvCache = self.spec
        switch = ctx.network.switches[self.location]
        key = f"kvcache:{self.location}:[{','.join(str(a) for a in spec.choices)}]"

        def install() -> tuple[SwitchKvCacheReader, SwitchKvCacheWriter]:
            state = _CacheState(spec.args["capacity"])
            reader = SwitchKvCacheReader(f"{key}/read", ctx.server_entity, state)
            station = Station(ctx.env, spec.args["write_cost"], name=f"{key}/ctl")
            writer = SwitchKvCacheWriter(
                f"{key}/write", ctx.server_entity, state, station
            )
            switch.install(reader, SwitchProgramFootprint(stages=2, sram_kb=448))
            try:
                switch.install(writer, SwitchProgramFootprint(stages=1, sram_kb=64))
            except BerthaError:
                # All or nothing: a failed share leaves no program behind.
                switch.uninstall(reader)
                raise
            return reader, writer

        def uninstall(programs) -> None:
            for program in programs:
                switch.uninstall(program)

        for program in ctx.share(key, install, uninstall):
            program.watched_ports.update(worker.port for worker in spec.choices)

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        return None  # the switch programs are the implementation


@catalog.add
class KvCacheHostPath(ChunnelImpl):
    """The fallback: no cache — every request continues to the workers.

    Registered so negotiation always has a feasible choice when the switch
    is excluded (failed, preempted, or simply absent): the Chunnel then
    costs nothing and caches nothing.
    """

    meta = ImplMeta(
        chunnel_type="kvcache",
        name="host-path",
        priority=10,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.SERVER,
        placement=Placement.HOST_SOFTWARE,
        description="no cache; requests go to the shard workers",
    )

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        return None


# --------------------------------------------------------------------------
# RPC fan-in aggregation
# --------------------------------------------------------------------------
@register_spec
class FanIn(ChunnelSpec):
    """Scatter one request to ``members``, gather their replies into one.

    The scatter always happens at the client; the gather placement is what
    negotiation decides (client host vs. ToR switch).
    """

    type_name = "fanin"

    def __init__(self, members: list[Address]):
        if not members:
            raise ChunnelArgumentError("fanin needs at least one member")
        super().__init__(members=list(members))

    @property
    def members(self) -> list[Address]:
        return self.args["members"]


class _FanInClientStage(ChunnelStage):
    """Scatter on send; gather on receive unless the switch already did.

    Replies carrying :data:`FANIN_COMBINED_HEADER` were aggregated in the
    network and pass straight up.  Otherwise the stage buffers parts per
    rpc id and synthesizes the combined payload itself — the host gather,
    and also the graceful path when a switch aggregator fails mid-flight
    and raw replies start arriving again.
    """

    def __init__(self, impl: ChunnelImpl, role: Role):
        super().__init__(impl, role)
        self._next_id = 0
        self._pending: dict[str, dict[Address, bytes]] = {}
        self.fanned_out = 0
        self.gathered_at_host = 0
        self.gathered_in_network = 0

    def on_send(self, msg: Message) -> Iterable[Message]:
        spec: FanIn = self.impl.spec
        rpc_id = msg.headers.get("rpc_id")
        if rpc_id is None:
            rpc_id = f"fanin-{self._next_id}"
            self._next_id += 1
        out = []
        for member in spec.members:
            copy = msg.copy()
            copy.dst = member
            copy.headers["rpc_id"] = rpc_id
            copy.headers[FANIN_PARTS_HEADER] = len(spec.members)
            out.append(copy)
        self.fanned_out += 1
        return out

    def on_recv(self, msg: Message) -> Iterable[Message]:
        if msg.headers.get(FANIN_COMBINED_HEADER):
            self.gathered_in_network += 1
            return [msg]
        spec: FanIn = self.impl.spec
        rpc_id = msg.headers.get("rpc_id")
        if rpc_id is None or not isinstance(msg.payload, (bytes, bytearray)):
            return [msg]  # not ours to gather
        parts = self._pending.setdefault(rpc_id, {})
        parts[msg.src] = bytes(msg.payload)
        if len(parts) < len(spec.members):
            return []
        del self._pending[rpc_id]
        ordered = [parts[m] for m in spec.members if m in parts]
        msg.payload = combine_replies(ordered)
        msg.size = len(msg.payload)
        msg.headers[FANIN_COMBINED_HEADER] = True
        self.gathered_at_host += 1
        return [msg]


class SwitchFanInProgram(PacketProgram):
    """Aggregate N worker replies into one datagram at the switch.

    Learns each pending aggregation from the request copies transiting on
    the way out (they carry the expected part count); buffers reply
    payloads as they transit back; on the last part, rewrites that reply
    into the combined response and redirects it to the client, having
    absorbed (dropped) the earlier N−1.
    """

    def __init__(self, name: str, spec: FanIn, server_entity: str):
        super().__init__(name)
        self.spec = spec
        self.server_entity = server_entity
        self.member_ports = {m.port for m in spec.members}
        #: rpc id → (expected parts, client address, gathered payloads)
        self.pending: dict[str, tuple[int, Address, dict[Address, bytes]]] = {}
        self.aggregated = 0
        self.absorbed = 0

    def clear(self) -> None:
        """In-flight aggregations are lost; their stragglers fall through
        to the client's host gather."""
        self.pending.clear()

    def match(self, dgram: Datagram) -> bool:
        if dgram.headers.get(CTL_HEADER) or dgram.headers.get(CORRUPT_HEADER):
            return False
        if (
            dgram.dst.host == self.server_entity
            and dgram.dst.port in self.member_ports
            and FANIN_PARTS_HEADER in dgram.headers
        ):
            return True  # outbound request copy: learn the aggregation
        return (
            dgram.src.host == self.server_entity
            and dgram.src.port in self.member_ports
            and dgram.headers.get("rpc_id") in self.pending
            and isinstance(dgram.payload, (bytes, bytearray))
            and len(dgram.payload) >= 6
            and dgram.payload[0] == _RESP_TAG
        )

    def handle(self, dgram: Datagram) -> ProgramResult:
        rpc_id = dgram.headers.get("rpc_id")
        if FANIN_PARTS_HEADER in dgram.headers and dgram.dst.host == self.server_entity:
            if rpc_id is not None and rpc_id not in self.pending:
                self.pending[rpc_id] = (
                    dgram.headers[FANIN_PARTS_HEADER],
                    dgram.src,
                    {},
                )
            return ProgramResult(action=PacketAction.PASS)
        expected, client, parts = self.pending[rpc_id]
        parts[dgram.src] = bytes(dgram.payload)
        if len(parts) < expected:
            self.absorbed += 1
            return ProgramResult(action=PacketAction.DROP)
        del self.pending[rpc_id]
        ordered = [parts[m] for m in self.spec.members if m in parts]
        dgram.payload = combine_replies(ordered)
        dgram.size = len(dgram.payload)
        dgram.dst = client
        dgram.headers = {
            "ser_codec": "kv",
            "rpc_id": rpc_id,
            FANIN_COMBINED_HEADER: True,
        }
        self.aggregated += 1
        return ProgramResult(action=PacketAction.REDIRECT)


@catalog.add
class FanInHost(ChunnelImpl):
    """Gather at the client host (the fallback placement)."""

    meta = ImplMeta(
        chunnel_type="fanin",
        name="host-gather",
        priority=15,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.CLIENT,
        placement=Placement.HOST_SOFTWARE,
        description="client scatters and gathers the replies itself",
    )

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        return _FanInClientStage(self, role) if role is Role.CLIENT else None


@catalog.add
class FanInSwitch(ChunnelImpl):
    """Gather at the ToR: N replies in, one combined reply out."""

    meta = ImplMeta(
        chunnel_type="fanin",
        name="switch-agg",
        priority=70,
        scope=Scope.NETWORK,
        endpoints=Endpoints.CLIENT,
        placement=Placement.SWITCH,
        resources=ResourceVector({SWITCH_STAGES: 2, SWITCH_SRAM_KB: 256}),
        description="in-switch reply aggregation for RPC fan-in",
    )

    FOOTPRINT = SwitchProgramFootprint(stages=2, sram_kb=256)

    def after_establish(self, ctx: SetupContext, connection) -> None:
        if ctx.is_server:
            return
        if self.location is None:
            raise ChunnelArgumentError(
                "switch fan-in implementation chosen without a location"
            )
        spec: FanIn = self.spec
        switch = ctx.network.switches[self.location]
        key = f"fanin-agg:{self.location}:[{','.join(str(a) for a in spec.members)}]"

        def install() -> SwitchFanInProgram:
            program = SwitchFanInProgram(key, spec, ctx.server_entity)
            switch.install(program, self.FOOTPRINT)
            return program

        ctx.share(key, install, switch.uninstall)

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        # The scatter (and the degraded-mode gather) still run at the
        # client; only the aggregation moved into the network.
        return _FanInClientStage(self, role) if role is Role.CLIENT else None
