"""Ledger source (I): each layer driven in isolation, through public calls.

Every driver builds what it needs outside the timed region, then times one
batch of ``n`` operations with ``time.process_time_ns``; :func:`run_drivers`
repeats each batch and keeps the median nanoseconds per operation.  None of
these numbers depends on a workload: they say what one call into a layer
costs when nothing else is running, which bounds what making that layer
faster can buy.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.apps.kvstore import kv_request, kv_response
from repro.chunnels import ReliableFallback, ReliableToe, SerializeFallback
from repro.chunnels.serialize import get_codec
from repro.core import Runtime
from repro.core import messages as msgs
from repro.core.chunnel import Message
from repro.core.dag import ChunnelDag
from repro.core.negcache import NegotiationCache
from repro.core.negotiation import decide
from repro.core.policy import PolicyContext, PriorityFirstPolicy
from repro.core.stack import ChunnelStack
from repro.core.wire import encode_sized, wire_kind
from repro.discovery import (
    DirectDiscoveryClient,
    DiscoveryService,
    ShardInfo,
    ShardMap,
)
from repro.sim import (
    Address,
    Environment,
    Network,
    PacketAction,
    PacketProgram,
    ProgramResult,
    SmartNic,
    Station,
    UdpSocket,
)

from . import conn, kv

__all__ = ["run_drivers"]

_now = time.process_time_ns
_PASS = ProgramResult(action=PacketAction.PASS)
#: Batches per driver; the median batch is reported.
_BATCHES = 5
#: Datagrams / station jobs in flight at once in the sim drivers: the event
#: heap stays as shallow as the workloads keep it.
_BURST = 32


class _PassProgram(PacketProgram):
    """Matches everything, changes nothing."""

    def match(self, dgram) -> bool:
        return True

    def handle(self, dgram) -> ProgramResult:
        return _PASS


class _CtlCapture(PacketProgram):
    """Keeps the first payload of every control-message kind crossing it."""

    def __init__(self):
        super().__init__("bench-ctl-capture")
        self.by_kind: dict = {}

    def match(self, dgram) -> bool:
        return wire_kind(dgram.payload) in msgs.BY_KIND

    def handle(self, dgram) -> ProgramResult:
        self.by_kind.setdefault(wire_kind(dgram.payload), dgram.payload)
        return _PASS


# -- sim ---------------------------------------------------------------------
def _callbacks(n: int) -> int:
    """64 self-rescheduling chains: the heap stays as shallow as it is in
    the workloads, so the cost is dispatch, not ``heapq`` on a deep heap."""
    env = Environment()
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0] >= 64:
            env.call_in(1e-6, tick)

    start = _now()
    for _ in range(min(64, n)):
        env.call_in(1e-6, tick)
    env.run()
    return _now() - start


def _process_yields(n: int) -> int:
    env = Environment()

    def ticker():
        for _ in range(n):
            yield env.timeout(1e-6)

    env.process(ticker())
    start = _now()
    env.run()
    return _now() - start


def _datagrams(program_factory: Callable[[Environment], PacketProgram] | None):
    """host -> ToR -> host, 64 B, to a bound socket nobody reads."""

    def batch(n: int) -> int:
        net = Network()
        net.add_switch("tor")
        for name in ("a", "b"):
            net.add_host(name)
            net.add_link(name, "tor", latency=5e-6)
        if program_factory is not None:
            net.switches["tor"].install(program_factory(net.env))
        sender = UdpSocket(net.entity("a"), 1000)
        receiver = UdpSocket(net.entity("b"), 2000)
        payload = bytes(64)
        start = _now()
        for _ in range(n // _BURST):
            for _ in range(_BURST):
                sender.send(payload, receiver.address, size=64)
            net.env.run()
        elapsed = _now() - start
        n -= n % _BURST
        if net.delivered != n:
            raise RuntimeError(f"driver delivered {net.delivered} of {n} datagrams")
        return elapsed

    return batch


def _station_jobs(n: int) -> int:
    env = Environment()
    station = Station(env, 1e-6)
    start = _now()
    for _ in range(n // _BURST):
        for index in range(_BURST):
            station.submit(index)
        env.run()
    return _now() - start


# -- control plane -------------------------------------------------------------
class _ControlWorld:
    """One small conn_* world, run once: the source of real control
    messages, DAGs, offers and a populated registry for the drivers below."""

    def __init__(self):
        net, server, client_rts = conn.build_world(conn.CACHE_SIZE)
        capture = _CtlCapture()
        net.switches["tor"].install(capture)
        runtime = client_rts[0]

        def two_connects():
            yield net.env.timeout(conn.CONNECT_AT)
            for label in ("cold", "resumed"):
                connection = yield from runtime.new(label, conn.echo_dag()).connect(
                    server.address
                )
                connection.send(b"x" * 64, size=64)
                yield connection.recv()
                connection.close()

        net.env.run(until=net.env.process(two_connects()))
        self.net = net
        #: One decoded instance of every control-message kind the conn_*
        #: world puts on the wire, and its encoded form.
        self.payloads = [capture.by_kind[kind] for kind in sorted(capture.by_kind)]
        self.messages = [msgs.decode_message(payload) for payload in self.payloads]


def _over_each(items: list, call: Callable[[object], object]):
    """A batch that applies ``call`` to every item in turn, ``n`` calls in
    all (rounded to whole passes and scaled back to ``n``)."""

    def batch(n: int) -> int:
        rounds = max(n // len(items), 1)
        start = _now()
        for _ in range(rounds):
            for item in items:
                call(item)
        return (_now() - start) * n // (rounds * len(items))

    return batch


def _unify(n: int) -> int:
    client, server = conn.echo_dag(), conn.echo_dag()
    start = _now()
    for _ in range(n):
        ChunnelDag.unify(client, server)
    return _now() - start


def _decide_inputs():
    """The conn_* DAG with client, server and network offers for it."""
    net = Network()
    net.add_host("srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=64))
    net.add_host("cl")
    net.add_host("dsc")
    net.add_switch("tor")
    for name in ("srv", "cl", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    service = DiscoveryService(net.hosts["dsc"])
    service.register(ReliableToe.meta, location="srv")
    dag = conn.echo_dag()
    types = sorted(dag.chunnel_types())
    candidates: dict = {}
    for name, origin in (("cl", "client"), ("srv", "server")):
        runtime = Runtime(net.hosts[name], discovery=service)
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        for ctype, offers in runtime.registry.offers_for(types, origin=origin).items():
            candidates.setdefault(ctype, []).extend(offers)
    for ctype, offers in service.offers_for(types).items():
        candidates.setdefault(ctype, []).extend(offers)
    ctx = PolicyContext(
        client_entity="cl",
        server_entity="srv",
        client_host="cl",
        server_host="srv",
        same_host=False,
        path_switches=["tor"],
    )
    return service, dag, types, candidates, ctx


def _decide(n: int) -> int:
    _service, dag, _types, candidates, ctx = _decide_inputs()
    policy = PriorityFirstPolicy()
    start = _now()
    for _ in range(n):
        decide(dag, candidates, policy, ctx)
    return _now() - start


def _negcache_lookups(n: int) -> int:
    cache = NegotiationCache(size=64, ttl=None, clock=lambda: 0.0)
    for index in range(32):
        cache.store(("peer", index), {"choice": index}, tags={index})
    start = _now()
    for index in range(n):
        cache.lookup(("peer", index & 63))  # every other lookup misses
    return _now() - start


def _discovery_queries(n: int) -> int:
    service, _dag, types, _candidates, _ctx = _decide_inputs()
    client = DirectDiscoveryClient(service)
    start = _now()
    for _ in range(n):
        try:
            next(client.query(types))
        except StopIteration:
            pass
    return _now() - start


def _shard_routes(n: int) -> int:
    shard_map = ShardMap(
        version=1,
        shards=[
            ShardInfo(
                shard_id=shard,
                primary=Address(f"dsc-s{shard}r0", 7300),
                replicas=[Address(f"dsc-s{shard}r{r}", 7300) for r in range(3)],
            )
            for shard in range(conn.DISCOVERY_SHARDS)
        ],
    )
    start = _now()
    for index in range(n):
        shard_map.shard_for_type("reliable")
        shard_map.shard_for_name("flow")
        shard_map.shard_for_record(f"s{index & 1}-7")
    return (_now() - start) // 3


# -- data path -------------------------------------------------------------------
def _kv_stack() -> ChunnelStack:
    """The client side of the negotiated kv_fastpath stack, cut loose from
    its socket: transmit and deliver go nowhere."""
    net, client_rts = kv.build_world(kv.generate_fastpath(1, 0.01))
    connection = net.env.run(
        until=net.env.process(
            client_rts[0].new("driver").connect(Address("srv", kv.SERVER_PORT))
        )
    )
    return ChunnelStack(
        net.env, connection.stack.stages, lambda _msg, _delay: None, lambda _msg: None
    )


def _stage_sends(stack: ChunnelStack):
    def batch(n: int) -> int:
        request = kv_request("get", "cl1-user000000000007")
        start = _now()
        for index in range(n):
            stack.send(Message(payload=dict(request), headers={"rpc_id": index}))
        return (_now() - start) // len(stack.stages)

    return batch


def _stage_receives(stack: ChunnelStack):
    def batch(n: int) -> int:
        wire = get_codec("kv").encode(kv_response("ok", bytes(64)))
        source = Address("srv", 7101)
        start = _now()
        for index in range(n):
            stack.receive(
                Message(
                    payload=wire,
                    size=len(wire),
                    headers={"ser_codec": "kv", "rpc_id": index},
                    src=source,
                )
            )
        return (_now() - start) // len(stack.stages)

    return batch


def _kv_codec(value_size: int):
    def batch(n: int) -> int:
        codec = get_codec("kv")
        request = kv_request("put", "cl1-user000000000007", bytes(value_size))
        start = _now()
        for _ in range(n):
            codec.decode(codec.encode(request))
        return _now() - start

    return batch


def _snapshots(world: _ControlWorld):
    def batch(n: int) -> int:
        registry = world.net.obs
        start = _now()
        for _ in range(n):
            registry.snapshot()
        return _now() - start

    return batch


def _generated_ops(n: int) -> int:
    scale = n / (4 * 2 * 3000)
    start = _now()
    inputs = kv.generate_fastpath(3, scale)
    elapsed = _now() - start
    made = sum(len(stream) for rung in inputs.streams for stream in rung)
    return elapsed * n // made


def run_drivers(scale: float = 1.0) -> tuple[dict, dict]:
    """``(metrics, notes)``: median ns per operation for every driver."""
    world = _ControlWorld()
    stack = _kv_stack()
    #: (metric, operations per batch at full scale, batch function)
    table = [
        ("sim.eventloop.ns_per_callback", 20000, _callbacks),
        ("sim.eventloop.ns_per_process_yield", 20000, _process_yields),
        ("sim.network.ns_per_dgram_plain", 3000, _datagrams(None)),
        (
            "sim.network.ns_per_dgram_inline_prog",
            3000,
            _datagrams(lambda _env: _PassProgram("bench-inline")),
        ),
        (
            "sim.network.ns_per_dgram_station_prog",
            3000,
            _datagrams(
                lambda env: _PassProgram("bench-station", station=Station(env, 1e-7))
            ),
        ),
        ("sim.resources.ns_per_station_job", 20000, _station_jobs),
        ("core.wire.ns_per_encode", 1500, _over_each(world.messages, encode_sized)),
        (
            "core.wire.ns_per_decode",
            1500,
            _over_each(world.payloads, msgs.decode_message),
        ),
        ("core.dag.ns_per_unify", 20000, _unify),
        ("core.negotiation.ns_per_decide", 1500, _decide),
        ("core.negcache.ns_per_lookup", 20000, _negcache_lookups),
        ("discovery.service.ns_per_query", 3000, _discovery_queries),
        ("discovery.shard.ns_per_route", 20000, _shard_routes),
        ("core.stack.ns_per_stage_send", 3000, _stage_sends(stack)),
        ("core.stack.ns_per_stage_recv", 3000, _stage_receives(stack)),
        ("chunnels.serialize.ns_per_kv_roundtrip_64", 5000, _kv_codec(64)),
        ("chunnels.serialize.ns_per_kv_roundtrip_4096", 5000, _kv_codec(4096)),
        ("obs.registry.ns_per_snapshot", 32, _snapshots(world)),
        ("workloads.ns_per_generated_op", 2400, _generated_ops),
    ]
    metrics = {}
    for name, size, batch in table:
        n = max(int(size * scale) // _BURST, 1) * _BURST
        metrics[name] = statistics.median(batch(n) / n for _ in range(_BATCHES))
    notes = {
        "batches": _BATCHES,
        "wire_kinds": sorted(type(message).KIND for message in world.messages),
        "registry_sources": len(world.net.obs),
    }
    return metrics, notes
