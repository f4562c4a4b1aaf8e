"""Exactly-once across a reliability implementation swap (PROTOCOL.md §5.2).

A reliability stage's receive side is a dedup table keyed by ``(sender,
seq)``.  When an epoch change replaces the stage, copies of frames the old
stage already delivered can still arrive after the swap and reach the new
one: a retransmit whose first ack was lost, or a duplicate made by the
network.  They get there when the old stack is bypassed because its offload
device died (a transition marks it broken) and when an old-epoch frame
outlives the stack that would have caught it (after a migration).  The
successor suppresses them only if it adopted its predecessor's table.

Two small worlds, each with drop and duplicate faults on every link and
six connections streaming echo requests:

* transition — the server runs ``ReliableToe`` on its SmartNIC and has
  ``ReliableFallback`` as the alternative; the NIC fails mid-stream;
* migration — primary and standby both offer ``ReliableToe`` on their
  NICs; the primary crashes mid-stream, and the migration replaces the
  client's reliability stage with one bound to the standby's record.

Every request must reach each server application at most once and every
reply the client application at most once; nothing may go missing except
the replies the crashed primary still owed.
"""

from __future__ import annotations

import warnings

import pytest

from repro.chunnels import Reliable, ReliableFallback, ReliableToe
from repro.core import Runtime
from repro.core.dag import wrap
from repro.core.failover import FailoverConfig
from repro.core.policy import PriorityFirstPolicy
from repro.discovery import DiscoveryService, RemoteDiscoveryClient
from repro.errors import DegradedEstablishmentWarning
from repro.sim import ChaosController, FaultPlan, Network, SmartNic
from repro.sim.eventloop import Interrupt

DROP, DUPLICATE = 0.03, 0.03
CONNS = 6
SENDS, GAP = 320, 50e-6
#: Connects from 1 ms, streams for 16 ms from 2 ms (or once every
#: connection is up); the fault lands 2 ms into the stream.  The stream
#: outlasts the epoch change by more than the engine's 5 ms retire grace,
#: so frames still arrive once the old stack is gone.
CONNECT_AT, STREAM_AT, FAULT_AFTER, END = 1e-3, 2e-3, 2e-3, 80e-3
#: Tier-1 runs the first four seeds; the soak (``pytest -m soak``) the rest.
SEEDS = [
    *range(1, 5),
    *(pytest.param(seed, marks=pytest.mark.soak) for seed in range(5, 65)),
]
#: Control-plane retry tuning for the lossy fabric (RTT ~20 us).
CTL_TIMEOUT, CTL_RETRIES = 500e-6, 16
LIVENESS = FailoverConfig(
    heartbeat_interval=250e-6,
    miss_threshold=5,
    min_rto=250e-6,
    max_rto=1.5e-3,
    migrate_timeout=CTL_TIMEOUT,
    migrate_retries=CTL_RETRIES,
    connect_timeout=CTL_TIMEOUT,
    connect_retries=CTL_RETRIES,
    migration_deadline=30e-3,
    park_retry_interval=1e-3,
)


def flow_dag():
    return wrap(Reliable(timeout=300e-6, max_retries=100))


class EchoServer:
    """Echoes every request; counts each payload's deliveries."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.listener = runtime.new("flow", flow_dag()).listen(
            port=7400, service_name="flow", auto_reconfig=True
        )
        self.seen: dict[bytes, int] = {}
        runtime.env.process(self._accept(), name=f"{runtime.entity.name}.accept")

    def _accept(self):
        while True:
            conn = yield self.listener.accept()
            self.runtime.env.process(
                self._serve(conn), name=f"{self.runtime.entity.name}.serve"
            )

    def _serve(self, conn):
        while not conn.closed:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            key = bytes(msg.payload)
            self.seen[key] = self.seen.get(key, 0) + 1
            conn.send(msg.payload, size=msg.size, dst=msg.src)


def build_world(seed, servers, **client_kwargs):
    """``servers`` SmartNIC hosts, each offering ``ReliableToe``, serving
    "flow"; one client runtime; faults on every link.  Returns (net, echo
    servers, client runtime)."""
    net = Network()
    for index in range(servers):
        net.add_host(
            f"srv{index}",
            nic=SmartNic(net.env, name=f"srv{index}.nic", offload_slots=8),
        )
    net.add_host("cl")
    net.add_host("dsc")
    net.add_switch("tor")
    for name in list(net.hosts):
        net.add_link(name, "tor", latency=5e-6)
    net.attach_faults_everywhere(
        FaultPlan(drop_rate=DROP, duplicate_rate=DUPLICATE, seed=seed)
    )
    discovery = DiscoveryService(net.hosts["dsc"])
    for index in range(servers):
        discovery.register(ReliableToe.meta, location=f"srv{index}")

    def runtime_on(host, **kwargs):
        runtime = Runtime(
            net.hosts[host],
            discovery=RemoteDiscoveryClient(
                net.hosts[host],
                discovery.address,
                timeout=CTL_TIMEOUT,
                retries=CTL_RETRIES,
            ),
            **kwargs,
        )
        runtime.register_chunnel(ReliableFallback)
        runtime.reconfig.ack_timeout = CTL_TIMEOUT
        runtime.reconfig.ack_retries = CTL_RETRIES
        return runtime

    echo = [
        EchoServer(runtime_on(f"srv{index}", policy=PriorityFirstPolicy()))
        for index in range(servers)
    ]
    return net, echo, runtime_on("cl", **client_kwargs)


def reliable_offer(conn):
    (node_id,) = conn.dag.find("reliable")
    return conn.choice[node_id]


def stream(net, client_rt, fault):
    """Connect ``CONNS`` connections to "flow", stream ``SENDS`` ids on
    each, run ``fault(host serving the first connection)`` ``FAULT_AFTER``
    into the stream; returns (conns, sent ids, {(replying host, id):
    deliveries to the client application})."""
    env = net.env
    conns, sent, replies = [], [], {}

    def receive(conn):
        while not conn.closed:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            key = (msg.src.host, bytes(msg.payload))
            replies[key] = replies.get(key, 0) + 1

    def client(index):
        yield env.timeout(CONNECT_AT + index * 100e-6)
        conn = yield from client_rt.new(f"flow-{index}", flow_dag()).connect(
            "flow", timeout=CTL_TIMEOUT, retries=CTL_RETRIES
        )
        conns.append(conn)
        env.process(receive(conn), name=f"flow-{index}.recv")
        if len(conns) == CONNS:
            all_up.succeed()
        yield all_up
        yield env.timeout(max(STREAM_AT - env.now, 0.0))
        for seq in range(SENDS):
            payload = f"{index}.{seq:04d}".encode()
            sent.append(payload)
            conn.send(payload, size=64)
            yield env.timeout(GAP)

    def inject():
        # Loss can slow a connect past STREAM_AT: the stream then starts
        # late, and the fault keeps its place in it.
        yield all_up
        yield env.timeout(max(STREAM_AT - env.now, 0.0) + FAULT_AFTER)
        fault(conns[0].peer.host)

    all_up = env.event()
    for index in range(CONNS):
        env.process(client(index), name=f"flow-{index}")
    env.process(inject(), name="fault")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        env.run(until=END)
    assert len(conns) == CONNS and len(sent) == CONNS * SENDS
    return conns, sent, replies


def assert_at_most_once(echo, replies):
    for server in echo:
        twice = sorted(key for key, count in server.seen.items() if count > 1)
        assert not twice, f"{server.runtime.entity.name} delivered twice: {twice}"
    twice = sorted(key for key, count in replies.items() if count > 1)
    assert not twice, f"client delivered twice: {twice}"


@pytest.mark.parametrize("seed", SEEDS)
def test_nic_failure_transition_delivers_exactly_once(seed):
    net, echo, client_rt = build_world(seed, servers=1)
    (server,) = echo
    conns, sent, replies = stream(
        net, client_rt, lambda host: net.hosts[host].nic.fail("test")
    )

    assert_at_most_once(echo, replies)
    assert set(server.seen) == set(sent)
    assert {payload for _host, payload in replies} == set(sent)
    # Every connection left the dead NIC, on both sides.
    assert server.runtime.reconfig.transitions_committed == CONNS
    for conn in [*conns, *server.listener.connections]:
        assert reliable_offer(conn).meta.name == ReliableFallback.meta.name


@pytest.mark.parametrize("seed", SEEDS)
def test_migration_replacing_the_stage_delivers_exactly_once(seed):
    net, echo, client_rt = build_world(seed, servers=2, failover=LIVENESS)
    crashed = []

    def crash(host):
        crashed.append(host)
        ChaosController(net).crash_host(host)

    conns, sent, replies = stream(net, client_rt, crash)

    assert_at_most_once(echo, replies)
    (primary,) = [s for s in echo if s.runtime.entity.name in crashed]
    (standby,) = [s for s in echo if s is not primary]
    assert set(primary.seen) | set(standby.seen) == set(sent)
    # Only a reply the crashed primary still owed may be missing.
    answered = {payload for _host, payload in replies}
    assert set(sent) - answered <= set(primary.seen)
    for conn in conns:
        assert conn.migrations == 1
        offer = reliable_offer(conn)
        assert offer.meta.name == ReliableToe.meta.name
        assert offer.location == standby.runtime.entity.name
