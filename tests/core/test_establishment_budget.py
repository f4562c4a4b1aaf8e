"""The protocol budget of one establishment, datagram by datagram.

A 2 × 3 sharded discovery tier, an echo server whose NIC offers
``ReliableToe`` (so every establishment needs a lease verdict), one client.
After a listener's first establishment, which reserves, every further one
asks the shard primary a read: the exact control datagrams are pinned
here, and none of them may start a replication round.  The read no
longer delays the answer: the server accepts under the lease it holds and
sends the check alongside, so the datagrams are the same ones as when the
accept waited for the check, in a different order, and a resume costs the
client one control round trip of time, not two.  A change that adds a
leg to establishment fails this test, not a benchmark three PRs later.
"""

from repro.apps.rpc import EchoServer
from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import Runtime
from repro.core import messages as msgs
from repro.core.dag import wrap
from repro.core.policy import PriorityFirstPolicy
from repro.core.wire import wire_kind
from repro.discovery import ShardedDiscoveryClient
from repro.sim import LossProgram, SmartNic
from repro.sim.transport import UdpSocket

from ..discovery.test_shard import shard_world

COLD = [
    "disc.query",
    "disc.query",
    "disc.query_reply",
    "disc.query_reply",
    "bertha.offer",
    "disc.lease_check",
    "bertha.accept",
    "disc.lease_check_reply",
    "bertha.hello",
]
RESUMED = [
    "bertha.resume",
    "disc.lease_check",
    "bertha.accept",
    "disc.lease_check_reply",
    "bertha.hello",
]


class BudgetWorld:
    def __init__(self, cache_size):
        net, tier, router = shard_world(extra_hosts=("cl",))
        self.net, self.tier = net, tier
        net.add_host("srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4))
        net.add_link("srv", "tor", latency=5e-6)
        self.record = tier.seed_record(ReliableToe.meta, location="srv")

        def runtime(host, **kwargs):
            rt = Runtime(
                net.entity(host),
                discovery=ShardedDiscoveryClient(net.entity(host), router.address),
                negotiation_cache_size=cache_size,
                **kwargs,
            )
            rt.register_chunnel(SerializeFallback)
            rt.register_chunnel(ReliableFallback)
            return rt

        self.server_rt = runtime("srv", policy=PriorityFirstPolicy())
        self.client_rt = runtime("cl")
        self.server = EchoServer(
            self.server_rt, port=7400, dag=wrap(Serialize() >> Reliable())
        )
        #: Every datagram crossing the ToR: ``(time, control kind or None,
        #: datagram)``.
        self.crossed: list = []

        def record(dgram) -> bool:
            self.crossed.append((net.env.now, wire_kind(dgram.payload), dgram))
            return False

        net.switches["tor"].install(
            LossProgram("budget-tap", predicate=record, drop_first=0)
        )

    def applied(self) -> list[int]:
        """Ops each replica's RSM participant has applied, all shards."""
        return [r.rsm.applied for shard in self.tier.shards for r in shard]

    def establish(self, name):
        """One connect, measured: returns ``(control kinds in order,
        non-control datagrams, RSM ops applied, the connection)``."""

        def scenario(env):
            yield env.timeout(5e-3)  # whatever came before has settled
            start, applied = len(self.crossed), self.applied()
            conn = yield from self.client_rt.new(
                name, wrap(Serialize() >> Reliable())
            ).connect(self.server.address)
            yield env.timeout(5e-3)
            crossed = self.crossed[start:]
            rounds = [
                now - then for now, then in zip(self.applied(), applied)
            ]
            return conn, crossed, rounds

        env = self.net.env
        proc = env.process(scenario(env))
        env.run(until=proc)
        conn, crossed, rounds = proc.value
        assert conn.choice[conn.dag.find("reliable")[0]].meta.name == "toe"
        kinds = [kind for _, kind, _ in crossed if kind is not None]
        other = [dgram for _, kind, dgram in crossed if kind is None]
        return kinds, other, rounds, conn

    def control_rtt(self, request):
        """One client↔server control round trip with nothing else in it:
        ``request`` (a datagram seen crossing the ToR) sent again from the
        client, answered by the listener from its reply cache — the same
        bytes each way, no lease, no discovery — timed at the client."""
        env = self.net.env
        socket = UdpSocket(self.net.entity("cl"))

        def scenario(env):
            sent = env.now
            socket.send(request.payload, self.server.address, size=request.size)
            reply = yield socket.recv()
            assert isinstance(msgs.decode_message(reply.payload), msgs.Accept)
            return env.now - sent

        proc = env.process(scenario(env))
        env.run(until=proc)
        socket.close()
        return proc.value


def test_first_establishment_reserves_with_one_replication_round():
    world = BudgetWorld(cache_size=0)
    kinds, _other, rounds, _conn = world.establish("first")
    assert kinds.count("disc.reserve") == 1
    assert kinds.count("disc.lease_check") == 0
    # One logged mutation, applied once by each replica of the record's
    # shard (shard 0) and by nobody else.
    assert rounds == [1, 1, 1, 0, 0, 0]


def test_second_cold_establishment_is_nine_datagrams_and_no_consensus():
    world = BudgetWorld(cache_size=0)
    world.establish("first")
    kinds, other, rounds, _conn = world.establish("second")
    assert sorted(kinds) == sorted(COLD)
    singles = [kind for kind in kinds if not kind.startswith("disc.query")]
    assert singles == COLD[4:]  # in this order, after the query fan-out
    assert kinds.index("bertha.offer") == 4
    assert other == []  # no RSM group traffic, no data: nothing else at all
    assert rounds == [0] * 6
    (lease,) = world.tier.primary(0)._leases.values()
    assert lease.count == 1
    assert world.server_rt.leases.held() == {lease.key(): 2}
    assert world.server_rt.leases.optimistic_acquires == 1


def test_resumed_establishment_is_five_datagrams_and_no_consensus():
    """The resume's budget: the same five datagrams as when the accept
    waited for the check, and the ACCEPT reaches the client within one
    client↔server control round trip (+ 2 µs) of the RESUME leaving it —
    the check rides alongside, its answer reaching the server before the
    client's first datagram on the new connection does."""
    world = BudgetWorld(cache_size=8)
    world.establish("first")
    start = len(world.crossed)
    kinds, other, rounds, conn = world.establish("second")
    (resume,) = [d for _, k, d in world.crossed[start:] if k == "bertha.resume"]
    assert sorted(kinds) == sorted(RESUMED)
    assert kinds == RESUMED
    assert other == []
    assert rounds == [0] * 6
    assert world.client_rt.negcache.hits == 1
    assert world.tier.primary(0).lease_checks == 1
    (attempt,) = [
        span
        for span in world.net.trace.select("resume", conn.conn_id)
        if "target" in span.attrs  # the client's span, not the server's
    ]
    assert attempt.status == "ok"
    assert attempt.end - attempt.start <= world.control_rtt(resume) + 2e-6
