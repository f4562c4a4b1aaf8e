"""The lease-verdict hold's no-path, end to end (PROTOCOL.md §2).

A listener that already holds a lease answers the next connection at once
and checks the lease alongside.  Here the check says no: the record was
revoked and the push that would have said so is dropped at the ToR.  The
connection was accepted on the NIC offload (``ReliableToe``), the client
is already sending, and the server must move it to the next-ranked
implementation without a server stage ever running on the revoked
binding — and without losing, duplicating or reordering a message, under
10 % loss on every link.
"""

import pytest

from repro.apps.rpc import EchoServer
from repro.chunnels import (
    Ordered,
    OrderedFallback,
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import Runtime
from repro.core.dag import wrap
from repro.core.policy import PriorityFirstPolicy
from repro.discovery import DiscoveryService
from repro.discovery.client import RemoteDiscoveryClient
from repro.sim import FaultPlan, Network, SmartNic

from ..conftest import (
    assert_no_stage_ran_before_its_verdict,
    run,
    stack_receives,
    tap_control,
)

MESSAGES = 20
#: Spacing of the client's sends: they straddle the verdict, the hold and
#: the transition that ends it.
SEND_GAP = 20e-6
#: Establishment and the hold can both be stretched by lost discovery RPCs.
CONNECT = dict(timeout=2e-3, retries=80)


def echo_dag():
    # Ordered makes "in order" a property of the connection, not of luck;
    # the retry budget outlasts the hold.
    return wrap(
        Serialize() >> Ordered(flush_after=None) >> Reliable(max_retries=30)
    )


def impl_of(conn, chunnel_type):
    (node_id,) = conn.dag.find(chunnel_type)
    return type(conn.impls[node_id]).__name__


@pytest.mark.parametrize("seed", range(1, 17))
def test_messages_sent_through_the_window_arrive_exactly_once_in_order(
    seed, monkeypatch
):
    net = Network()
    net.add_host("srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4))
    for name in ("cl", "dsc"):
        net.add_host(name)
    net.add_switch("tor")
    for name in ("srv", "cl", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    net.attach_faults_everywhere(FaultPlan(drop_rate=0.1, seed=seed))
    discovery = DiscoveryService(net.hosts["dsc"])
    toe = discovery.register(ReliableToe.meta, location="srv")

    def runtime(host, **kwargs):
        entity = net.hosts[host]
        client = RemoteDiscoveryClient(entity, discovery.address)
        rt = Runtime(entity, discovery=client, **kwargs)
        for impl in (SerializeFallback, OrderedFallback, ReliableFallback):
            rt.register_chunnel(impl)
        return rt

    server_rt = runtime("srv", policy=PriorityFirstPolicy())
    client_rt = runtime("cl")
    server = EchoServer(server_rt, port=7400, dag=echo_dag())
    tap_control(
        net, drop=lambda kind, _d: kind in ("disc.revoked", "disc.lease_revoked")
    )
    receives = stack_receives(monkeypatch)

    def scenario(env):
        yield env.timeout(1e-4)
        first = yield from client_rt.new("first", echo_dag()).connect(
            server.address, **CONNECT
        )
        first.send({"n": -1})
        yield first.recv()  # its server side stays open, holding the lease
        discovery.revoke(toe.record_id)  # and nobody hears of it
        conn = yield from client_rt.new("second", echo_dag()).connect(
            server.address, **CONNECT
        )
        accepted_on = impl_of(conn, "reliable")
        for n in range(MESSAGES):
            conn.send({"n": n})
            yield env.timeout(SEND_GAP)
        replies = []
        for _ in range(MESSAGES):
            replies.append((yield conn.recv()).payload["n"])
        yield env.timeout(20e-3)  # anything delivered twice shows up here
        ok, extra = conn.try_recv()
        return accepted_on, conn, replies, extra if ok else None

    accepted_on, conn, replies, extra = run(net.env, scenario(net.env), until=10.0)
    (server_conn,) = [
        c for c in server.listener.connections if c.conn_id == conn.conn_id
    ]
    assert accepted_on == "ReliableToe"  # accepted before the verdict
    assert replies == list(range(MESSAGES)) and extra is None
    assert server_conn.messages_received == MESSAGES  # exactly once, server side
    for side in (conn, server_conn):
        assert impl_of(side, "reliable") == "ReliableFallback"
    assert server_rt.leases.late_denials == 1
    on_revoked = [
        seen
        for seen in receives
        if (seen.conn_id, seen.role) == (conn.conn_id, "server")
        and "ReliableToe" in seen.impls
    ]
    assert on_revoked == []
    assert_no_stage_ran_before_its_verdict(net, receives)
    assert discovery.audit_leases([server_rt.leases])["ok"]
