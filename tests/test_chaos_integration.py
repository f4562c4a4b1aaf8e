"""Tier-1 integration scenarios under a seeded 10%-loss fault plan.

The ISSUE.md acceptance bar: with ``FaultPlan(drop_rate=0.10, ...)`` on
every link, the rpc (echo), kvstore, and reconfig scenarios must complete
with zero application-message loss and no double reservation.

Two delivery mechanisms are exercised:

* The echo scenario puts :class:`Reliable` in the negotiated DAG — the
  stack itself retransmits, so the application loop is loss-oblivious.
* The kv scenarios drive the connection with per-request ``rpc_id``
  headers and application-level retry.  Worker replies travel directly
  worker→client (the Listing 4 triangular path), bypassing the connection
  stack, so in-stack reliability cannot cover them — matching and retry
  must live at the application, exactly as datagram RPC clients do.
"""

import pytest

from repro.apps import EchoServer, KvClient, KvServer, kv_request
from repro.chunnels import (
    Reliable,
    ReliableFallback,
    Serialize,
    SerializeFallback,
    ShardServerFallback,
    ShardXdp,
)
from repro.core import Runtime, wrap
from repro.discovery import DiscoveryService
from repro.discovery.client import RemoteDiscoveryClient
from repro.reconfig import engine as reconfig_engine
from repro.sim import Address, FaultPlan, Network

from .conftest import run

#: The acceptance-criteria fault mix: 10% loss plus duplication/reorder.
CHAOS = dict(drop_rate=0.10, duplicate_rate=0.02, reorder_rate=0.05)


def chaos_world(seed):
    net = Network()
    for name in ("cl", "srv", "dsc"):
        net.add_host(name)
    net.add_switch("tor")
    for name in ("cl", "srv", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    net.attach_faults_everywhere(FaultPlan(seed=seed, **CHAOS))
    service = DiscoveryService(net.hosts["dsc"])
    return net, service


def make_runtime(net, service, host_name, **kwargs):
    # A larger retransmission budget than the defaults: every discovery
    # RPC crosses two lossy links in each direction.
    client = RemoteDiscoveryClient(
        net.hosts[host_name], service.address, timeout=2e-3, retries=8
    )
    runtime = Runtime(net.hosts[host_name], discovery=client, **kwargs)
    runtime.register_chunnel(SerializeFallback)
    return runtime


def _recv_or_timeout(env, event, timeout):
    """Generator: the event's value, or None after ``timeout`` seconds.

    Mirrors the runtime's ``_wait_with_timeout``: a timed-out mailbox get
    is cancelled via ``succeed(None)`` so it cannot swallow a later item
    (``Store.put`` skips triggered getters).
    """
    deadline = env.timeout(timeout)
    yield env.any_of([event, deadline])
    if event.processed:
        return event.value
    if not event.triggered:
        event.succeed(None)
    return None


def kv_rpc(env, conn, request, rpc_id, per_try=2.5e-3, tries=40):
    """Generator: at-least-once request with rpc_id matching.

    Retransmits the request until a reply tagged with this ``rpc_id``
    arrives; replies to earlier attempts (or fault-duplicated copies) are
    discarded by the id check.
    """
    for _attempt in range(tries):
        conn.send(request, headers={"rpc_id": rpc_id})
        deadline = env.now + per_try
        while True:
            remaining = deadline - env.now
            if remaining <= 0:
                break
            reply = yield from _recv_or_timeout(env, conn.recv(), remaining)
            if reply is None:
                break
            if reply.headers.get("rpc_id") == rpc_id:
                return reply.payload
    raise AssertionError(f"request {rpc_id} permanently lost")


class TestEchoUnderChaos:
    def test_reliable_dag_delivers_everything(self):
        net, service = chaos_world(seed=11)
        server_rt = make_runtime(net, service, "srv")
        client_rt = make_runtime(net, service, "cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(ReliableFallback)
        dag = wrap(Serialize() >> Reliable(timeout=150e-6, max_retries=12))
        server = EchoServer(server_rt, port=7400, dag=dag)

        def scenario(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(
                Address("srv", 7400), timeout=2e-3, retries=60
            )
            echoed = []
            for index in range(60):
                conn.send(f"ping-{index}", size=64)
                msg = yield conn.recv()
                echoed.append(msg.payload)
            conn.close()
            return echoed

        echoed = run(net.env, scenario(net.env), until=30.0)
        # Zero app-message loss, in order: Reliable retransmits and
        # suppresses the fault-injected duplicates.
        assert echoed == [f"ping-{i}" for i in range(60)]
        assert server.requests_served == 60
        # The faults genuinely fired and the stack genuinely recovered.
        assert net.fault_drops > 0
        assert service.audit_leases()["ok"]

    def test_same_seed_same_trace(self):
        def trace(seed):
            net, service = chaos_world(seed=seed)
            server_rt = make_runtime(net, service, "srv")
            client_rt = make_runtime(net, service, "cl")
            for rt in (server_rt, client_rt):
                rt.register_chunnel(ReliableFallback)
            dag = wrap(Serialize() >> Reliable(timeout=150e-6, max_retries=12))
            EchoServer(server_rt, port=7400, dag=dag)

            def scenario(env):
                yield env.timeout(1e-4)
                conn = yield from client_rt.new("c").connect(
                    Address("srv", 7400), timeout=2e-3, retries=60
                )
                times = []
                for index in range(20):
                    start = env.now
                    conn.send(f"ping-{index}", size=64)
                    yield conn.recv()
                    times.append(env.now - start)
                conn.close()
                return times

            return run(net.env, scenario(net.env), until=30.0)

        assert trace(23) == trace(23)


class TestKvStoreUnderChaos:
    def test_all_requests_complete_no_double_reservation(self):
        net, service = chaos_world(seed=12)
        server_rt = make_runtime(net, service, "srv")
        client_rt = make_runtime(net, service, "cl")
        server_rt.register_chunnel(ShardServerFallback)
        server = KvServer(server_rt, port=7100, shards=3)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(
                Address("srv", 7100), timeout=2e-3, retries=60
            )
            for index in range(40):
                key, value = f"key-{index:03d}", f"value-{index}".encode()
                put = yield from kv_rpc(
                    env, conn, kv_request("put", key, value), rpc_id=2 * index
                )
                assert put["status"] == "ok"
                got = yield from kv_rpc(
                    env, conn, kv_request("get", key), rpc_id=2 * index + 1
                )
                assert got == {
                    "type": "response", "status": "ok", "value": value,
                }
            client.close()
            return True

        assert run(net.env, scenario(net.env), until=30.0)
        assert sum(len(w.store) for w in server.workers) == 40
        assert net.fault_drops > 0
        audit = service.audit_leases()
        assert audit["ok"]


class TestReconfigUnderChaos:
    def test_revocation_transition_survives_loss(self, monkeypatch):
        # The upgrade poll doubles as a watchdog (see below): poll often.
        monkeypatch.setattr(reconfig_engine, "UPGRADE_POLL_INTERVAL", 5e-3)
        net, service = chaos_world(seed=13)
        server_rt = make_runtime(net, service, "srv")
        client_rt = make_runtime(net, service, "cl")
        server_rt.register_chunnel(ShardServerFallback)
        record = service.register(ShardXdp.meta, location="srv")
        server = KvServer(server_rt, port=7100, auto_reconfig=True)

        def shard_impl(conn):
            (node_id,) = conn.dag.find("shard")
            return type(conn.impls[node_id]).__name__

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(
                Address("srv", 7100), timeout=2e-3, retries=80
            )
            server_conn = server.listener.connections[0]
            # The upgrade poll doubles as a watchdog: even if the watch
            # notification datagram is lost, the next poll re-decides.
            server_rt.reconfig.enable_upgrade_polling(server_conn)
            before = shard_impl(server_conn)
            for index in range(15):
                reply = yield from kv_rpc(
                    env, conn, kv_request("put", f"k{index}", b"v"),
                    rpc_id=index,
                )
                assert reply["status"] == "ok"
            service.revoke(record.record_id, reason="offload reclaimed")
            for _ in range(400):
                yield env.timeout(5e-3)
                if shard_impl(server_conn) == "ShardServerFallback":
                    break
            after = shard_impl(server_conn)
            # TRANSITION/ACK completed over the lossy links; the
            # connection keeps serving through and after the swap.
            for index in range(15, 30):
                reply = yield from kv_rpc(
                    env, conn, kv_request("put", f"k{index}", b"v"),
                    rpc_id=index,
                )
                assert reply["status"] == "ok"
            client.close()
            return before, after, server_conn

        before, after, server_conn = run(
            net.env, scenario(net.env), until=60.0
        )
        assert before == "ShardXdp"
        assert after == "ShardServerFallback"
        assert server_conn.transitions >= 1
        assert sum(len(w.store) for w in server.workers) == 30
        audit = service.audit_leases()
        assert audit["ok"]
        # The revoked offload's lease was released despite the loss.
        assert audit["leases"] == 0
