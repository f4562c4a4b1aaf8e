"""Degraded-mode establishment: a discovery outage must not fail connects.

The contract under test (PROTOCOL.md §6): when the discovery service is
unreachable, ``Endpoint.connect`` falls back to ``NullDiscoveryClient``
semantics — fallback-only stacks, names resolved from the cluster name
service — raises :class:`DegradedEstablishmentWarning` instead of an
error, and marks the connection ``degraded``.  Once discovery returns,
new connections are full fidelity and *existing* degraded connections
upgrade via the reconfiguration engine's polling.
"""

import warnings

import pytest

from repro.apps import KvClient, KvServer
from repro.chunnels import SerializeFallback, ShardServerFallback, ShardXdp
from repro.errors import DegradedEstablishmentWarning
from repro.reconfig import engine as reconfig_engine
from repro.sim import Address

from ..conftest import run


def shard_impl(conn) -> str:
    (node_id,) = conn.dag.find("shard")
    return type(conn.impls[node_id]).__name__


def kv_world(world, **server_kwargs):
    server_rt = world.runtime("srv")
    client_rt = world.runtimes.get("cl") or world.runtime("cl")
    for rt in (server_rt, client_rt):
        rt.register_chunnel(SerializeFallback)
    server_rt.register_chunnel(ShardServerFallback)
    world.discovery.register(ShardXdp.meta, location="srv")
    return server_rt, client_rt


class TestDegradedEstablishment:
    def test_connect_during_outage_is_degraded_but_serves(self, two_hosts):
        server_rt, client_rt = kv_world(two_hosts)
        two_hosts.discovery.crash()
        KvServer(server_rt, port=7100)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100), retries=30)
            yield from client.put("k", b"v")
            got = yield from client.get("k")
            client.close()
            return conn, got

        with pytest.warns(DegradedEstablishmentWarning):
            conn, got = run(two_hosts.env, scenario(two_hosts.env), until=10.0)

        assert conn.degraded
        assert got == {"type": "response", "status": "ok", "value": b"v"}
        # Fallback-only stack: the registered XDP offload was unreachable.
        assert shard_impl(conn) == "ShardServerFallback"
        assert client_rt.degraded_establishments == 1
        assert client_rt.degraded_events[0]["reason"] == (
            "discovery query timed out"
        )

    def test_connect_after_restart_is_full_fidelity(self, two_hosts):
        server_rt, client_rt = kv_world(two_hosts)
        two_hosts.discovery.crash()
        KvServer(server_rt, port=7100)

        def scenario(env):
            yield env.timeout(1e-4)
            degraded_client = KvClient(client_rt, name="kv-degraded")
            first = yield from degraded_client.connect(
                Address("srv", 7100), retries=30
            )
            degraded_client.close()
            two_hosts.discovery.restart()
            healthy_client = KvClient(client_rt, name="kv-healthy")
            second = yield from healthy_client.connect(Address("srv", 7100))
            yield from healthy_client.put("k", b"v")
            healthy_client.close()
            return first, second

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first, second = run(
                two_hosts.env, scenario(two_hosts.env), until=10.0
            )

        assert first.degraded and not second.degraded
        # Recovery restores the offload path for new connections...
        assert shard_impl(second) == "ShardXdp"
        # ...and exactly the outage-time connection raised the warning.
        degraded_warnings = [
            w for w in caught
            if issubclass(w.category, DegradedEstablishmentWarning)
        ]
        assert len(degraded_warnings) == 1
        assert two_hosts.discovery.audit_leases()["ok"]

    def test_degraded_connection_upgrades_after_restart(self, two_hosts, monkeypatch):
        monkeypatch.setattr(reconfig_engine, "UPGRADE_POLL_INTERVAL", 5e-3)
        server_rt, client_rt = kv_world(two_hosts)
        two_hosts.discovery.crash()
        server = KvServer(server_rt, port=7100, auto_reconfig=True)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100), retries=30)
            yield from client.put("k", b"v")
            server_conn = server.listener.connections[0]
            before = shard_impl(server_conn)
            two_hosts.discovery.restart()
            server_rt.reconfig.enable_upgrade_polling(server_conn)
            for _ in range(400):
                yield env.timeout(5e-3)
                if shard_impl(server_conn) == "ShardXdp":
                    break
            after = shard_impl(server_conn)
            # The upgraded stack still serves the degraded-era data.
            got = yield from client.get("k")
            client.close()
            return conn, server_conn, before, after, got

        with pytest.warns(DegradedEstablishmentWarning):
            conn, server_conn, before, after, got = run(
                two_hosts.env, scenario(two_hosts.env), until=30.0
            )

        assert conn.degraded  # flag describes the establishment, not now
        assert (before, after) == ("ShardServerFallback", "ShardXdp")
        assert server_conn.transitions >= 1
        assert got == {"type": "response", "status": "ok", "value": b"v"}
        audit = two_hosts.discovery.audit_leases()
        assert audit["ok"]

    def test_listener_registers_name_directly_during_outage(self, two_hosts):
        server_rt, client_rt = kv_world(two_hosts)
        two_hosts.discovery.crash()
        KvServer(server_rt, port=7100, service_name="kv")

        def scenario(env):
            # The listener needs its own discovery timeout (~50ms) to give
            # up and register directly with the cluster name service.
            yield env.timeout(0.2)
            client = KvClient(client_rt)
            conn = yield from client.connect("kv", retries=30)
            got = yield from client.put("k", b"v")
            client.close()
            return conn, got

        with pytest.warns(DegradedEstablishmentWarning):
            conn, got = run(two_hosts.env, scenario(two_hosts.env), until=10.0)

        assert conn.degraded
        assert got["status"] == "ok"
        # The listener noted its own degradation (direct name registration).
        reasons = [e["reason"] for e in server_rt.degraded_events]
        assert "name registration timed out" in reasons
