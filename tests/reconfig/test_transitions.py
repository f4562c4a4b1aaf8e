"""End-to-end live-transition tests: revocation, device failure, rollback.

The acceptance bar for the reconfiguration subsystem: a connection whose
offload is revoked or whose device fails mid-stream completes its workload
with zero lost or duplicated messages, degrading to the host-software
fallback — and upgrades back when the offload returns.
"""

import pytest

from repro.apps import KvClient, KvServer
from repro.chunnels import (
    SerializeFallback,
    Shard,
    ShardServerFallback,
    ShardSwitch,
    ShardXdp,
)
from repro.core.chunnel import ChunnelSpec, Role
from repro.core.dag import wrap
from repro.core.registry import ImplCatalog
from repro.errors import ResourceExhaustedError
from repro.sim import Address

from ..conftest import run, tap_control


def reconfig_world(world, offload=ShardXdp, location="srv", client_catalog=None):
    """KV server with ``auto_reconfig`` plus one offload shard record."""
    server_rt = world.runtime("srv")
    kwargs = {"catalog": client_catalog} if client_catalog is not None else {}
    client_rt = world.runtime("cl", **kwargs)
    server_rt.register_chunnel(SerializeFallback)
    server_rt.register_chunnel(ShardServerFallback)
    client_rt.register_chunnel(SerializeFallback)
    record = world.discovery.register(offload.meta, location=location)
    server = KvServer(server_rt, port=7100, auto_reconfig=True)
    return server, server_rt, client_rt, record


def shard_impl_name(conn):
    (node_id,) = conn.dag.find("shard")
    return type(conn.impls[node_id]).__name__


class TestRevocationDegrade:
    def test_revocation_degrades_without_loss(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100))
            assert shard_impl_name(conn) == "ShardXdp"
            responses = []
            for index in range(20):
                responses.append((yield from client.put(f"k{index}", b"v")))
            two_hosts.discovery.revoke(record.record_id)
            for index in range(20, 40):
                responses.append((yield from client.put(f"k{index}", b"v")))
            yield env.timeout(0.05)  # let the old epoch retire
            return conn, responses

        conn, responses = run(two_hosts.env, scenario(two_hosts.env))

        # Zero loss, zero duplication: every request got exactly one reply.
        assert len(responses) == 40
        assert all(r["status"] == "ok" for r in responses)
        assert server.requests_served == 40
        assert sum(len(w.store) for w in server.workers) == 40

        # Both sides swapped to the fallback in a new epoch.
        (server_conn,) = server.listener.connections
        for side in (conn, server_conn):
            assert side.epoch == 1
            assert side.transitions == 1
            assert shard_impl_name(side) == "ShardServerFallback"

        manager = server_rt.reconfig
        assert manager.transitions_committed == 1
        assert manager.transitions_rolled_back == 0
        assert any(r.event == "trigger" for r in manager.log)

        # The XDP program is gone and its lease was released.
        assert two_hosts.net.hosts["srv"].kernel_programs == []
        assert two_hosts.discovery.device_in_use("srv").is_zero

    def test_transition_pause_is_bounded(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("a", b"1")
            two_hosts.discovery.revoke(record.record_id)
            yield env.timeout(0.05)
            return (yield from client.get("a"))

        got = run(two_hosts.env, scenario(two_hosts.env))
        assert (got["status"], got["value"]) == ("ok", b"1")
        manager = server_rt.reconfig
        assert len(manager.pause_times) == 1
        # One control round trip over 5us links, no retries needed.
        assert 0 < manager.pause_times[-1] < manager.ack_timeout


class TestDeviceFailure:
    def test_switch_failure_degrades_then_recovers(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(
            two_hosts, offload=ShardSwitch, location="tor"
        )
        tor = two_hosts.net.switches["tor"]

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100))
            assert shard_impl_name(conn) == "ShardSwitch"
            responses = []
            for index in range(10):
                responses.append((yield from client.put(f"k{index}", b"v")))
            tor.fail("maintenance")
            # The very next request is sent while the replacement is still
            # being negotiated: the failed switch no longer redirects, so
            # the server must hold and re-route it — not drop it.
            for index in range(10, 20):
                responses.append((yield from client.put(f"k{index}", b"v")))
            degraded = shard_impl_name(conn)
            tor.recover()
            yield env.timeout(0.05)  # upgrade transition + retirement
            for index in range(20, 30):
                responses.append((yield from client.put(f"k{index}", b"v")))
            return conn, degraded, responses

        conn, degraded, responses = run(two_hosts.env, scenario(two_hosts.env))

        assert len(responses) == 30
        assert all(r["status"] == "ok" for r in responses)
        assert server.requests_served == 30

        # Degraded to the fallback while the switch was down, then back.
        assert degraded == "ShardServerFallback"
        assert shard_impl_name(conn) == "ShardSwitch"
        (server_conn,) = server.listener.connections
        assert server_conn.epoch == 2
        assert server_conn.transitions == 2
        assert server_rt.reconfig.transitions_committed == 2
        # The re-installed program holds the switch's resources again.
        assert not two_hosts.discovery.device_in_use("tor").is_zero
        assert len(tor.programs) == 1

    def test_failure_while_idle_frees_the_device(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(
            two_hosts, offload=ShardSwitch, location="tor"
        )
        tor = two_hosts.net.switches["tor"]

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100))
            tor.fail()
            yield env.timeout(0.05)
            return conn

        conn = run(two_hosts.env, scenario(two_hosts.env))
        assert shard_impl_name(conn) == "ShardServerFallback"
        assert two_hosts.discovery.device_in_use("tor").is_zero
        assert tor.programs == []


class TestRollback:
    @pytest.mark.parametrize("acks", ["delivered", "lost"])
    def test_client_refusal_rolls_back(self, two_hosts, acks):
        # A client whose catalog lacks the fallback cannot adopt the new
        # epoch: it NACKs, and the server keeps the old stack untouched.
        # With every ack lost the server rolls back on the ack timeout.
        catalog = ImplCatalog()
        catalog.add(SerializeFallback)
        catalog.add(ShardXdp)
        server, server_rt, client_rt, record = reconfig_world(
            two_hosts, client_catalog=catalog
        )
        if acks == "lost":
            tap_control(
                two_hosts.net,
                drop=lambda kind, _d: kind == "bertha.transition_ack",
            )

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100))
            yield from client.put("a", b"1")
            (server_conn,) = server.listener.connections
            outcome = yield server_rt.reconfig.request_transition(
                server_conn,
                reason="test",
                exclude={("xdp", record.record_id)},
            )
            after = yield from client.get("a")
            return conn, server_conn, outcome, after

        conn, server_conn, outcome, after = run(
            two_hosts.env, scenario(two_hosts.env)
        )
        assert outcome == "rolled-back"
        assert (after["status"], after["value"]) == ("ok", b"1")
        manager = server_rt.reconfig
        assert manager.transitions_rolled_back == 1
        assert manager.transitions_committed == 0
        (rollback,) = [r for r in manager.log if r.event == "rolled-back"]
        assert ("ack timeout" in rollback.detail) == (acks == "lost")
        # Nothing moved: old epoch, old impls, program still installed.
        for side in (conn, server_conn):
            assert side.epoch == 0
            assert shard_impl_name(side) == "ShardXdp"
        assert len(two_hosts.net.hosts["srv"].kernel_programs) == 1

    def test_unbindable_target_dag_fails_cleanly(self, two_hosts):
        # Satellite: a transition to a DAG that cannot bind leaves the
        # connection on its old stack.
        class Unbindable(ChunnelSpec):
            type_name = "unbindable"

        server, server_rt, client_rt, record = reconfig_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100))
            yield from client.put("a", b"1")
            (server_conn,) = server.listener.connections
            outcome = yield server_rt.reconfig.request_transition(
                server_conn, target_dag=wrap(Unbindable())
            )
            after = yield from client.get("a")
            return conn, server_conn, outcome, after

        conn, server_conn, outcome, after = run(
            two_hosts.env, scenario(two_hosts.env)
        )
        assert outcome == "failed"
        assert after["status"] == "ok"
        assert server_rt.reconfig.transitions_failed == 1
        assert server_conn.epoch == 0
        assert shard_impl_name(server_conn) == "ShardXdp"
        assert len(server_conn.dag.find("unbindable")) == 0


def rebuild_costlier_shard(server, server_rt, client_rt):
    """Scenario: one put, then a transition that doubles the server-side
    shard's ``server_cost`` (an arg-only change: the same implementation
    is rebuilt), then a get → (server conn, outcome, get response)."""

    def scenario(env):
        yield env.timeout(1e-4)
        client = KvClient(client_rt)
        yield from client.connect(Address("srv", 7100))
        yield from client.put("a", b"1")
        (server_conn,) = server.listener.connections
        (node,) = server_conn.dag.find("shard")
        spec = server_conn.dag.nodes[node]
        costlier = Shard(
            spec.choices,
            spec.shard_fn,
            client_cost=spec.args["client_cost"],
            server_cost=2 * spec.args["server_cost"],
        )
        outcome = yield server_rt.reconfig.request_transition(
            server_conn, target_dag=server_conn.dag.with_spec(node, costlier)
        )
        after = yield from client.get("a")
        return server_conn, outcome, after

    return scenario(server_rt.env)


class TestArgOnlyRebuild:
    @pytest.mark.parametrize(
        "offload, location", [(ShardXdp, "srv"), (ShardSwitch, "tor")]
    )
    def test_rebuilt_offload_keeps_its_program(self, two_hosts, offload, location):
        # The new impl reuses the installed program and the connection's
        # port in it; tearing down the impl it replaced must take neither
        # away.
        server, server_rt, client_rt, record = reconfig_world(
            two_hosts, offload=offload, location=location
        )
        server_conn, outcome, after = run(
            two_hosts.env, rebuild_costlier_shard(server, server_rt, client_rt)
        )
        assert outcome == "committed"
        assert server_conn.epoch == 1
        assert shard_impl_name(server_conn) == offload.__name__
        device = two_hosts.net.hosts["srv"].kernel_programs + two_hosts.net.switches["tor"].programs
        (program,) = device
        assert program.watched_ports == {server_conn.local_address.port}
        assert (after["status"], after["value"]) == ("ok", b"1")

    def test_rolled_back_rebuild_gives_its_references_back(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(two_hosts)
        tap_control(
            two_hosts.net, drop=lambda kind, _d: kind == "bertha.transition_ack"
        )
        server_conn, outcome, after = run(
            two_hosts.env, rebuild_costlier_shard(server, server_rt, client_rt)
        )
        assert outcome == "rolled-back"
        assert (after["status"], after["value"]) == ("ok", b"1")
        (program,) = two_hosts.net.hosts["srv"].kernel_programs
        port = server_conn.local_address.port
        assert program.watched_ports == {port}
        # The prepared impl took a reference to the program and the port;
        # the rollback gave both back, leaving the established impl's.
        refs = {key: entry.refs for key, entry in server_rt.shared.items()}
        assert refs == {program.name: 1, f"{program.name}:{port}": 1}

    def test_failed_rebuild_gives_its_references_back(self, two_hosts, monkeypatch):
        # The re-decision takes a lease reference for the rebuilt node
        # before the build fails: the failure must give it back, and the
        # close the established one, so discovery ends with no lease.
        built = []

        def make_stage(impl, role):
            if role is Role.SERVER:
                built.append(impl)
                if len(built) > 1:
                    raise ResourceExhaustedError("no room for the rebuild")
            return None

        monkeypatch.setattr(ShardXdp, "make_stage", make_stage)
        server, server_rt, client_rt, record = reconfig_world(two_hosts)
        server_conn, outcome, after = run(
            two_hosts.env, rebuild_costlier_shard(server, server_rt, client_rt)
        )
        assert outcome == "failed"
        assert server_conn.epoch == 0
        assert (after["status"], after["value"]) == ("ok", b"1")
        owner = f"srv:{server_conn.name}"
        assert server_rt.leases.held() == {(record.record_id, owner): 1}
        server_conn.close()
        two_hosts.run(until=two_hosts.env.now + 0.1)
        assert server_rt.leases.held() == {}
        assert two_hosts.discovery.audit_leases()["leases"] == 0
        assert two_hosts.net.hosts["srv"].kernel_programs == []


class TestSerialization:
    def test_concurrent_transitions_serialize(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("a", b"1")
            (server_conn,) = server.listener.connections
            manager = server_rt.reconfig
            # Two requests in the same instant: the first degrades away
            # from XDP, the second (queued behind it) upgrades back.
            first = manager.request_transition(
                server_conn, reason="one", exclude={("xdp", record.record_id)}
            )
            second = manager.request_transition(server_conn, reason="two")
            outcome_one = yield first
            outcome_two = yield second
            after = yield from client.get("a")
            return server_conn, outcome_one, outcome_two, after

        server_conn, one, two, after = run(two_hosts.env, scenario(two_hosts.env))
        assert (one, two) == ("committed", "committed")
        assert after["status"] == "ok"
        assert server_conn.epoch == 2
        assert server_conn.transitions == 2
        assert shard_impl_name(server_conn) == "ShardXdp"
        manager = server_rt.reconfig
        assert manager.transitions_committed == 2
        assert len(manager.pause_times) == 2
        # Serialized, not interleaved: each prepare is followed by its own
        # commit before the next prepare starts.
        phases = [r.event for r in manager.log if r.event in ("prepare", "committed")]
        assert phases == ["prepare", "committed", "prepare", "committed"]

    def test_noop_transition_changes_nothing(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("a", b"1")
            (server_conn,) = server.listener.connections
            outcome = yield server_rt.reconfig.request_transition(server_conn)
            return server_conn, outcome

        server_conn, outcome = run(two_hosts.env, scenario(two_hosts.env))
        assert outcome == "noop"
        assert server_conn.epoch == 0
        assert server_rt.reconfig.transitions_noop == 1
        # The re-decision's provisional lease was released again.
        assert two_hosts.discovery.device_in_use("srv")["xdp_share"] == 1


class TestClientRequestedTransition:
    def test_client_forwards_request_in_band(self, two_hosts):
        server, server_rt, client_rt, record = reconfig_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100))
            yield from client.put("a", b"1")
            two_hosts.discovery.unregister(record.record_id)
            # The client asks; the server decides and pushes TRANSITION.
            outcome = yield client_rt.reconfig.request_transition(
                conn, reason="client-asks"
            )
            after = yield from client.get("a")
            return conn, outcome, after

        conn, outcome, after = run(two_hosts.env, scenario(two_hosts.env))
        assert outcome == "committed"
        assert after["status"] == "ok"
        assert conn.epoch == 1
        assert shard_impl_name(conn) == "ShardServerFallback"
        assert server_rt.reconfig.transitions_committed == 1
