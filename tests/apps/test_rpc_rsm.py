"""Tests for the echo/RPC app and the replicated state machine."""

import pytest

from repro.apps import EchoServer, QuorumError, RsmClient, RsmReplica, ping_session
from repro.apps import rsm as rsm_mod
from repro.chunnels import McastSequencerFallback, SerializeFallback
from repro.core import Runtime
from repro.core.rpc import RetryPolicy
from repro.discovery import DiscoveryService
from repro.sim import Address, FaultPlan, LossProgram, Network

from ..conftest import run


class TestEchoServer:
    def test_ping_session_measures_setup_and_rtts(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        EchoServer(server_rt, port=7000)

        def scenario(env):
            yield env.timeout(1e-4)
            result = yield from ping_session(
                client_rt, Address("srv", 7000), size=64, count=5
            )
            return result

        result = run(two_hosts.env, scenario(two_hosts.env))
        assert len(result.rtts) == 5
        assert result.setup_time > max(result.rtts)  # negotiation overhead
        assert result.transport == "udp"

    def test_serves_many_connections(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        server = EchoServer(server_rt, port=7000)

        def scenario(env):
            yield env.timeout(1e-4)
            for _ in range(4):
                yield from ping_session(
                    client_rt, Address("srv", 7000), size=16, count=2
                )
            return server.connections_served, server.requests_served

        connections, requests = run(two_hosts.env, scenario(two_hosts.env))
        assert connections == 4
        assert requests == 8

    def test_close_stops_accepting(self, two_hosts):
        from repro.errors import ConnectionTimeoutError

        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        server = EchoServer(server_rt, port=7000)

        def scenario(env):
            yield env.timeout(1e-4)
            server.close()
            yield env.timeout(1e-4)
            try:
                yield from ping_session(
                    client_rt, Address("srv", 7000), size=16, count=1
                )
            except ConnectionTimeoutError:
                return "refused"

        assert run(two_hosts.env, scenario(two_hosts.env)) == "refused"


def rsm_world(replicas=3, loss=0.0, seed=7):
    net = Network()
    members = [f"r{i}" for i in range(replicas)]
    for name in members:
        net.add_host(name)
    net.add_host("cli")
    dsc = net.add_host("dsc")
    net.add_switch("tor")
    for name in members + ["cli", "dsc"]:
        net.add_link(name, "tor", latency=5e-6)
    if loss:
        net.attach_faults_everywhere(FaultPlan(drop_rate=loss, seed=seed))
    discovery = DiscoveryService(dsc)
    replica_objs = []
    for name in members:
        runtime = Runtime(net.hosts[name], discovery=discovery.address)
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(McastSequencerFallback)
        replica_objs.append(
            RsmReplica(runtime, port=7300, group="G", members=members)
        )
    client_rt = Runtime(net.hosts["cli"], discovery=discovery.address)
    client_rt.register_chunnel(SerializeFallback)
    client_rt.register_chunnel(McastSequencerFallback)
    return net, replica_objs, client_rt


class TestRsm:
    def test_linearizable_put_cas_get(self):
        net, replicas, client_rt = rsm_world()

        def scenario(env):
            yield env.timeout(1e-3)
            client = RsmClient(client_rt, group="G")
            yield from client.connect([r.address for r in replicas])
            first = yield from client.submit({"op": "put", "key": "x", "value": 1})
            second = yield from client.submit(
                {"op": "cas", "key": "x", "expect": 1, "value": 2}
            )
            third = yield from client.submit({"op": "get", "key": "x"})
            return first, second, third

        first, second, third = run(net.env, scenario(net.env))
        assert (first, second, third) == ("ok", "ok", 2)
        for replica in replicas:
            assert replica.state == {"x": 2}

    def test_replicas_apply_identical_histories(self):
        net, replicas, client_rt = rsm_world()

        def scenario(env):
            yield env.timeout(1e-3)
            client = RsmClient(client_rt, group="G")
            yield from client.connect([r.address for r in replicas])
            for index in range(6):
                yield from client.submit(
                    {"op": "put", "key": f"k{index % 2}", "value": index}
                )
            yield env.timeout(2e-3)  # let the slowest replica catch up

        run(net.env, scenario(net.env))
        states = [replica.state for replica in replicas]
        assert states[0] == {"k0": 4, "k1": 5}
        assert all(state == states[0] for state in states)
        assert all(replica.applied == 6 for replica in replicas)

    def test_quorum_reached_with_one_slow_replica(self):
        net, replicas, client_rt = rsm_world()
        # Make r2 drop the first sequenced message it receives.
        net.hosts["r2"].install_kernel_program(
            LossProgram(
                "slow-replica",
                predicate=lambda d: d.headers.get("mcast_seq") == 1,
                drop_first=1,
            )
        )

        def scenario(env):
            yield env.timeout(1e-3)
            client = RsmClient(client_rt, group="G")
            yield from client.connect([r.address for r in replicas])
            # A majority of three: the two prompt replicas.
            result = yield from client.submit({"op": "put", "key": "q", "value": "v"})
            return result

        assert run(net.env, scenario(net.env)) == "ok"

    def test_no_quorum_raises(self):
        net, replicas, client_rt = rsm_world()
        # Every replica drops the sequenced message: no replies at all.
        for replica in replicas:
            net.hosts[replica.name].install_kernel_program(
                LossProgram(
                    f"mute-{replica.name}",
                    predicate=lambda d: "mcast_seq" in d.headers,
                    drop_first=10,
                )
            )

        def scenario(env):
            yield env.timeout(1e-3)
            client = RsmClient(client_rt, group="G")
            yield from client.connect([r.address for r in replicas])
            yield from client.submit({"op": "put", "key": "x", "value": 1})

        with pytest.raises(QuorumError):
            run(net.env, scenario(net.env))

    def test_submit_before_connect_raises(self):
        net, _replicas, client_rt = rsm_world()
        client = RsmClient(client_rt, group="G")

        def scenario(env):
            yield env.timeout(0)
            yield from client.submit({"op": "get", "key": "x"})

        with pytest.raises(QuorumError):
            run(net.env, scenario(net.env))

    @pytest.mark.parametrize("seed", [7, 11])
    def test_concurrent_submits_share_one_connection(self, seed, monkeypatch):
        """Replicas apply one order, one application per request: eight
        submits in flight on one client under 10 % loss each get their own
        result, every replica applies the same sequence with every op in
        it exactly once, and no quorum ever disagreed."""
        net, replicas, client_rt = rsm_world(loss=0.1, seed=seed)
        histories = {replica.name: [] for replica in replicas}
        for replica in replicas:
            replica.state.update({f"k{i}": i for i in range(8)})

            def logged(op, apply=replica._apply, log=histories[replica.name]):
                log.append(op["request_id"])
                return apply(op)

            replica._apply = logged
        # Six lossy crossings per reply: give every submit eight attempts.
        monkeypatch.setattr(rsm_mod, "SUBMIT_POLICY", RetryPolicy(timeout=2e-3, retries=8))
        client = RsmClient(client_rt, group="G")

        def submitter(index):
            if index % 2:
                return (yield from client.submit({"op": "get", "key": f"k{index}"}))
            return (
                yield from client.submit(
                    {"op": "cas", "key": f"k{index}", "expect": -1, "value": 0}
                )
            )

        def scenario(env):
            yield env.timeout(1e-3)
            yield from client.connect([r.address for r in replicas])
            submits = [env.process(submitter(index)) for index in range(8)]
            results = yield env.all_of(submits)
            yield env.timeout(0.1)  # stragglers' retransmits and NACKs drain
            receiver = client._receiver
            client.close()
            yield env.timeout(0)
            return [results[submit] for submit in submits], receiver.is_alive

        results, receiver_alive = run(net.env, scenario(net.env))
        assert results == [
            index if index % 2 else f"conflict:{index}" for index in range(8)
        ]
        orders = list(histories.values())
        assert all(order == orders[0] for order in orders)
        assert sorted(orders[0]) == list(range(1, 9))
        assert client.mismatches == 0
        assert not receiver_alive
        assert not client._collectors
