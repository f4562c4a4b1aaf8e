"""Additional behaviour coverage: runtime conveniences, multicast stats,
workload defaults, experiment result rendering, negotiation edge cases."""

import pytest

from repro.chunnels import (
    McastSequencerFallback,
    Reliable,
    ReliableFallback,
    Serialize,
    SerializeFallback,
)
from repro.core import (
    ChunnelDag,
    ImplMeta,
    Offer,
    PolicyContext,
    ResourceVector,
    Runtime,
    Scope,
    feasible_offers,
    wrap,
)
from repro.core.scope import Endpoints, Placement
from repro.sim import Address

from ..conftest import run


class TestRuntimeConveniences:
    def test_new_accepts_a_bare_spec(self, two_hosts):
        runtime = two_hosts.runtime("cl")
        endpoint = runtime.new("e", Reliable())  # no wrap() needed
        assert endpoint.dag.chunnel_types() == ["reliable"]

    def test_new_accepts_none(self, two_hosts):
        runtime = two_hosts.runtime("cl")
        assert runtime.new("e").dag.is_empty

    def test_runtime_without_discovery_uses_null_client(self):
        from repro.discovery import NullDiscoveryClient
        from repro.sim import Network

        net = Network()
        host = net.add_host("solo")
        runtime = Runtime(host)
        assert isinstance(runtime.discovery, NullDiscoveryClient)

    def test_bad_discovery_argument_rejected(self):
        from repro.sim import Network

        net = Network()
        host = net.add_host("solo")
        with pytest.raises(TypeError):
            Runtime(host, discovery=12345)

    def test_connect_without_discovery_service(self, two_hosts):
        """Two processes with only local fallbacks and no discovery
        infrastructure can still negotiate (NullDiscoveryClient)."""
        server_rt = two_hosts.runtime("srv", discovery=None)
        client_rt = two_hosts.runtime("cl", discovery=None)
        for rt in (server_rt, client_rt):
            rt.register_chunnel(ReliableFallback)
        listener = server_rt.new("s", wrap(Reliable())).listen(port=7000)

        def serve(env):
            conn = yield listener.accept()
            msg = yield conn.recv()
            conn.send(msg.payload, size=msg.size, dst=msg.src)

        two_hosts.env.process(serve(two_hosts.env))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.send(b"no-infra", size=8)
            reply = yield conn.recv()
            return reply.payload

        assert run(two_hosts.env, client(two_hosts.env)) == b"no-infra"


class TestMulticastInternals:
    def test_group_sequencer_counts(self):
        from repro.chunnels import GroupSequencer
        from repro.sim import Network, UdpSocket

        net = Network()
        host = net.add_host("seq-host")
        other = net.add_host("member")
        net.add_link("seq-host", "member", latency=5e-6)
        sequencer = GroupSequencer(host, "g")
        member_sock = UdpSocket(other, 7000)
        sender = UdpSocket(host)

        def scenario(env):
            sender.send(
                b"op",
                sequencer.address,
                size=16,
                headers={
                    "mcast_group": "g",
                    "mcast_members": [["member", 7000]],
                },
            )
            dgram = yield member_sock.recv()
            return dgram.headers["mcast_seq"], dgram.headers["mcast_origin"]

        seq, origin = run(net.env, scenario(net.env))
        assert seq == 1
        assert origin == [sender.address.host, sender.address.port]
        assert sequencer.messages_sequenced == 1

    def test_sequencer_service_name_is_stable(self):
        from repro.chunnels import sequencer_service_name

        assert sequencer_service_name("g1") == "_mcastseq.g1"

    def test_two_groups_are_isolated(self):
        """Two RSM groups on overlapping hosts keep separate sequence
        spaces and separate sequencers."""
        from repro.apps import RsmClient, RsmReplica
        from repro.discovery import DiscoveryService
        from repro.sim import Network

        net = Network()
        members = ["ra", "rb"]
        for name in members:
            net.add_host(name)
        net.add_host("cli")
        dsc = net.add_host("dsc")
        net.add_switch("tor")
        for name in members + ["cli", "dsc"]:
            net.add_link(name, "tor", latency=5e-6)
        discovery = DiscoveryService(dsc)
        replicas = {}
        for group, port in (("g1", 7301), ("g2", 7302)):
            replicas[group] = []
            for name in members:
                runtime = Runtime(net.hosts[name], discovery=discovery.address)
                runtime.register_chunnel(SerializeFallback)
                runtime.register_chunnel(McastSequencerFallback)
                replicas[group].append(
                    RsmReplica(runtime, port=port, group=group, members=members)
                )
        results = {}

        def client(env, group):
            yield env.timeout(1e-3)
            runtime = Runtime(net.hosts["cli"], discovery=discovery.address)
            runtime.register_chunnel(SerializeFallback)
            runtime.register_chunnel(McastSequencerFallback)
            rsm = RsmClient(runtime, group=group, name=f"c-{group}")
            yield from rsm.connect([r.address for r in replicas[group]])
            for index in range(3):
                yield from rsm.submit({"op": "put", "key": group, "value": index})
            results[group] = [r.state for r in replicas[group]]

        net.env.process(client(net.env, "g1"))
        net.env.process(client(net.env, "g2"))
        net.env.run(until=1.0)
        assert results["g1"] == [{"g1": 2}, {"g1": 2}]
        assert results["g2"] == [{"g2": 2}, {"g2": 2}]
        seq_names = [
            r.name for r in net.names.resolve("_mcastseq.g1")
        ] + [r.name for r in net.names.resolve("_mcastseq.g2")]
        assert len(seq_names) == 2  # one sequencer per group


class TestWorkloadDefaults:
    def test_default_distributions_follow_ycsb(self):
        from repro.workloads import WorkloadSpec

        assert WorkloadSpec(workload="A").distribution == "zipfian"
        assert WorkloadSpec(workload="D").distribution == "latest"

    def test_lowercase_workload_names_accepted(self):
        from repro.workloads import WorkloadSpec

        assert WorkloadSpec(workload="b").workload == "B"

    def test_workload_f_emits_rmw(self):
        from repro.workloads import WorkloadSpec, YcsbWorkload

        spec = WorkloadSpec(workload="F", record_count=20, operation_count=400)
        ops = list(YcsbWorkload(spec).operations())
        assert any(op["op"] == "rmw" for op in ops)
        rmws = [op for op in ops if op["op"] == "rmw"]
        assert all(op["value"] for op in rmws)


class TestResultRendering:
    def test_fig3_rows_have_expected_columns(self):
        from repro.experiments import Fig3Config, run_fig3

        result = run_fig3(Fig3Config(connections=5, sizes=[64]))
        rows = result.rows()
        assert rows
        assert {"system", "size", "p50", "setup_p50"} <= set(rows[0])

    def test_fig4_render_mentions_transports(self):
        from repro.experiments import Fig4Config, run_fig4

        result = run_fig4(Fig4Config.smoke())
        text = result.render()
        assert "transport" in text


class TestNegotiationEdgeCases:
    def test_both_endpoints_network_device_requires_same_host(self):
        """An endpoints-BOTH network offload can only serve a connection
        whose two ends share the device's host."""
        spec = Reliable()
        device_offer = Offer(
            meta=ImplMeta(
                chunnel_type="reliable",
                name="host-engine",
                scope=Scope.HOST,
                endpoints=Endpoints.BOTH,
                placement=Placement.SMARTNIC,
                resources=ResourceVector(),
            ),
            origin="network",
            location="box",
        )
        same_host = PolicyContext(
            client_entity="ca",
            server_entity="cb",
            client_host="box",
            server_host="box",
            same_host=True,
        )
        cross_host = PolicyContext(
            client_entity="cl",
            server_entity="srv",
            client_host="cl",
            server_host="srv",
            same_host=False,
        )
        assert feasible_offers(spec, [device_offer], same_host)
        assert not feasible_offers(spec, [device_offer], cross_host)

    def test_unify_two_empty_dags(self):
        unified = ChunnelDag.unify(ChunnelDag.empty(), ChunnelDag.empty())
        assert unified.is_empty
