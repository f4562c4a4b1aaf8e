"""Capstone integration: a whole cluster, every subsystem at once.

One simulated deployment runs the paper's three applications side by side
— the sharded KV store (XDP-accelerated), a replicated state machine over
switch-sequenced multicast, and a latency-sensitive RPC service using the
local fast path — all sharing one discovery service, one ToR switch, and
one operator policy.  If the layers compose, this works; if any shared
state leaks between applications, it breaks here first.
"""

import pytest

from repro.apps import (
    EchoServer,
    KvClient,
    KvServer,
    RsmClient,
    RsmReplica,
    ping_session,
)
from repro.chunnels import (
    LocalOrRemote,
    LocalOrRemoteFallback,
    McastSequencerFallback,
    McastSwitchSequencer,
    SerializeFallback,
    ShardServerFallback,
    ShardXdp,
)
from repro.core import Runtime, wrap
from repro.discovery import DiscoveryService
from repro.sim import Address, Network

from .conftest import run


@pytest.fixture(scope="module")
def cluster_results():
    net = Network()
    # Hosts: KV server, three RSM replicas, an app host with two
    # containers (RPC server + its co-located client), one client machine,
    # and the infra host running discovery.
    net.add_host("kv-host")
    members = ["rsm0", "rsm1", "rsm2"]
    for name in members:
        net.add_host(name)
    app_host = net.add_host("app-host")
    rpc_server_ct = app_host.add_container("rpc-server-ct")
    rpc_client_ct = app_host.add_container("rpc-client-ct")
    net.add_host("client-host")
    infra = net.add_host("infra")
    net.add_switch("tor")
    for name in ["kv-host", *members, "app-host", "client-host", "infra"]:
        net.add_link(name, "tor", latency=5e-6)

    discovery = DiscoveryService(infra)
    # The operator registers the offloads once, cluster-wide (Figure 1's
    # coordination, collapsed into two calls):
    discovery.register(ShardXdp.meta, location="kv-host")
    discovery.register(McastSwitchSequencer.meta, location="tor")

    # --- the KV application
    kv_rt = Runtime(net.hosts["kv-host"], discovery=discovery.address)
    kv_rt.register_chunnel(SerializeFallback)
    kv_rt.register_chunnel(ShardServerFallback)
    kv_server = KvServer(kv_rt, port=7100, shards=3)

    # --- the RSM application (thin clients → switch sequencer wins)
    replicas = []
    for name in members:
        runtime = Runtime(net.hosts[name], discovery=discovery.address)
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(McastSequencerFallback)
        replicas.append(
            RsmReplica(runtime, port=7300, group="cluster-rsm", members=members)
        )

    # --- the RPC application (two containers on app-host)
    rpc_rt = Runtime(rpc_server_ct, discovery=discovery.address)
    rpc_rt.register_chunnel(LocalOrRemoteFallback)
    EchoServer(
        rpc_rt, port=7000, dag=wrap(LocalOrRemote()), service_name="rpc-svc"
    )

    # --- clients
    kv_client_rt = Runtime(net.hosts["client-host"], discovery=discovery.address)
    kv_client_rt.register_chunnel(SerializeFallback)
    rsm_client_rt = Runtime(net.hosts["client-host"], discovery=discovery.address)
    rsm_client_rt.register_chunnel(SerializeFallback)
    rpc_client_rt = Runtime(rpc_client_ct, discovery=discovery.address)
    rpc_client_rt.register_chunnel(LocalOrRemoteFallback)

    results = {}

    def kv_workload(env):
        yield env.timeout(1e-3)
        client = KvClient(kv_client_rt)
        yield from client.connect(Address("kv-host", 7100))
        node = client.conn.dag.find("shard")[0]
        results["kv_impl"] = type(client.conn.impls[node]).__name__
        for index in range(20):
            yield from client.put(f"cluster-key-{index}", b"v%d" % index)
        ok = 0
        for index in range(20):
            reply = yield from client.get(f"cluster-key-{index}")
            ok += reply["status"] == "ok"
        results["kv_ok"] = ok

    def rsm_workload(env):
        yield env.timeout(1e-3)
        client = RsmClient(rsm_client_rt, group="cluster-rsm")
        yield from client.connect([r.address for r in replicas])
        node = client.conn.dag.find("ordered_mcast")[0]
        results["rsm_impl"] = type(client.conn.impls[node]).__name__
        for index in range(10):
            yield from client.submit(
                {"op": "put", "key": "counter", "value": index}
            )
        results["rsm_final"] = yield from client.submit(
            {"op": "get", "key": "counter"}
        )

    def rpc_workload(env):
        yield env.timeout(1e-3)
        result = yield from ping_session(
            rpc_client_rt, "rpc-svc", dag=wrap(LocalOrRemote()), size=64,
            count=10,
        )
        results["rpc_transport"] = result.transport
        results["rpc_mean_rtt"] = sum(result.rtts) / len(result.rtts)

    for workload in (kv_workload, rsm_workload, rpc_workload):
        net.env.process(workload(net.env))
    net.env.run(until=2.0)
    results["replica_states"] = [r.state for r in replicas]
    results["kv_total_keys"] = sum(len(w.store) for w in kv_server.workers)
    results["switch_programs"] = [
        p.name for p in net.switches["tor"].programs
    ]
    results["kernel_programs"] = [
        p.name for p in net.hosts["kv-host"].kernel_programs
    ]
    results["discovery_in_use_kv"] = discovery.device_in_use("kv-host")
    results["discovery_in_use_tor"] = discovery.device_in_use("tor")
    return results


class TestClusterIntegration:
    def test_kv_uses_xdp_and_answers_everything(self, cluster_results):
        assert cluster_results["kv_impl"] == "ShardXdp"
        assert cluster_results["kv_ok"] == 20
        assert cluster_results["kv_total_keys"] == 20

    def test_rsm_uses_switch_sequencer_and_converges(self, cluster_results):
        assert cluster_results["rsm_impl"] == "McastSwitchSequencer"
        assert cluster_results["rsm_final"] == 9
        states = cluster_results["replica_states"]
        assert states[0] == states[1] == states[2] == {"counter": 9}

    def test_rpc_negotiated_pipes(self, cluster_results):
        assert cluster_results["rpc_transport"] == "pipe"
        assert cluster_results["rpc_mean_rtt"] < 20e-6

    def test_devices_carry_exactly_the_expected_programs(self, cluster_results):
        assert any(
            "mcast-seq-prog" in name
            for name in cluster_results["switch_programs"]
        )
        assert any(
            "xdp-shard" in name for name in cluster_results["kernel_programs"]
        )

    def test_discovery_accounting_reflects_live_offloads(self, cluster_results):
        assert cluster_results["discovery_in_use_kv"]["xdp_share"] == 1
        assert cluster_results["discovery_in_use_tor"]["switch_stages"] == 1
