"""Ablation experiments for claims the paper makes in prose (§5 text, §6).

``run_negotiation_overhead``
    §5: "Establishing a Bertha connection requires two additional IPC round
    trips to query the discovery service and negotiate the connection
    mechanism.  However, subsequent messages on an established connection
    do not encounter additional latency."  Measured: control round trips
    per connect, setup latency vs a hardcoded socket, and steady-state RTT
    vs the same data path hardcoded.

``run_optimizer_ablation``
    §6: reordering ``encrypt |> http2 |> tcp`` to ``http2 |> encrypt |>
    tcp`` avoids a NIC→CPU→NIC detour (3× the PCIe traffic); merging then
    enables a TLS engine.  Measured: device-boundary crossings and PCIe
    bytes for a fixed message stream, per optimization level.

``run_scheduler_ablation``
    §6: "if two programs can benefit from offloading functionality to a P4
    switch, but the switch only has capacity for one, the Bertha runtime
    must choose...  Chunnel priorities alone are insufficient."  Measured:
    tenants served and dominant-share fairness under first-fit, priority,
    and DRF scheduling of switch resources.

``run_serialization_comparison``
    §3.2's serialization story: the same application binds different codec
    implementations purely through negotiation; measured end-to-end RTT.

``run_consensus_comparison``
    §3.2's consensus story: ordered multicast sequenced by a host vs by
    the switch; measured per-operation latency.

``run_caching_ablation``
    DESIGN.md §5, ablation 1: per-connect resolution vs client-side
    discovery caching; measured setup cost and stale placements.

Each is one row of the CLI table (``python -m repro.experiments <name>``):
its config's defaults are the recorded run, ``smoke()`` the CI tier, and
its result's ``invariants`` the claim's shape checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..apps.rpc import EchoServer, ping_session
from ..baselines.hardcoded import udp_echo_server, udp_ping_session
from ..chunnels import (
    Encrypt,
    Http2,
    Serialize,
    SerializeAccelerated,
    SerializeFallback,
    Tcp,
)
from ..core import (
    DagOptimizer,
    DrfScheduler,
    FirstFitScheduler,
    OffloadRequest,
    PriorityScheduler,
    ResourceVector,
    Runtime,
    SWITCH_SRAM_KB,
    SWITCH_STAGES,
    count_device_crossings,
    wrap,
)
from ..discovery import DiscoveryService
from ..metrics import mean
from ..sim import Network, PcieBus
from ._result import TableResult

__all__ = [
    "AblationResult",
    "CachingConfig",
    "CachingResult",
    "ConsensusConfig",
    "ConsensusResult",
    "NegotiationConfig",
    "NegotiationOverheadResult",
    "OptimizerConfig",
    "OptimizerAblationResult",
    "SchedulerConfig",
    "SchedulerAblationResult",
    "SerializationConfig",
    "SerializationResult",
    "run_caching_ablation",
    "run_consensus_comparison",
    "run_negotiation_overhead",
    "run_optimizer_ablation",
    "run_scheduler_ablation",
    "run_serialization_comparison",
]

_US = 1e6

#: Request size of the negotiation ablation's pings (bytes).
PING_SIZE = 64
#: The optimizer ablation's message size (bytes).
MESSAGE_SIZE = 1500
#: The caching ablation's connect cadence and when its local instance
#: starts (virtual seconds).
CACHING_CONNECT_INTERVAL = 0.25
CACHING_LOCAL_START_TIME = 1.5


@dataclass
class AblationResult(TableResult):
    """One table row per compared variant."""

    rows_: list[dict]
    config: Any
    worlds: dict = field(default_factory=dict, repr=False)

    def rows(self) -> list[dict]:
        return self.rows_

    def by(self, column: str) -> dict[Any, dict]:
        """The rows keyed on ``column``'s value."""
        return {row[column]: row for row in self.rows_}


# --------------------------------------------------------------------------
# Negotiation overhead (§5 text claim)
# --------------------------------------------------------------------------
@dataclass
class NegotiationConfig:
    """The defaults are the recorded run."""

    connections: int = 30
    requests: int = 20

    @classmethod
    def smoke(cls) -> "NegotiationConfig":
        return cls(connections=20, requests=10)


@dataclass
class NegotiationOverheadResult(TableResult):
    """Setup and steady-state costs, Bertha vs hardcoded."""

    NAME = "negotiation"

    control_round_trips: int
    bertha_setup_us: float
    hardcoded_setup_us: float
    bertha_rtt_us: float
    hardcoded_rtt_us: float
    config: NegotiationConfig
    worlds: dict = field(default_factory=dict, repr=False)

    def rows(self) -> list[dict]:
        return [
            {
                "metric": "control round trips per connect",
                "bertha": self.control_round_trips,
                "hardcoded": 0,
            },
            {
                "metric": "connection setup (us)",
                "bertha": self.bertha_setup_us,
                "hardcoded": self.hardcoded_setup_us,
            },
            {
                "metric": "established RTT (us)",
                "bertha": self.bertha_rtt_us,
                "hardcoded": self.hardcoded_rtt_us,
            },
        ]

    @property
    def invariants(self) -> dict[str, bool]:
        return {
            "two_control_round_trips": self.control_round_trips == 2,
            # Zero steady-state penalty: the same data path once
            # established.
            "steady_state_matches": abs(self.bertha_rtt_us - self.hardcoded_rtt_us)
            <= 0.05 * self.hardcoded_rtt_us,
            "setup_pays_negotiation": self.bertha_setup_us > self.hardcoded_setup_us,
        }


def run_negotiation_overhead(
    config: Optional[NegotiationConfig] = None,
) -> NegotiationOverheadResult:
    """Compare a bare Bertha connection against a hardcoded UDP socket.

    The Bertha endpoint negotiates an *empty* DAG, so once established its
    data path is byte-identical to the hardcoded socket — isolating the
    control-plane overhead exactly as §5 describes.
    """
    config = config or NegotiationConfig()
    connections, requests = config.connections, config.requests
    net = Network()
    client_host = net.add_host("cl")
    server_host = net.add_host("srv")
    discovery_host = net.add_host("dsc")
    net.add_switch("tor")
    for name in ("cl", "srv", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    discovery = DiscoveryService(discovery_host)
    server_rt = Runtime(server_host, discovery=discovery.address)
    client_rt = Runtime(client_host, discovery=discovery.address)
    EchoServer(server_rt, port=7000)  # empty DAG
    udp_echo_server(server_host, 7001)

    samples = {"b_setup": [], "b_rtt": [], "h_setup": [], "h_rtt": []}

    def driver(env):
        yield env.timeout(1e-4)
        from ..sim.datagram import Address

        for _ in range(connections):
            bertha = yield from ping_session(
                client_rt, Address("srv", 7000), size=PING_SIZE, count=requests
            )
            samples["b_setup"].append(bertha.setup_time * _US)
            samples["b_rtt"].extend(r * _US for r in bertha.rtts)
            hardcoded = yield from udp_ping_session(
                client_host, Address("srv", 7001), size=PING_SIZE, count=requests
            )
            samples["h_setup"].append(hardcoded.setup_time * _US)
            samples["h_rtt"].extend(r * _US for r in hardcoded.rtts)

    net.env.process(driver(net.env))
    net.env.run()

    round_trips = client_rt.discovery.round_trips
    # One discovery query per connect; the offer/accept exchange is the
    # second round trip (it does not go through the discovery client).
    control_rtts_per_connect = round_trips // connections + 1
    return NegotiationOverheadResult(
        control_round_trips=control_rtts_per_connect,
        bertha_setup_us=mean(samples["b_setup"]),
        hardcoded_setup_us=mean(samples["h_setup"]),
        bertha_rtt_us=mean(samples["b_rtt"]),
        hardcoded_rtt_us=mean(samples["h_rtt"]),
        config=config,
        worlds={"negotiation": net.obs.snapshot().as_dict()},
    )


# --------------------------------------------------------------------------
# DAG optimizer (§6 reorder + merge)
# --------------------------------------------------------------------------
@dataclass
class OptimizerConfig:
    """The defaults are the recorded run."""

    messages: int = 2000

    @classmethod
    def smoke(cls) -> "OptimizerConfig":
        return cls(messages=100)


class OptimizerAblationResult(AblationResult):
    """PCIe traffic for the §6 pipeline at three optimization levels."""

    NAME = "optimizer"

    @property
    def invariants(self) -> dict[str, bool]:
        by_name = self.by("pipeline")
        original = by_name["encrypt |> http2 |> tcp"]
        reordered = by_name["http2 |> encrypt |> tcp"]
        merged = by_name.get("http2 |> tls")
        return {
            # The paper's 3×: NIC -> CPU -> NIC.
            "reorder_saves_3x_pcie": original["pcie_bytes"]
            == 3 * reordered["pcie_bytes"],
            "original_crosses_3": original["crossings"] == 3,
            "reordered_crosses_1": reordered["crossings"] == 1,
            # Merge yields the TLS engine and keeps the 1-crossing profile
            # with one fewer pipeline stage.
            "merge_produces_tls": merged is not None,
            "merged_crosses_1": merged is not None and merged["crossings"] == 1,
        }


def run_optimizer_ablation(
    config: Optional[OptimizerConfig] = None,
) -> OptimizerAblationResult:
    """Count PCIe crossings/bytes for encrypt|>http2|>tcp variants.

    The SmartNIC offloads ``encrypt`` and ``tcp`` (and a fused ``tls``);
    ``http2`` framing stays on the host.  Each host↔device boundary
    crossing moves the message over PCIe once.
    """
    config = config or OptimizerConfig()
    offloadable = {"encrypt", "tcp", "tls"}
    optimizer = DagOptimizer()
    env_net = Network()  # only for an Environment to hang the bus off
    rows = []

    def measure(label: str, chain_types: list[str]) -> dict:
        bus = PcieBus(env_net.env, name=f"pcie:{label}")
        crossings = count_device_crossings(chain_types, offloadable)
        for _ in range(config.messages):
            for _crossing in range(crossings):
                bus.transfer(MESSAGE_SIZE)
        return {
            "pipeline": " |> ".join(chain_types) or "(empty)",
            "crossings": crossings,
            "pcie_bytes": bus.bytes_moved,
        }

    original = wrap(Encrypt() >> Http2() >> Tcp())
    original_types = [s.type_name for s in original.specs_in_order()]
    rows.append(measure("original", original_types))

    reordered = optimizer.optimize(
        original, offloadable=offloadable, available_types=set(original_types)
    )
    reordered_types = [s.type_name for s in reordered.dag.specs_in_order()]
    rows.append(measure("reordered", reordered_types))

    merged = optimizer.optimize(original, offloadable=offloadable)
    merged_types = [s.type_name for s in merged.dag.specs_in_order()]
    rows.append(measure("merged", merged_types))

    best = min(row["pcie_bytes"] for row in rows if row["pcie_bytes"] > 0)
    for row in rows:
        row["ratio_vs_best"] = (
            row["pcie_bytes"] / best if best else float("nan")
        )
    return OptimizerAblationResult(
        rows_=rows,
        config=config,
        worlds={"pcie": env_net.obs.snapshot().as_dict()},
    )


# --------------------------------------------------------------------------
# Multi-resource scheduling (§6)
# --------------------------------------------------------------------------
@dataclass
class SchedulerConfig:
    """The contention is fixed: nothing to set."""

    @classmethod
    def smoke(cls) -> "SchedulerConfig":
        return cls()


class SchedulerAblationResult(AblationResult):
    """Allocation quality per scheduler on a contended switch."""

    NAME = "scheduler"

    @property
    def invariants(self) -> dict[str, bool]:
        by_name = self.by("scheduler")
        return {
            # "Chunnel priorities alone are insufficient."
            "first_fit_starves_b": by_name["first-fit"]["tenants_served"] == 1,
            "priority_starves_b": by_name["priority"]["tenants_served"] == 1,
            "drf_serves_both": by_name["drf"]["tenants_served"] == 2,
            "drf_fairer": by_name["drf"]["max_min_gap"]
            < by_name["first-fit"]["max_min_gap"],
        }


def run_scheduler_ablation(
    config: Optional[SchedulerConfig] = None,
) -> SchedulerAblationResult:
    """Two tenants contend for one switch's stages and SRAM.

    Tenant A arrives first and asks for a lot (three 4-stage programs);
    tenant B arrives later with two modest requests.  First-fit starves B;
    priority helps only whoever holds the bigger number; DRF balances
    dominant shares.
    """
    capacity = ResourceVector({SWITCH_STAGES: 12, SWITCH_SRAM_KB: 4096})
    requests = [
        OffloadRequest("A", "a-shard-1", ResourceVector({SWITCH_STAGES: 4, SWITCH_SRAM_KB: 512}), priority=50),
        OffloadRequest("A", "a-shard-2", ResourceVector({SWITCH_STAGES: 4, SWITCH_SRAM_KB: 512}), priority=50),
        OffloadRequest("A", "a-shard-3", ResourceVector({SWITCH_STAGES: 4, SWITCH_SRAM_KB: 512}), priority=50),
        OffloadRequest("B", "b-seq", ResourceVector({SWITCH_STAGES: 3, SWITCH_SRAM_KB: 256}), priority=40),
        OffloadRequest("B", "b-cache", ResourceVector({SWITCH_STAGES: 3, SWITCH_SRAM_KB: 1024}), priority=40),
    ]
    schedulers = {
        "first-fit": FirstFitScheduler(),
        "priority": PriorityScheduler(),
        "drf": DrfScheduler(),
    }
    rows = []
    for name, scheduler in schedulers.items():
        allocation = scheduler.plan(list(requests), capacity)
        share_a = allocation.tenant_share("A", capacity)
        share_b = allocation.tenant_share("B", capacity)
        rows.append(
            {
                "scheduler": name,
                "tenants_served": len(allocation.tenants_served()),
                "granted": len(allocation.granted),
                "denied": len(allocation.denied),
                "share_A": round(share_a, 3),
                "share_B": round(share_b, 3),
                "max_min_gap": round(abs(share_a - share_b), 3),
            }
        )
    return SchedulerAblationResult(rows_=rows, config=config or SchedulerConfig())


# --------------------------------------------------------------------------
# Network-assisted consensus (§3.2): host vs switch sequencer
# --------------------------------------------------------------------------
@dataclass
class ConsensusConfig:
    """The defaults are the recorded run."""

    operations: int = 200

    @classmethod
    def smoke(cls) -> "ConsensusConfig":
        return cls(operations=50)


class ConsensusResult(AblationResult):
    """Per-operation latency with each sequencer."""

    NAME = "consensus"

    @property
    def invariants(self) -> dict[str, bool]:
        by_seq = self.by("sequencer")
        host, switch = by_seq["host-sequencer"], by_seq["switch-sequencer"]
        return {
            "switch_sequencer_negotiated": switch["impl"] == "McastSwitchSequencer",
            "host_sequencer_negotiated": host["impl"] == "McastSequencerFallback",
            # The host sequencer adds a full extra network traversal per op.
            "switch_under_80pct_of_host": switch["mean_us"] < host["mean_us"] * 0.8,
        }


def run_consensus_comparison(
    config: Optional[ConsensusConfig] = None,
) -> ConsensusResult:
    """Ordered-multicast RSM latency: host sequencer vs switch sequencer.

    The §3.2 consensus story, measured: with the sequencer as a userspace
    process on a group member, every request detours through that host;
    with the NOPaxos-style switch sequencer, requests are stamped and
    cloned *en route*.  Same replicas, same client, one registration call
    of difference.
    """
    from ..apps.rsm import RsmClient, RsmReplica
    from ..chunnels import (
        McastSequencerFallback,
        McastSwitchSequencer,
        SerializeFallback,
    )
    from ..metrics import percentile

    config = config or ConsensusConfig()
    operations = config.operations
    rows = []
    worlds = {}
    for label, use_switch in (("host-sequencer", False), ("switch-sequencer", True)):
        net = Network()
        members = ["r0", "r1", "r2"]
        for name in members:
            net.add_host(name)
        net.add_host("cli")
        dsc = net.add_host("dsc")
        net.add_switch("tor")
        for name in members + ["cli", "dsc"]:
            net.add_link(name, "tor", latency=5e-6)
        discovery = DiscoveryService(dsc)
        if use_switch:
            discovery.register(McastSwitchSequencer.meta, location="tor")
        replicas = []
        for name in members:
            runtime = Runtime(net.hosts[name], discovery=discovery.address)
            runtime.register_chunnel(SerializeFallback)
            runtime.register_chunnel(McastSequencerFallback)
            replicas.append(
                RsmReplica(runtime, port=7300, group="bench", members=members)
            )
        client_rt = Runtime(net.hosts["cli"], discovery=discovery.address)
        client_rt.register_chunnel(SerializeFallback)
        if not use_switch:
            client_rt.register_chunnel(McastSequencerFallback)

        latencies: list[float] = []
        impl_used = [""]

        def client(env, client_rt=client_rt, latencies=latencies,
                   impl_used=impl_used, replicas=replicas):
            yield env.timeout(1e-3)
            rsm = RsmClient(client_rt, group="bench")
            yield from rsm.connect([r.address for r in replicas])
            node = rsm.conn.dag.find("ordered_mcast")[0]
            impl_used[0] = type(rsm.conn.impls[node]).__name__
            for index in range(operations):
                start = env.now
                yield from rsm.submit(
                    {"op": "put", "key": f"k{index % 8}", "value": index}
                )
                latencies.append((env.now - start) * _US)

        net.env.process(client(net.env))
        net.env.run(until=10.0)
        worlds[label] = net.obs.snapshot().as_dict()
        rows.append(
            {
                "sequencer": label,
                "impl": impl_used[0],
                "mean_us": mean(latencies),
                "p95_us": percentile(latencies, 95),
                "n": len(latencies),
            }
        )
    return ConsensusResult(rows_=rows, config=config, worlds=worlds)


# --------------------------------------------------------------------------
# Client-side discovery caching (DESIGN.md §5, ablation 1)
# --------------------------------------------------------------------------
@dataclass
class CachingConfig:
    """The defaults are the recorded run."""

    connections: int = 12

    @classmethod
    def smoke(cls) -> "CachingConfig":
        return cls(connections=8)


class CachingResult(AblationResult):
    """Setup cost and placement freshness per client configuration."""

    NAME = "caching"

    @property
    def invariants(self) -> dict[str, bool]:
        by_mode = self.by("mode")
        cached, per_connect = by_mode["cached"], by_mode["per-connect"]
        return {
            "cached_setup_cheaper": cached["mean_setup_us"]
            < per_connect["mean_setup_us"],
            "cached_queries_once": cached["discovery_rtts"] == 1,
            "per_connect_never_stale": per_connect["stale_connections"] == 0,
            "cached_goes_stale": cached["stale_connections"] > 0,
        }


def run_caching_ablation(config: Optional[CachingConfig] = None) -> CachingResult:
    """Per-connect resolution (the paper's behaviour) vs client caching.

    Repeats the Figure 4 scenario under two client configurations:

    * ``per-connect`` — query discovery on every connect (default).  Costs
      one control RTT per connection; notices the local instance at the
      next connect.
    * ``cached`` — cache discovery results for longer than the run.  Saves
      the RTT on every repeat connect but keeps using the remote instance
      after a local one appears: *stale placement*.

    One row per configuration: mean setup latency, discovery round trips,
    and how many post-local-start connections still went remote.
    """
    from ..chunnels import LocalOrRemote, LocalOrRemoteFallback

    config = config or CachingConfig()
    connections = config.connections
    rows = []
    worlds = {}
    for label, ttl in (("per-connect", None), ("cached", 3600.0)):
        net = Network()
        remote = net.add_host("remote-host")
        client_host = net.add_host("client-host")
        dsc = net.add_host("dsc")
        net.add_switch("tor")
        for name in ("remote-host", "client-host", "dsc"):
            net.add_link(name, "tor", latency=5e-6)
        local_ct = client_host.add_container("local-ct")
        client_ct = client_host.add_container("client-ct")
        discovery = DiscoveryService(dsc)
        remote_rt = Runtime(remote, discovery=discovery.address)
        local_rt = Runtime(local_ct, discovery=discovery.address)
        client_rt = Runtime(
            client_ct, discovery=discovery.address, client_discovery_ttl=ttl
        )
        for runtime in (remote_rt, local_rt, client_rt):
            runtime.register_chunnel(LocalOrRemoteFallback)
        EchoServer(
            remote_rt, port=7000, dag=wrap(LocalOrRemote()), service_name="svc"
        )

        def start_local(env, local_rt=local_rt):
            yield env.timeout(CACHING_LOCAL_START_TIME)
            EchoServer(
                local_rt, port=7000, dag=wrap(LocalOrRemote()),
                service_name="svc",
            )

        setups: list[float] = []
        stale_after_local = [0]

        def client(env, client_rt=client_rt, setups=setups,
                   stale=stale_after_local):
            yield env.timeout(1e-3)
            for _ in range(connections):
                started = env.now
                result = yield from ping_session(
                    client_rt, "svc", dag=wrap(LocalOrRemote()), size=64,
                    count=2,
                )
                setups.append(result.setup_time * _US)
                if started > CACHING_LOCAL_START_TIME and result.transport != "pipe":
                    stale[0] += 1
                remaining = CACHING_CONNECT_INTERVAL - (env.now - started)
                if remaining > 0:
                    yield env.timeout(remaining)

        net.env.process(start_local(net.env))
        net.env.process(client(net.env))
        net.env.run(until=connections * CACHING_CONNECT_INTERVAL + 1.0)
        worlds[label] = net.obs.snapshot().as_dict()
        rows.append(
            {
                "mode": label,
                "mean_setup_us": mean(setups),
                "discovery_rtts": client_rt.discovery.round_trips,
                "stale_connections": stale_after_local[0],
                "n": len(setups),
            }
        )
    return CachingResult(rows_=rows, config=config, worlds=worlds)


# --------------------------------------------------------------------------
# Serialization codecs/implementations (§3.2)
# --------------------------------------------------------------------------
@dataclass
class SerializationConfig:
    """The defaults are the recorded run."""

    requests: int = 150
    value_size: int = 8192

    @classmethod
    def smoke(cls) -> "SerializationConfig":
        return cls(requests=40, value_size=4096)


class SerializationResult(AblationResult):
    """Mean RTT per serializer implementation."""

    NAME = "serialization"

    @property
    def invariants(self) -> dict[str, bool]:
        by_impl = self.by("implementation")
        return {
            "accelerated_faster": by_impl["fpga"]["mean_rtt_us"]
            < by_impl["sw"]["mean_rtt_us"],
        }


def run_serialization_comparison(
    config: Optional[SerializationConfig] = None,
) -> SerializationResult:
    """End-to-end RTT with software vs accelerated serialization.

    Same application, same DAG; the only change is which implementation the
    discovery service offers — the adoption story §3.2 tells.
    """
    from ..core import PriorityFirstPolicy
    from ..sim import SmartNic

    config = config or SerializationConfig()
    requests, value_size = config.requests, config.value_size
    rows = []
    worlds = {}
    for accelerated in (False, True):
        net = Network()
        client_host = net.add_host(
            "cl", nic=SmartNic(net.env, name="cl.nic")
        )
        server_host = net.add_host(
            "srv", nic=SmartNic(net.env, name="srv.nic")
        )
        discovery_host = net.add_host("dsc")
        net.add_switch("tor")
        for name in ("cl", "srv", "dsc"):
            net.add_link(name, "tor", latency=5e-6)
        discovery = DiscoveryService(discovery_host)
        if accelerated:
            discovery.register(SerializeAccelerated.meta, location="srv")
            discovery.register(SerializeAccelerated.meta, location="cl")
        # The operator prefers accelerated implementations outright here;
        # the default client-first policy would keep the software codec.
        server_rt = Runtime(
            server_host, discovery=discovery.address, policy=PriorityFirstPolicy()
        )
        client_rt = Runtime(client_host, discovery=discovery.address)
        for runtime in (server_rt, client_rt):
            runtime.register_chunnel(SerializeFallback)
        EchoServer(server_rt, port=7000, dag=wrap(Serialize()))
        rtts: list[float] = []

        def driver(env, client_rt=client_rt, rtts=rtts):
            yield env.timeout(1e-4)
            from ..sim.datagram import Address

            endpoint = client_rt.new("ser-client")
            conn = yield from endpoint.connect(Address("srv", 7000))
            payload = {"blob": bytes(value_size), "n": 1}
            for _ in range(requests):
                start = env.now
                conn.send(payload)
                yield conn.recv()
                rtts.append((env.now - start) * _US)

        net.env.process(driver(net.env))
        net.env.run()
        label = "fpga" if accelerated else "sw"
        worlds[label] = net.obs.snapshot().as_dict()
        rows.append(
            {
                "implementation": label,
                "mean_rtt_us": mean(rtts),
                "n": len(rtts),
            }
        )
    return SerializationResult(rows_=rows, config=config, worlds=worlds)
