"""Public-API hygiene: the surface record, exports resolve, errors form one
hierarchy, and the advertised entry points behave."""

import importlib
import inspect

import pytest

import repro
from repro import errors

from .conftest import builtin_catalog

#: The sorted ``__all__`` of every library package: the public surface.
#: A change here is a change to what users can import; record it in
#: CHANGES.md.
PUBLIC_SURFACE = {
    "repro.core": [
        "Allocation",
        "ChunnelDag",
        "ChunnelImpl",
        "ChunnelRegistry",
        "ChunnelSpec",
        "ChunnelStack",
        "ChunnelStage",
        "ChunnelTraits",
        "Connection",
        "DagOptimizer",
        "DefaultPolicy",
        "DrfScheduler",
        "Endpoint",
        "Endpoints",
        "FirstFitScheduler",
        "ImplCatalog",
        "ImplMeta",
        "Listener",
        "Message",
        "NIC_SLOTS",
        "Offer",
        "OffloadRequest",
        "OffloadScheduler",
        "OptimizationResult",
        "OptimizationStep",
        "Placement",
        "Policy",
        "PolicyContext",
        "PreferPlacementPolicy",
        "PreferServerPolicy",
        "PriorityFirstPolicy",
        "PriorityScheduler",
        "ResourceVector",
        "Role",
        "Runtime",
        "SWITCH_SRAM_KB",
        "SWITCH_STAGES",
        "Scope",
        "SetupContext",
        "SplitProxy",
        "XDP_SHARE",
        "catalog",
        "count_device_crossings",
        "decide",
        "decode",
        "default_traits",
        "encode",
        "feasible_offers",
        "register_spec",
        "register_wire_type",
        "wrap",
    ],
    "repro.chunnels": [
        "BincodeCodec",
        "Codec",
        "Encrypt",
        "EncryptFallback",
        "EncryptSmartNic",
        "FRAME_HEADER_SIZE",
        "FanIn",
        "FanInHost",
        "FanInSwitch",
        "GAP_HEADER",
        "GROUP_HEADER",
        "GroupSequencer",
        "HashBytes",
        "Http2",
        "Http2Fallback",
        "JsonCodec",
        "KvCache",
        "KvCacheHostPath",
        "KvCacheSwitch",
        "LocalOrRemote",
        "LocalOrRemoteFallback",
        "MULTIPATH_TUNNEL_HEADER",
        "McastSequencerFallback",
        "McastSwitchSequencer",
        "MultipathWeighted",
        "Ordered",
        "OrderedFallback",
        "OrderedMcast",
        "REPLY_TO_HEADER",
        "RateLimit",
        "RateLimitFallback",
        "Reliable",
        "ReliableFallback",
        "ReliableToe",
        "SEQ_HEADER",
        "SequencerProgram",
        "Serialize",
        "SerializeAccelerated",
        "SerializeFallback",
        "Shard",
        "ShardClientFallback",
        "ShardFunction",
        "ShardServerFallback",
        "ShardSwitch",
        "ShardXdp",
        "SwitchFanInProgram",
        "SwitchKvCacheReader",
        "SwitchKvCacheWriter",
        "Tcp",
        "TcpFallback",
        "TcpToe",
        "Tls",
        "TlsFallback",
        "TlsSmartNic",
        "WeightedMultipath",
        "XdpShardProgram",
        "combine_replies",
        "get_codec",
        "keystream_cipher",
        "register_codec",
        "sequencer_service_name",
        "split_combined_value",
    ],
    "repro.sim": [
        "Address",
        "AllOf",
        "AnyOf",
        "ChaosController",
        "ChaosEvent",
        "Container",
        "CostModel",
        "Datagram",
        "Environment",
        "Event",
        "FaultDecision",
        "FaultPlan",
        "GBPS",
        "Host",
        "Interrupt",
        "Link",
        "LossProgram",
        "MBPS",
        "MS",
        "NameService",
        "NetEntity",
        "Network",
        "Nic",
        "PacketAction",
        "PacketProgram",
        "PcieBus",
        "PipeSocket",
        "Process",
        "ProgramResult",
        "ProgrammableSwitch",
        "SRCROUTE_HEADER",
        "ServiceRecord",
        "SimSocket",
        "SimulationError",
        "SmartNic",
        "Station",
        "Store",
        "SwitchProgramFootprint",
        "TcpLoopbackSocket",
        "Timeout",
        "TokenResource",
        "US",
        "UdpSocket",
    ],
    "repro.apps": [
        "EchoServer",
        "KV_SHARD_FN",
        "KvClient",
        "KvCodec",
        "KvServer",
        "PingResult",
        "QuorumError",
        "RsmClient",
        "RsmReplica",
        "ShardWorker",
        "kv_request",
        "kv_response",
        "ping_connection",
        "ping_session",
    ],
    "repro.discovery": [
        "DEFAULT_DISCOVERY_PORT",
        "DEFAULT_ROUTER_PORT",
        "DEFAULT_RSM_PORT",
        "DirectDiscoveryClient",
        "DiscoveryClientBase",
        "DiscoveryService",
        "DiscoveryShardTier",
        "ImplementationRecord",
        "Lease",
        "NullDiscoveryClient",
        "QueryResult",
        "RemoteDiscoveryClient",
        "ShardInfo",
        "ShardMap",
        "ShardReplica",
        "ShardRouter",
        "ShardedDiscoveryClient",
    ],
    "repro.workloads": [
        "KeyChooser",
        "LatestChooser",
        "PoissonArrivals",
        "ScrambledZipfianChooser",
        "UniformChooser",
        "WORKLOAD_MIXES",
        "WorkloadSpec",
        "YcsbWorkload",
        "ZipfianChooser",
        "make_chooser",
    ],
    "repro.baselines": [
        "pipe_echo_server",
        "pipe_ping_session",
        "tcp_echo_server",
        "tcp_ping_session",
        "udp_echo_server",
        "udp_ping_session",
    ],
    "repro.obs": [
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "MetricsSnapshot",
        "Span",
        "TraceLog",
    ],
    "repro.reconfig": [
        "DeviceFailureDetector",
        "DiscoveryWatcher",
        "PathQualityMonitor",
        "ReconfigManager",
        "TransitionRecord",
    ],
}

#: The sorted constructor parameters of every public class above that has
#: its own ``__init__`` (a dataclass's: its fields), plus FailoverConfig's
#: fields: the option surface.  A new option is a reviewed diff here; an
#: option earns its place when two non-test callers need different values
#: (DESIGN.md, *Options*).
OPTION_SURFACE = {
    "repro.apps.kvstore.KvClient": ["name", "runtime"],
    "repro.apps.kvstore.KvServer": [
        "auto_reconfig", "extra_dag", "port", "runtime", "service_name", "shards",
        "worker_base_port", "worker_service_time",
    ],
    "repro.apps.kvstore.ShardWorker": ["entity", "port", "service_time", "store"],
    "repro.apps.rpc.EchoServer": ["dag", "idle_close", "name", "port", "runtime", "service_name"],
    "repro.apps.rpc.PingResult": ["rtts", "server_entity", "setup_time", "transport"],
    "repro.apps.rsm.RsmClient": ["group", "name", "runtime"],
    "repro.apps.rsm.RsmReplica": ["group", "members", "port", "runtime"],
    "repro.chunnels.encrypt.Encrypt": ["key_id"],
    "repro.chunnels.encrypt.EncryptFallback": ["location", "spec"],
    "repro.chunnels.encrypt.EncryptSmartNic": ["location", "spec"],
    "repro.chunnels.http2.Http2": [],
    "repro.chunnels.http2.Http2Fallback": ["location", "spec"],
    "repro.chunnels.local_fastpath.LocalOrRemote": [],
    "repro.chunnels.local_fastpath.LocalOrRemoteFallback": ["location", "spec"],
    "repro.chunnels.multicast.GroupSequencer": ["entity", "group"],
    "repro.chunnels.multicast.McastSequencerFallback": ["location", "spec"],
    "repro.chunnels.multicast.McastSwitchSequencer": ["location", "spec"],
    "repro.chunnels.multicast.OrderedMcast": ["flush_after", "group", "members"],
    "repro.chunnels.multicast.SequencerProgram": ["group", "name"],
    "repro.chunnels.multipath.MultipathWeighted": ["location", "spec"],
    "repro.chunnels.multipath.WeightedMultipath": ["seed", "tunnels", "weights"],
    "repro.chunnels.offload.FanIn": ["members"],
    "repro.chunnels.offload.FanInHost": ["location", "spec"],
    "repro.chunnels.offload.FanInSwitch": ["location", "spec"],
    "repro.chunnels.offload.KvCache": ["capacity", "choices", "write_cost"],
    "repro.chunnels.offload.KvCacheHostPath": ["location", "spec"],
    "repro.chunnels.offload.KvCacheSwitch": ["location", "spec"],
    "repro.chunnels.offload.SwitchFanInProgram": ["name", "server_entity", "spec"],
    "repro.chunnels.offload.SwitchKvCacheReader": ["name", "server_entity", "state"],
    "repro.chunnels.offload.SwitchKvCacheWriter": ["name", "server_entity", "state", "station"],
    "repro.chunnels.ordering.Ordered": ["flush_after"],
    "repro.chunnels.ordering.OrderedFallback": ["location", "spec"],
    "repro.chunnels.ratelimit.RateLimit": ["burst_bytes", "bytes_per_second"],
    "repro.chunnels.ratelimit.RateLimitFallback": ["location", "spec"],
    "repro.chunnels.reliability.Reliable": ["max_retries", "timeout"],
    "repro.chunnels.reliability.ReliableFallback": ["location", "spec"],
    "repro.chunnels.reliability.ReliableToe": ["location", "spec"],
    "repro.chunnels.serialize.Serialize": ["codec"],
    "repro.chunnels.serialize.SerializeAccelerated": ["location", "spec"],
    "repro.chunnels.serialize.SerializeFallback": ["location", "spec"],
    "repro.chunnels.sharding.HashBytes": ["length", "offset"],
    "repro.chunnels.sharding.Shard": ["choices", "client_cost", "server_cost", "shard_fn"],
    "repro.chunnels.sharding.ShardClientFallback": ["location", "spec"],
    "repro.chunnels.sharding.ShardServerFallback": ["location", "spec"],
    "repro.chunnels.sharding.ShardSwitch": ["location", "spec"],
    "repro.chunnels.sharding.ShardXdp": ["location", "spec"],
    "repro.chunnels.sharding.XdpShardProgram": ["name", "spec"],
    "repro.chunnels.tcp.Tcp": ["max_retries", "timeout", "window"],
    "repro.chunnels.tcp.TcpFallback": ["location", "spec"],
    "repro.chunnels.tcp.TcpToe": ["location", "spec"],
    "repro.chunnels.tls.Tls": ["key_id", "max_retries", "timeout"],
    "repro.chunnels.tls.TlsFallback": ["location", "spec"],
    "repro.chunnels.tls.TlsSmartNic": ["location", "spec"],
    "repro.core.chunnel.ChunnelImpl": ["location", "spec"],
    "repro.core.chunnel.ChunnelSpec": ["args"],
    "repro.core.chunnel.ChunnelStage": ["impl", "role"],
    "repro.core.chunnel.ImplMeta": [
        "chunnel_type", "description", "endpoints", "name", "placement", "priority",
        "resources", "scope",
    ],
    "repro.core.chunnel.Message": ["dst", "headers", "payload", "size", "src"],
    "repro.core.chunnel.Offer": ["location", "meta", "origin", "record_id"],
    "repro.core.chunnel.Role": ["args", "kwds"],
    "repro.core.connection.Connection": [
        "choice", "client_entity", "conn_id", "dag", "impls", "name",
        "negotiation_state", "params", "peers", "role", "runtime", "server_entity",
        "setup_contexts", "socket", "stack_stages", "transport",
    ],
    "repro.core.dag.ChunnelDag": [],
    "repro.core.establish.SplitProxy": ["downstream_dag", "name", "port", "runtime", "target"],
    "repro.core.failover.FailoverConfig": [
        "connect_retries", "connect_timeout", "heartbeat_interval", "max_rto",
        "migrate_retries", "migrate_timeout", "migration_deadline", "min_rto",
        "miss_threshold", "park_retry_interval",
    ],
    "repro.core.optimizer.ChunnelTraits": [],
    "repro.core.optimizer.DagOptimizer": [],
    "repro.core.optimizer.OptimizationResult": [
        "crossings_after", "crossings_before", "dag", "steps",
    ],
    "repro.core.optimizer.OptimizationStep": ["detail", "kind"],
    "repro.core.policy.PolicyContext": [
        "client_entity", "client_host", "extras", "path_switches", "same_host",
        "server_entity", "server_host",
    ],
    "repro.core.policy.PreferPlacementPolicy": ["order"],
    "repro.core.registry.ChunnelRegistry": ["catalog_"],
    "repro.core.registry.ImplCatalog": [],
    "repro.core.resources.ResourceVector": ["amounts", "kwargs"],
    "repro.core.runtime.Endpoint": ["dag", "name", "runtime"],
    "repro.core.runtime.Listener": ["auto_reconfig", "endpoint", "port", "service_name"],
    "repro.core.runtime.Runtime": [
        "catalog", "client_discovery_ttl", "discovery", "entity",
        "ephemeral_connections", "failover", "negotiation_cache_size", "optimizer",
        "policy",
    ],
    "repro.core.scheduler.Allocation": ["denied", "granted", "in_use"],
    "repro.core.scheduler.OffloadRequest": ["name", "need", "priority", "tenant"],
    "repro.core.scope.Endpoints": ["args", "kwds"],
    "repro.core.scope.Placement": ["args", "kwds"],
    "repro.core.scope.Scope": ["args", "kwds"],
    "repro.core.stack.ChunnelStack": ["deliver", "env", "stages", "transmit"],
    "repro.core.stack.SetupContext": [
        "client_entity", "conn_id", "dag", "offer", "params", "reservations", "role",
        "runtime", "server_entity", "spec",
    ],
    "repro.discovery.client.DirectDiscoveryClient": ["service"],
    "repro.discovery.client.NullDiscoveryClient": ["entity"],
    "repro.discovery.client.QueryResult": ["instances", "offers"],
    "repro.discovery.client.RemoteDiscoveryClient": [
        "backoff", "entity", "max_timeout", "req_tag", "retries", "service_address",
        "stats", "timeout",
    ],
    "repro.discovery.records.ImplementationRecord": ["location", "meta", "record_id"],
    "repro.discovery.records.Lease": ["count", "granted_at", "owner", "record_id"],
    "repro.discovery.router.ShardRouter": ["entity", "port", "probe_timeout", "shard_map"],
    "repro.discovery.router.ShardedDiscoveryClient": [
        "entity", "retries", "router_address", "timeout",
    ],
    "repro.discovery.service.DiscoveryService": ["entity", "port", "scheduler", "shard_id"],
    "repro.discovery.shard.DiscoveryShardTier": ["network", "port", "rsm_port", "shard_hosts"],
    "repro.discovery.shard.ShardInfo": ["primary", "replicas", "shard_id"],
    "repro.discovery.shard.ShardMap": ["shards", "version"],
    "repro.discovery.shard.ShardReplica": [
        "group", "is_primary", "members", "port", "rsm_port", "runtime", "shard_id",
    ],
    "repro.obs.registry.Counter": ["name"],
    "repro.obs.registry.Gauge": ["name"],
    "repro.obs.registry.Histogram": ["name"],
    "repro.obs.registry.MetricsRegistry": ["clock"],
    "repro.obs.registry.MetricsSnapshot": ["at", "values"],
    "repro.obs.trace.Span": ["attrs", "conn_id", "end", "phase", "start", "status"],
    "repro.obs.trace.TraceLog": ["env"],
    "repro.reconfig.engine.ReconfigManager": ["runtime"],
    "repro.reconfig.engine.TransitionRecord": ["conn_id", "detail", "event", "time"],
    "repro.reconfig.triggers.DeviceFailureDetector": ["network"],
    "repro.reconfig.triggers.DiscoveryWatcher": ["refresh_interval", "runtime"],
    "repro.reconfig.triggers.PathQualityMonitor": ["network"],
    "repro.sim.datagram.Address": ["host", "port"],
    "repro.sim.datagram.Datagram": [
        "dst", "headers", "hops", "payload", "sent_at", "size", "src", "uid",
    ],
    "repro.sim.eventloop.AllOf": ["env", "events"],
    "repro.sim.eventloop.AnyOf": ["env", "events"],
    "repro.sim.eventloop.Environment": [],
    "repro.sim.eventloop.Event": ["env"],
    "repro.sim.eventloop.Interrupt": ["cause"],
    "repro.sim.eventloop.Process": ["env", "generator", "name"],
    "repro.sim.eventloop.Timeout": ["delay", "env", "value"],
    "repro.sim.faults.ChaosController": ["network", "seed"],
    "repro.sim.faults.ChaosEvent": ["action", "detail", "time"],
    "repro.sim.faults.FaultDecision": ["corrupt", "drop", "duplicate", "extra_delay"],
    "repro.sim.faults.FaultPlan": [
        "corrupt_rate", "drop_rate", "duplicate_rate", "reorder_rate", "seed",
    ],
    "repro.sim.host.Container": ["env", "host", "name", "network"],
    "repro.sim.host.CostModel": [
        "jitter", "jitter_seed", "udp_per_byte", "udp_per_msg", "xdp_per_packet",
    ],
    "repro.sim.host.Host": ["cost", "env", "name", "network", "nic"],
    "repro.sim.host.NetEntity": ["env", "name", "network"],
    "repro.sim.link.Link": ["a", "b", "latency"],
    "repro.sim.network.NameService": ["network"],
    "repro.sim.network.Network": [],
    "repro.sim.network.ServiceRecord": ["address", "name", "registered_at"],
    "repro.sim.nic.Nic": ["env", "name"],
    "repro.sim.nic.SmartNic": ["env", "name", "offload_slots"],
    "repro.sim.pcie.PcieBus": ["env", "name"],
    "repro.sim.programs.LossProgram": ["drop_first", "drop_rate", "name", "predicate", "seed"],
    "repro.sim.programs.PacketAction": ["args", "kwds"],
    "repro.sim.programs.PacketProgram": ["name", "station"],
    "repro.sim.programs.ProgramResult": ["action", "action_after", "clones"],
    "repro.sim.resources.Station": ["env", "name", "servers", "service_time"],
    "repro.sim.resources.Store": ["env", "name"],
    "repro.sim.resources.TokenResource": ["capacity", "env", "name"],
    "repro.sim.switch.ProgrammableSwitch": ["env", "name", "sram_kb", "stages"],
    "repro.sim.switch.SwitchProgramFootprint": ["sram_kb", "stages"],
    "repro.sim.transport.PipeSocket": ["entity", "port"],
    "repro.sim.transport.SimSocket": ["entity", "port"],
    "repro.sim.transport.TcpLoopbackSocket": ["entity", "listening", "port"],
    "repro.sim.transport.UdpSocket": ["entity", "port"],
    "repro.workloads.arrivals.PoissonArrivals": ["rate", "seed"],
    "repro.workloads.ycsb.WorkloadSpec": [
        "distribution", "max_scan_length", "operation_count", "record_count", "seed",
        "value_size", "workload",
    ],
    "repro.workloads.ycsb.YcsbWorkload": ["spec"],
    "repro.workloads.zipf.KeyChooser": ["item_count", "seed"],
    "repro.workloads.zipf.LatestChooser": ["item_count", "seed", "theta"],
    "repro.workloads.zipf.ScrambledZipfianChooser": ["item_count", "seed", "theta"],
    "repro.workloads.zipf.UniformChooser": ["item_count", "seed"],
    "repro.workloads.zipf.ZipfianChooser": ["item_count", "seed", "theta"],
}

#: Every ``(chunnel type, impl name)`` the built-in library catalogues.
CATALOG = [
    ("encrypt", "nic-crypto"),
    ("encrypt", "sw"),
    ("fanin", "host-gather"),
    ("fanin", "switch-agg"),
    ("http2", "sw"),
    ("kvcache", "host-path"),
    ("kvcache", "switch"),
    ("local_or_remote", "sw"),
    ("multipath", "weighted"),
    ("ordered", "sw"),
    ("ordered_mcast", "host-sequencer"),
    ("ordered_mcast", "switch-sequencer"),
    ("ratelimit", "sw"),
    ("reliable", "sw"),
    ("reliable", "toe"),
    ("serialize", "fpga"),
    ("serialize", "sw"),
    ("shard", "client-push"),
    ("shard", "p4"),
    ("shard", "server-fallback"),
    ("shard", "xdp"),
    ("tcp", "sw"),
    ("tcp", "toe"),
    ("tls", "nic-tls"),
    ("tls", "sw"),
]


def option_surface() -> dict[str, list[str]]:
    """What :data:`OPTION_SURFACE` records, read off the live classes."""
    from repro.core.failover import FailoverConfig

    classes = {FailoverConfig}
    for module_name in PUBLIC_SURFACE:
        module = importlib.import_module(module_name)
        classes.update(
            value
            for value in map(module.__dict__.get, module.__all__)
            if inspect.isclass(value) and inspect.isfunction(value.__init__)
        )
    return {
        f"{cls.__module__}.{cls.__qualname__}": sorted(
            name for name in inspect.signature(cls.__init__).parameters if name != "self"
        )
        for cls in classes
    }


class TestSurfaceRecord:
    @pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
    def test_exports_match_the_record(self, module_name):
        module = importlib.import_module(module_name)
        assert sorted(module.__all__) == PUBLIC_SURFACE[module_name]

    def test_options_match_the_record(self):
        assert option_surface() == OPTION_SURFACE

    def test_catalog_matches_the_record(self):
        assert sorted(builtin_catalog()) == CATALOG


class TestExports:
    @pytest.mark.parametrize(
        "module_name", sorted([*PUBLIC_SURFACE, "repro.experiments"])
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (
                f"{module_name}.{name} is exported but missing"
            )

    def test_every_control_message_is_exported(self):
        """Each registered message kind's class is in the schema module's
        ``__all__`` — ``ResumeAccept`` (``bertha.resume_accept``) too."""
        from repro.core import messages

        exported = set(messages.__all__)
        assert "ResumeAccept" in exported
        for cls in messages.BY_KIND.values():
            assert cls.__name__ in exported, cls.KIND

    def test_top_level_exposes_subpackages(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


class TestErrorHierarchy:
    @pytest.mark.parametrize("name", errors.__all__)
    def test_every_error_derives_from_bertha_error(self, name):
        error_cls = getattr(errors, name)
        assert issubclass(error_cls, errors.BerthaError)

    def test_negotiation_errors_are_catchable_as_one(self):
        for cls in (
            errors.IncompatibleDagError,
            errors.NoImplementationError,
            errors.ResourceExhaustedError,
            errors.ConnectionTimeoutError,
        ):
            assert issubclass(cls, errors.NegotiationError)

    def test_transport_errors_are_catchable_as_one(self):
        for cls in (errors.AddressError, errors.ConnectionClosedError):
            assert issubclass(cls, errors.TransportError)


class TestSmartNicOffloadsNegotiate:
    """The TOE-class implementations actually win under the right policy."""

    @pytest.mark.parametrize(
        "impl_name, spec_factory, fallback",
        [
            ("ReliableToe", "Reliable", "ReliableFallback"),
            ("TcpToe", "Tcp", "TcpFallback"),
            ("TlsSmartNic", "Tls", "TlsFallback"),
        ],
    )
    def test_offload_binds_on_smartnic_host(
        self, two_hosts_smartnic, impl_name, spec_factory, fallback
    ):
        import repro.chunnels as chunnels
        from repro.core import PriorityFirstPolicy, wrap
        from repro.sim import Address

        from .conftest import run

        world = two_hosts_smartnic
        impl_cls = getattr(chunnels, impl_name)
        fallback_cls = getattr(chunnels, fallback)
        spec_cls = getattr(chunnels, spec_factory)
        world.discovery.register(impl_cls.meta, location="srv")
        world.discovery.register(impl_cls.meta, location="cl")
        server_rt = world.runtime("srv", policy=PriorityFirstPolicy())
        client_rt = world.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(fallback_cls)
        listener = server_rt.new("s", wrap(spec_cls())).listen(port=7000)

        def serve(env):
            conn = yield listener.accept()
            msg = yield conn.recv()
            conn.send(msg.payload, size=msg.size, dst=msg.src)

        world.env.process(serve(world.env))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            node = conn.dag.topological_order()[0]
            conn.send(b"offloaded", size=9)
            reply = yield conn.recv()
            return type(conn.impls[node]).__name__, reply.payload

        chosen, payload = run(world.env, client(world.env))
        assert chosen == impl_name
        assert payload == b"offloaded"


class TestFig5Validation:
    def test_unknown_scenario_rejected(self):
        from repro.experiments import Fig5Config, run_fig5_scenario

        with pytest.raises(ValueError):
            run_fig5_scenario("serverless", 1000, Fig5Config())
