"""Public-API hygiene: the surface record, exports resolve, errors form one
hierarchy, and the advertised entry points behave."""

import importlib

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
        "Anycast",
        "AnycastDns",
        "AnycastIp",
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
        "nearest_instance",
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
        "ArrivalProcess",
        "DeterministicArrivals",
        "KeyChooser",
        "LatestChooser",
        "PoissonArrivals",
        "ScrambledZipfianChooser",
        "UniformChooser",
        "WORKLOAD_MIXES",
        "WorkloadSpec",
        "YcsbWorkload",
        "ZipfianChooser",
        "closed_loop_gaps",
        "make_chooser",
        "zipf_pmf",
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
        "current_registry",
        "set_current_registry",
    ],
    "repro.reconfig": [
        "DeviceFailureDetector",
        "DiscoveryWatcher",
        "LoadMonitor",
        "PathQualityMonitor",
        "ReconfigManager",
        "TransitionRecord",
    ],
}

#: Every ``(chunnel type, impl name)`` the built-in library catalogues.
CATALOG = [
    ("anycast", "dns"),
    ("anycast", "ip"),
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


class TestSurfaceRecord:
    @pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
    def test_exports_match_the_record(self, module_name):
        module = importlib.import_module(module_name)
        assert sorted(module.__all__) == PUBLIC_SURFACE[module_name]

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
