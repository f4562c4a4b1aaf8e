"""SplitProxy: mid-path connection stitching (the split-connection scenario)."""

from repro.chunnels import Reliable, ReliableFallback, Serialize, SerializeFallback
from repro.core import Runtime, SplitProxy, wrap
from repro.discovery import DiscoveryService
from repro.sim import Address, Network

from ..conftest import run


def build_world(direct_timeout=2e-3, near_timeout=120e-6):
    """cl — swA — px — swB — srv, discovery on swA; returns the pieces."""
    net = Network()
    for name in ("cl", "px", "srv", "dsc"):
        net.add_host(name)
    net.add_switch("swA")
    net.add_switch("swB")
    net.add_link("cl", "swA", latency=5e-6)
    net.add_link("swA", "px", latency=5e-6)
    net.add_link("px", "swB", latency=50e-6)
    net.add_link("swB", "srv", latency=50e-6)
    net.add_link("dsc", "swA", latency=5e-6)
    disc = DiscoveryService(net.hosts["dsc"])

    def runtime(name):
        rt = Runtime(net.entity(name), discovery=disc.address)
        rt.register_chunnel(SerializeFallback)
        rt.register_chunnel(ReliableFallback)
        return rt

    cl_rt, px_rt, srv_rt = runtime("cl"), runtime("px"), runtime("srv")
    server_dag = wrap(Serialize() >> Reliable(timeout=direct_timeout))
    listener = srv_rt.new("sp-srv", server_dag).listen(port=7500)
    down_dag = wrap(Serialize() >> Reliable(timeout=near_timeout))
    proxy = SplitProxy(
        px_rt, "sp", Address("srv", 7500), down_dag, port=7600
    )
    return net, cl_rt, listener, proxy


class TestSplitProxy:
    def _echo_n(self, n):
        net, cl_rt, listener, proxy = build_world()
        env = net.env
        replies = []

        def serve():
            conn = yield listener.accept()
            while True:
                msg = yield conn.recv()
                conn.send(msg.payload, dst=msg.src)

        def driver():
            yield env.timeout(1e-3)
            conn = yield from cl_rt.new("sp-cl").connect(Address("px", 7600))
            for index in range(n):
                conn.send({"id": index})
                reply = yield conn.recv()
                replies.append(reply.payload["id"])

        env.process(serve(), name="sp.serve")
        env.process(driver(), name="sp.driver")
        env.run(until=0.5)
        return net, proxy, replies

    def test_stitches_and_relays_both_directions(self):
        net, proxy, replies = self._echo_n(10)
        assert replies == list(range(10))
        assert proxy.splits == 1
        assert proxy.relayed_upstream == 10
        assert proxy.relayed_downstream == 10
        assert proxy.upstream_failures == 0
        assert proxy.relay_no_destination == 0

    def test_counters_are_observable(self):
        net, proxy, _replies = self._echo_n(3)
        snapshot = net.obs.snapshot().as_dict()
        prefix = "splitproxy.px.sp"
        assert snapshot[f"{prefix}.splits"] == 1
        assert snapshot[f"{prefix}.relayed_upstream"] == 3
        assert snapshot[f"{prefix}.relayed_downstream"] == 3

    def test_stitch_is_traced(self):
        net, proxy, _replies = self._echo_n(1)
        stitched = [
            span
            for span in net.trace.select(phase="splitproxy")
            if span.attrs.get("action") == "stitched"
        ]
        assert len(stitched) == 1

    def test_address_reports_the_listen_port(self):
        net, _cl_rt, _listener, proxy = build_world()
        assert proxy.listener.address == Address("px", 7600)

    def test_segments_negotiate_their_own_timers(self):
        # The proxy's listener DAG dictates the downstream Reliable timer
        # (the proxy is that segment's server); the origin server's DAG
        # dictates the upstream one — per-segment recovery, the point of
        # splitting.
        net, cl_rt, listener, proxy = build_world(
            direct_timeout=2e-3, near_timeout=120e-6
        )
        env = net.env
        conns = {}

        def serve():
            conns["up"] = yield listener.accept()

        def driver():
            yield env.timeout(1e-3)
            conns["down"] = yield from cl_rt.new("sp-cl").connect(
                Address("px", 7600)
            )
            conns["down"].send({"id": 0})

        env.process(serve(), name="sp.serve")
        env.process(driver(), name="sp.driver")
        env.run(until=0.1)

        down_rel = next(
            spec
            for spec in conns["down"].dag.nodes.values()
            if spec.type_name == "reliable"
        )
        up_rel = next(
            spec
            for spec in conns["up"].dag.nodes.values()
            if spec.type_name == "reliable"
        )
        assert down_rel.args["timeout"] == 120e-6
        assert up_rel.args["timeout"] == 2e-3
