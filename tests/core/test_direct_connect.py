"""Direct-connect paths and the ``_select_instance`` spec hook.

Two establishment entry points the negotiation tests skip:

* ``connect([addr, addr, ...])`` — the group fan-out of Listing 2, where
  the client negotiates with *every* target and the pipeline must produce
  one connection spanning all peers;
* ``connect("name")`` — by-name resolution routed through the first DAG
  spec that implements ``select_instance`` (the local fast-path's
  same-host preference), falling back to the first registered instance.
"""

import pytest

from repro.apps import EchoServer, ping_session
from repro.chunnels import (
    LocalOrRemote,
    LocalOrRemoteFallback,
    Serialize,
)
from repro.core import Runtime, wrap
from repro.discovery import DiscoveryService
from repro.errors import NegotiationError
from repro.sim import Address, Network

from ..conftest import World, run


def fanout_world():
    """Client ("cl") plus two server hosts ("s1", "s2") behind a ToR."""
    net = Network()
    for name in ("cl", "s1", "s2", "dsc"):
        net.add_host(name)
    net.add_switch("tor")
    for name in ("cl", "s1", "s2", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    return World(net, DiscoveryService(net.hosts["dsc"]))


def echo(world, runtime, port=7000):
    listener = runtime.new("echo").listen(port=port)

    def serve(env):
        while True:
            conn = yield listener.accept()

            def handle(env, conn=conn):
                while not conn.closed:
                    msg = yield conn.recv()
                    conn.send(msg.payload, size=msg.size, dst=msg.src)

            env.process(handle(env))

    world.env.process(serve(world.env))
    return listener


class TestListTargetConnect:
    def test_negotiates_with_every_target(self):
        world = fanout_world()
        listeners = {
            name: echo(world, world.runtime(name)) for name in ("s1", "s2")
        }
        client_rt = world.runtime("cl")

        def scenario(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(
                [Address("s1", 7000), Address("s2", 7000)]
            )
            return conn

        conn = run(world.env, scenario(world.env))
        # One connection, one data address per negotiated peer.
        assert sorted(peer.host for peer in conn.peers) == ["s1", "s2"]
        assert conn.server_entity == "s1"  # first accept names the peer
        for name, listener in listeners.items():
            assert len(listener.connections) == 1, f"{name} did not accept"

    def test_single_element_list_behaves_like_direct_address(self):
        world = fanout_world()
        echo(world, world.runtime("s1"))
        client_rt = world.runtime("cl")

        def scenario(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(
                [Address("s1", 7000)]
            )
            conn.send(b"one-target", size=10)
            reply = yield conn.recv()
            return conn.peers, reply.payload

        peers, payload = run(world.env, scenario(world.env))
        # Peers carry the negotiated *data* address, not the control port.
        assert [peer.host for peer in peers] == ["s1"]
        assert payload == b"one-target"

    def test_empty_target_list_rejected(self):
        world = fanout_world()
        client_rt = world.runtime("cl")

        def scenario(env):
            yield env.timeout(1e-4)
            yield from client_rt.new("c").connect([])

        with pytest.raises(NegotiationError):
            run(world.env, scenario(world.env))


def geo_world():
    """Near (1 µs) and far (200 µs) instances."""
    net = Network()
    net.add_host("client-host")
    net.add_host("near-host")
    net.add_host("far-host")
    dsc = net.add_host("dsc")
    net.add_switch("local-sw")
    net.add_switch("wan-sw")
    net.add_link("client-host", "local-sw", latency=1e-6)
    net.add_link("near-host", "local-sw", latency=1e-6)
    net.add_link("dsc", "local-sw", latency=1e-6)
    net.add_link("local-sw", "wan-sw", latency=200e-6)
    net.add_link("far-host", "wan-sw", latency=1e-6)
    return net, DiscoveryService(dsc)


class TestSelectInstanceHook:
    INSTANCES = [Address("far-host", 1), Address("near-host", 1)]

    def test_default_is_first_instance(self):
        net, discovery = geo_world()
        runtime = Runtime(
            net.hosts["client-host"], discovery=discovery.address
        )
        endpoint = runtime.new("c")  # empty DAG: no spec, no hook
        assert endpoint._select_instance(self.INSTANCES) == self.INSTANCES[0]

    def test_spec_without_hook_falls_back_to_first(self):
        net, discovery = geo_world()
        runtime = Runtime(
            net.hosts["client-host"], discovery=discovery.address
        )
        endpoint = runtime.new("c", wrap(Serialize()))
        assert endpoint._select_instance(self.INSTANCES) == self.INSTANCES[0]

    def test_first_spec_with_hook_wins(self):
        # Serialize has no select_instance; the walk must keep going and
        # use local_or_remote's verdict rather than falling back to first.
        net, runtime = self.containers_world()
        endpoint = runtime.new("c", wrap(Serialize() >> LocalOrRemote()))
        instances = [Address("remote", 1), Address("cb", 1)]
        assert endpoint._select_instance(instances).host == "cb"

    def test_local_fastpath_hook_prefers_same_host(self):
        net, runtime = self.containers_world()
        endpoint = runtime.new("c", wrap(LocalOrRemote()))
        instances = [Address("remote", 1), Address("cb", 1)]
        assert endpoint._select_instance(instances).host == "cb"

    @staticmethod
    def containers_world():
        """Two containers on one box, a remote host and discovery."""
        net = Network()
        box = net.add_host("box")
        box.add_container("ca")
        box.add_container("cb")
        net.add_host("remote")
        dsc = net.add_host("dsc")
        net.add_switch("tor")
        for name in ("box", "remote", "dsc"):
            net.add_link(name, "tor", latency=5e-6)
        discovery = DiscoveryService(dsc)
        return net, Runtime(net.entity("ca"), discovery=discovery.address)


class TestLocalFastpathByName:
    def test_by_name_connect_selects_local_instance(self):
        """Figure 4's step-down: the remote instance registered first, but
        a by-name connect through ``local_or_remote`` lands on the sibling
        container — and negotiates the pipe transport with it."""
        net = Network()
        box = net.add_host("box")
        box.add_container("ca")
        box.add_container("cb")
        net.add_host("remote")
        dsc = net.add_host("dsc")
        net.add_switch("tor")
        for name in ("box", "remote", "dsc"):
            net.add_link(name, "tor", latency=5e-6)
        discovery = DiscoveryService(dsc)

        remote_rt = Runtime(net.hosts["remote"], discovery=discovery.address)
        local_rt = Runtime(net.entity("cb"), discovery=discovery.address)
        client_rt = Runtime(net.entity("ca"), discovery=discovery.address)
        for runtime in (remote_rt, local_rt, client_rt):
            runtime.register_chunnel(LocalOrRemoteFallback)
        # Remote FIRST: naive first-record resolution would pick it.
        EchoServer(
            remote_rt, port=7000, dag=wrap(LocalOrRemote()), service_name="kv"
        )
        EchoServer(
            local_rt, port=7000, dag=wrap(LocalOrRemote()), service_name="kv"
        )

        def scenario(env):
            yield env.timeout(1e-3)
            result = yield from ping_session(
                client_rt, "kv", dag=wrap(LocalOrRemote()), size=64, count=2
            )
            return result.server_entity, result.transport

        server, transport = run(net.env, scenario(net.env))
        assert server == "cb"
        assert transport == "pipe"
