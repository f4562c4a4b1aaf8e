"""Tests for Connection behaviour: peers, routing, lifecycle, stats."""

import pytest

from repro.chunnels import Reliable, ReliableFallback, Serialize, SerializeFallback
from repro.core import Runtime, wrap
from repro.errors import ConnectionClosedError, TransportError
from repro.sim import Address

from ..conftest import run


def listener_with_accept_log(world, runtime, dag=None, port=7000):
    listener = runtime.new("srv", dag).listen(port=port)
    return listener


class TestConnectionBasics:
    def test_stats_count_messages(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = listener_with_accept_log(two_hosts, server_rt)

        def scenario(env):
            accept = listener.accept()
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            server_conn = yield accept
            for _ in range(3):
                conn.send(b"x", size=1)
            for _ in range(3):
                yield server_conn.recv()
            return conn.messages_sent, server_conn.messages_received

        sent, received = run(two_hosts.env, scenario(two_hosts.env))
        assert sent == 3
        assert received == 3

    def test_server_connection_has_no_default_peer(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = listener_with_accept_log(two_hosts, server_rt)

        def scenario(env):
            accept = listener.accept()
            yield env.timeout(1e-4)
            yield from client_rt.new("c").connect(Address("srv", 7000))
            server_conn = yield accept
            assert server_conn.peer is None
            with pytest.raises(TransportError):
                server_conn.send(b"no destination", size=2)
            return True

        assert run(two_hosts.env, scenario(two_hosts.env))

    def test_explicit_dst_overrides_peer(self, two_hosts):
        """A client can address a specific endpoint (e.g. replying to a
        third party) even on a connected socket."""
        from repro.sim import UdpSocket

        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = listener_with_accept_log(two_hosts, server_rt)
        bystander = UdpSocket(two_hosts.net.hosts["srv"], 7777)

        def scenario(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.send(b"aside", size=5, dst=Address("srv", 7777))
            dgram = yield bystander.recv()
            return dgram.payload

        assert run(two_hosts.env, scenario(two_hosts.env)) == b"aside"

    def test_try_recv(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = listener_with_accept_log(two_hosts, server_rt)

        def scenario(env):
            accept = listener.accept()
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            server_conn = yield accept
            empty = server_conn.try_recv()
            conn.send(b"now", size=3)
            yield env.timeout(1e-3)
            full = server_conn.try_recv()
            return empty, full[0], full[1].payload

        empty, ok, payload = run(two_hosts.env, scenario(two_hosts.env))
        assert empty == (False, None)
        assert ok and payload == b"now"

    def test_received_message_carries_source(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = listener_with_accept_log(two_hosts, server_rt)

        def scenario(env):
            accept = listener.accept()
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            server_conn = yield accept
            conn.send(b"whoami", size=6)
            msg = yield server_conn.recv()
            return msg.src, conn.local_address

        src, client_addr = run(two_hosts.env, scenario(two_hosts.env))
        assert src == client_addr

    def test_close_is_idempotent(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener_with_accept_log(two_hosts, server_rt)

        def scenario(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.close()
            conn.close()  # second close must be a no-op
            with pytest.raises(ConnectionClosedError):
                conn.recv()
            return True

        assert run(two_hosts.env, scenario(two_hosts.env))

    def test_close_stops_every_stage_wire_side_first(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
            rt.register_chunnel(ReliableFallback)
        listener_with_accept_log(
            two_hosts, server_rt, dag=wrap(Serialize() >> Reliable())
        )

        def scenario(env):
            yield env.timeout(1e-4)
            return (yield from client_rt.new("c").connect(Address("srv", 7000)))

        conn = run(two_hosts.env, scenario(two_hosts.env))
        stages = conn.live_stages()
        stopped = []
        for stage in stages:
            stage.stop = lambda stage=stage: stopped.append(stage)
        conn.close()
        assert len(stages) == 2 and stopped == stages[::-1]

    def test_headers_travel_with_messages(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = listener_with_accept_log(two_hosts, server_rt)

        def scenario(env):
            accept = listener.accept()
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            server_conn = yield accept
            conn.send(b"tagged", size=6, headers={"rpc_id": 42})
            msg = yield server_conn.recv()
            return msg.headers.get("rpc_id")

        assert run(two_hosts.env, scenario(two_hosts.env)) == 42

    def test_object_interface_with_serialize(self, two_hosts):
        """§3.2: 'applications send and receive objects rather than
        bytes' once a serialization Chunnel is in the DAG."""
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
        listener = listener_with_accept_log(
            two_hosts, server_rt, dag=wrap(Serialize())
        )

        def scenario(env):
            accept = listener.accept()
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            server_conn = yield accept
            conn.send({"op": "get", "nested": [1, {"a": b"\x01"}]})
            msg = yield server_conn.recv()
            return msg.payload

        payload = run(two_hosts.env, scenario(two_hosts.env))
        assert payload == {"op": "get", "nested": [1, {"a": b"\x01"}]}
