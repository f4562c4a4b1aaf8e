"""Integration tests: Runtime / Endpoint / Listener negotiation (§4)."""

import dataclasses

import pytest

from repro.chunnels import (
    LocalOrRemote,
    LocalOrRemoteFallback,
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeAccelerated,
    SerializeFallback,
)
from repro.core import PriorityFirstPolicy, Runtime, wrap
from repro.core import messages as msgs
from repro.errors import (
    ConnectionClosedError,
    ConnectionTimeoutError,
    IncompatibleDagError,
    NegotiationError,
    NoImplementationError,
)
from repro.sim import Address
from repro.sim.transport import UdpSocket

from ..conftest import run, tap_control


def echo_server(world, runtime, dag=None, port=7000, service_name=None):
    """A one-connection-at-a-time echo server; returns the listener."""
    endpoint = runtime.new("echo", dag)
    listener = endpoint.listen(port=port, service_name=service_name)

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


class TestBasicConnect:
    def test_connect_by_address(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        echo_server(two_hosts, server_rt)

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.send(b"hello", size=5)
            reply = yield conn.recv()
            return reply.payload

        assert run(two_hosts.env, client(two_hosts.env)) == b"hello"

    def test_connect_by_service_name(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        echo_server(two_hosts, server_rt, service_name="echo-svc")

        def client(env):
            yield env.timeout(1e-3)
            conn = yield from client_rt.new("c").connect("echo-svc")
            conn.send(b"hi", size=2)
            reply = yield conn.recv()
            return reply.payload

        assert run(two_hosts.env, client(two_hosts.env)) == b"hi"

    def test_unknown_service_name_raises(self, two_hosts):
        client_rt = two_hosts.runtime("cl")

        def client(env):
            yield env.timeout(1e-4)
            yield from client_rt.new("c").connect("ghost-svc")

        with pytest.raises(NegotiationError):
            run(two_hosts.env, client(two_hosts.env))

    def test_connect_to_silent_port_times_out(self, two_hosts):
        client_rt = two_hosts.runtime("cl")

        def client(env):
            yield env.timeout(1e-4)
            yield from client_rt.new("c").connect(
                Address("srv", 9999), timeout=1e-4, retries=2
            )

        with pytest.raises(ConnectionTimeoutError):
            run(two_hosts.env, client(two_hosts.env))

    def test_empty_target_list_rejected(self, two_hosts):
        client_rt = two_hosts.runtime("cl")

        def client(env):
            yield env.timeout(0)
            yield from client_rt.new("c").connect([])

        with pytest.raises(NegotiationError):
            run(two_hosts.env, client(two_hosts.env))


class TestDagNegotiation:
    def test_empty_client_adopts_server_dag(self, two_hosts):
        """Listing 5: the set of Chunnels is dictated by the server."""
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
            rt.register_chunnel(ReliableFallback)
        echo_server(two_hosts, server_rt, dag=wrap(Serialize() >> Reliable()))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            assert conn.dag.chunnel_types() == ["serialize", "reliable"]
            conn.send({"obj": True})
            reply = yield conn.recv()
            return reply.payload

        assert run(two_hosts.env, client(two_hosts.env)) == {"obj": True}

    def test_incompatible_dags_fail(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
            rt.register_chunnel(ReliableFallback)
        echo_server(two_hosts, server_rt, dag=wrap(Serialize()))

        def client(env):
            yield env.timeout(1e-4)
            yield from client_rt.new("c", wrap(Reliable())).connect(
                Address("srv", 7000)
            )

        with pytest.raises(IncompatibleDagError):
            run(two_hosts.env, client(two_hosts.env))

    def test_no_implementation_fails(self, two_hosts):
        """§4.3: the connection fails absent compatible implementations."""
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        # Server wants reliability but only the server registered it: an
        # endpoints::Both chunnel cannot bind.
        server_rt.register_chunnel(ReliableFallback)
        echo_server(two_hosts, server_rt, dag=wrap(Reliable()))

        def client(env):
            yield env.timeout(1e-4)
            yield from client_rt.new("c").connect(Address("srv", 7000))

        with pytest.raises(NoImplementationError):
            run(two_hosts.env, client(two_hosts.env))

    def test_matching_dags_connect(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(ReliableFallback)
        echo_server(two_hosts, server_rt, dag=wrap(Reliable()))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c", wrap(Reliable())).connect(
                Address("srv", 7000)
            )
            conn.send(b"x", size=1)
            yield conn.recv()
            return conn.dag.chunnel_types()

        assert run(two_hosts.env, client(two_hosts.env)) == ["reliable"]


class TestImplementationChoice:
    def test_network_offer_beats_server_fallback(self, two_hosts):
        """Discovery-registered accelerated impls win over fallbacks."""
        two_hosts.discovery.register(SerializeAccelerated.meta, location="srv")
        two_hosts.discovery.register(SerializeAccelerated.meta, location="cl")
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
        echo_server(two_hosts, server_rt, dag=wrap(Serialize()))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            node = conn.dag.find("serialize")[0]
            return type(conn.impls[node]).__name__

        # Client-registered fallback still wins under the default
        # client-first policy; with priority-first, the accelerated one wins.
        assert run(two_hosts.env, client(two_hosts.env)) == "SerializeFallback"

    def test_priority_first_policy_picks_accelerated(self, two_hosts_smartnic):
        from repro.core import PriorityFirstPolicy

        two_hosts = two_hosts_smartnic  # the accelerated impl needs NIC slots
        two_hosts.discovery.register(SerializeAccelerated.meta, location="srv")
        server_rt = two_hosts.runtime("srv", policy=PriorityFirstPolicy())
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
        echo_server(two_hosts, server_rt, dag=wrap(Serialize()))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            node = conn.dag.find("serialize")[0]
            return type(conn.impls[node]).__name__

        assert (
            run(two_hosts.env, client(two_hosts.env)) == "SerializeAccelerated"
        )

    def test_reservation_is_taken_and_released(self, two_hosts_smartnic):
        from repro.core import PriorityFirstPolicy

        two_hosts = two_hosts_smartnic  # the accelerated impl needs NIC slots
        two_hosts.discovery.register(
            SerializeAccelerated.meta, location="srv"
        )
        server_rt = two_hosts.runtime("srv", policy=PriorityFirstPolicy())
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
        listener = echo_server(two_hosts, server_rt, dag=wrap(Serialize()))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            in_use_during = two_hosts.discovery.device_in_use("srv")
            conn.close()
            for server_conn in listener.connections:
                server_conn.close()
            yield env.timeout(1e-3)  # releases are async
            in_use_after = two_hosts.discovery.device_in_use("srv")
            return in_use_during, in_use_after

        during, after = run(two_hosts.env, client(two_hosts.env))
        assert during["nic_slots"] == 1
        assert after.is_zero


class TestLocalFastPath:
    def test_same_host_negotiates_pipes(self, one_host_two_containers):
        world = one_host_two_containers
        server_rt = world.runtime("cb")
        client_rt = world.runtime("ca")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(LocalOrRemoteFallback)
        echo_server(world, server_rt, dag=wrap(LocalOrRemote()))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c", wrap(LocalOrRemote())).connect(
                Address("cb", 7000)
            )
            conn.send(b"x", size=1)
            yield conn.recv()
            return conn.transport

        assert run(world.env, client(world.env)) == "pipe"

    def test_cross_host_stays_on_datagrams(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(LocalOrRemoteFallback)
        echo_server(two_hosts, server_rt, dag=wrap(LocalOrRemote()))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            return conn.transport

        assert run(two_hosts.env, client(two_hosts.env)) == "udp"


class TestConnectionLifecycle:
    def test_send_after_close_raises(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        echo_server(two_hosts, server_rt)

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.close()
            with pytest.raises(ConnectionClosedError):
                conn.send(b"x", size=1)
            return True

        assert run(two_hosts.env, client(two_hosts.env))

    def test_two_clients_get_separate_connections(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = echo_server(two_hosts, server_rt)

        def client(env):
            yield env.timeout(1e-4)
            conn1 = yield from client_rt.new("c1").connect(Address("srv", 7000))
            conn2 = yield from client_rt.new("c2").connect(Address("srv", 7000))
            assert conn1.peer != conn2.peer  # distinct data sockets
            conn1.send(b"1", size=1)
            conn2.send(b"2", size=1)
            first = yield conn1.recv()
            second = yield conn2.recv()
            return first.payload, second.payload

        assert run(two_hosts.env, client(two_hosts.env)) == (b"1", b"2")
        assert len(listener.connections) == 2

    def test_setup_time_includes_two_control_round_trips(self, two_hosts):
        """§5: two extra IPC round trips; no per-message overhead after."""
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        echo_server(two_hosts, server_rt)

        def client(env):
            yield env.timeout(1e-4)
            before = client_rt.discovery.round_trips
            start = env.now
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            setup = env.now - start
            after = client_rt.discovery.round_trips
            start = env.now
            conn.send(b"x", size=1)
            yield conn.recv()
            rtt = env.now - start
            return after - before, setup, rtt

        discovery_rtts, setup, rtt = run(two_hosts.env, client(two_hosts.env))
        assert discovery_rtts == 1  # plus the offer/accept exchange = 2 total
        assert setup == pytest.approx(2 * rtt, rel=0.35)

    def test_listener_close_stops_accepting(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = echo_server(two_hosts, server_rt, service_name="svc")

        def client(env):
            yield env.timeout(1e-3)
            listener.close()
            yield env.timeout(1e-4)
            assert two_hosts.net.names.resolve("svc") == []
            try:
                yield from client_rt.new("c").connect(
                    Address("srv", 7000), timeout=1e-4, retries=2
                )
            except ConnectionTimeoutError:
                return "refused"

        assert run(two_hosts.env, client(two_hosts.env)) == "refused"

    def test_client_retransmission_gets_cached_reply(self, two_hosts):
        """Duplicate offers (client retries) must not create duplicate
        connections."""
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        listener = echo_server(two_hosts, server_rt)

        def client(env):
            yield env.timeout(1e-4)
            # Aggressive timeout forces at least one retransmission; the
            # negotiation must still converge on one connection.
            conn = yield from client_rt.new("c").connect(
                Address("srv", 7000), timeout=30e-6, retries=10
            )
            conn.send(b"x", size=1)
            yield conn.recv()
            return len(listener.connections)

        assert run(two_hosts.env, client(two_hosts.env)) == 1


def reserving_server(world, *offloads, dag=None, **runtime_kwargs):
    """An echo server on ``world`` (``two_hosts_smartnic``) whose every
    accept reserves each of ``offloads`` at the server's NIC — so its
    handlers spend a discovery round trip per offload mid-decision.
    Returns ``(listener, client_runtime)``."""
    for impl in offloads:
        world.discovery.register(impl.meta, location="srv")
    server_rt = world.runtime("srv", policy=PriorityFirstPolicy(), **runtime_kwargs)
    client_rt = world.runtime("cl", **runtime_kwargs)
    for rt in (server_rt, client_rt):
        rt.register_chunnel(SerializeFallback)
        rt.register_chunnel(ReliableFallback)
    listener = echo_server(world, server_rt, dag=dag or wrap(Serialize()))
    return listener, client_rt


def times_of(seen, kind):
    return [when for when, seen_kind, _ in seen if seen_kind == kind]


class TestConcurrentAccept:
    """The listener dispatches; handlers run side by side (PROTOCOL.md
    §6.2).  Each test names the safety property it pins."""

    def test_overlapping_offers_are_decided_in_parallel(self, two_hosts_smartnic):
        """An OFFER landing while another handler is mid-reserve does not
        wait for it: the two ACCEPTs leave as far apart as the OFFERs
        arrived, not one reservation round trip apart."""
        world = two_hosts_smartnic
        _listener, client_rt = reserving_server(world, SerializeAccelerated)
        seen = tap_control(world.net)

        def client(env, delay):
            yield env.timeout(1e-4 + delay)
            yield from client_rt.new(f"c{delay}").connect(Address("srv", 7000))

        procs = [
            world.env.process(client(world.env, delay)) for delay in (0.0, 10e-6)
        ]
        world.env.run(until=world.env.all_of(procs))
        offers = times_of(seen, "bertha.offer")
        accepts = times_of(seen, "bertha.accept")
        assert len(offers) == len(accepts) == 2
        reserve_rtt = min(
            span.end - span.start for span in world.net.trace.select("reserve")
        )
        offer_gap = offers[1] - offers[0]
        assert 0 < offer_gap < reserve_rtt  # second landed mid-reserve
        assert accepts[1] - accepts[0] <= offer_gap + 1e-6
        assert accepts[1] - accepts[0] <= reserve_rtt + 1e-6  # not 2x

    def test_offer_duplicated_mid_handling_gets_one_verdict(
        self, two_hosts_smartnic
    ):
        """One verdict per ``(KIND, conn_id)``: a duplicate OFFER arriving
        while its handler is still reserving yields one connection, one
        data socket, one ``disc.reserve`` and one ACCEPT."""
        world = two_hosts_smartnic
        listener, client_rt = reserving_server(world, SerializeAccelerated)
        seen = tap_control(world.net)
        server = world.net.entity("srv")
        ports_before = len(server.ports)

        def duplicator(env):
            # The handler's reservation crossing the ToR proves it is
            # mid-decision with nothing cached yet: re-deliver its OFFER.
            while not times_of(seen, "disc.reserve"):
                yield env.timeout(1e-6)
            offer = next(d for _, kind, d in seen if kind == "bertha.offer")
            listener.ctl.deliver(offer)

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.send({"n": 1})
            reply = yield conn.recv()
            yield env.timeout(1e-3)
            return reply.payload

        world.env.process(duplicator(world.env))
        assert run(world.env, client(world.env)) == {"n": 1}
        assert listener.ctl.received == 2  # the duplicate did arrive
        assert len(listener.connections) == 1
        assert len(server.ports) == ports_before + 1
        assert len(times_of(seen, "disc.reserve")) == 1
        assert len(times_of(seen, "bertha.accept")) == 1
        (lease,) = world.discovery._leases.values()
        assert lease.count == 1

    def test_colliding_resume_and_offer_never_share_a_verdict(
        self, two_hosts_smartnic
    ):
        """One verdict per ``(KIND, conn_id)`` — per kind: an OFFER whose
        conn_id collides with a RESUME still being revalidated is neither
        swallowed as its duplicate nor answered with its verdict, in
        flight or from the reply cache.  The server holds no lease when
        the two land (its connections closed, the release went out), so
        the RESUME's revalidation is a first reserve, which the OFFER's
        decision joins: both are mid-decision at once."""
        world = two_hosts_smartnic
        listener, client_rt = reserving_server(
            world, SerializeAccelerated, negotiation_cache_size=8
        )
        server_rt = world.runtimes["srv"]
        seen = tap_control(world.net)
        replies = {}
        overlap = []

        def forge(kind, socket):
            """Re-send the client's own ``kind`` message under conn_id X."""
            original = next(d for _, k, d in seen if k == kind)
            message = dataclasses.replace(
                msgs.decode_message(original.payload), conn_id="X"
            )
            payload, size = msgs.encode_message_sized(message)
            socket.send(payload, Address("srv", 7000), size=size)

        def scenario(env):
            yield env.timeout(1e-4)
            for session in range(2):  # a cold connect, then a resumed one
                conn = yield from client_rt.new("c", wrap(Serialize())).connect(
                    Address("srv", 7000)
                )
                conn.close()
                yield env.timeout(1e-3)
            for conn in listener.connections:
                conn.close()
            yield env.timeout(1e-3)  # the runtime's last release lands
            assert server_rt.leases.held() == {}
            sockets = {
                kind: UdpSocket(world.net.entity("cl"))
                for kind in ("bertha.resume", "bertha.offer")
            }
            for _round in range(2):  # fresh, then retransmitted
                forge("bertha.resume", sockets["bertha.resume"])
                yield env.timeout(5e-6)  # the RESUME is mid-reserve
                forge("bertha.offer", sockets["bertha.offer"])
                yield env.timeout(40e-6)  # both have landed; neither decided
                overlap.append(sorted(listener._inflight))
                yield env.timeout(1e-3)
            for kind, socket in sockets.items():
                replies[kind] = []
                while True:
                    ok, dgram = socket.try_recv()
                    if not ok:
                        break
                    replies[kind].append(msgs.decode_message(dgram.payload))

        run(world.env, scenario(world.env))
        # Both were mid-decision at once; the retransmissions hit the cache.
        assert overlap == [[("bertha.offer", "X"), ("bertha.resume", "X")], []]
        assert len(listener.connections) == 4  # X established once per kind
        for kind in ("bertha.resume", "bertha.offer"):
            fresh, replayed = replies[kind]
            assert isinstance(fresh, msgs.Accept) and fresh.conn_id == "X"
            assert replayed.data_addr == fresh.data_addr
        assert (
            replies["bertha.resume"][0].data_addr
            != replies["bertha.offer"][0].data_addr
        )

    def test_close_mid_handling_sends_nothing_afterwards(self, two_hosts_smartnic):
        """Nothing is sent or cached by a handler that outlives
        ``close()``: no verdict, no connection, no reply-cache entry."""
        world = two_hosts_smartnic
        listener, client_rt = reserving_server(world, SerializeAccelerated)
        seen = tap_control(world.net)
        state = {}

        def closer(env):
            while not times_of(seen, "disc.reserve"):
                yield env.timeout(1e-6)
            listener.close()
            state["closed_at"] = env.now

        def client(env):
            yield env.timeout(1e-4)
            with pytest.raises(ConnectionTimeoutError):
                yield from client_rt.new("c").connect(
                    Address("srv", 7000), timeout=2e-4, retries=3
                )

        world.env.process(closer(world.env))
        run(world.env, client(world.env))
        assert not [
            kind
            for when, kind, dgram in seen
            if dgram.src == Address("srv", 7000) and when >= state["closed_at"]
        ]
        assert listener.connections == [] and len(listener._replies) == 0
        assert not listener._inflight

    def test_close_between_two_reserves_releases_the_first(
        self, two_hosts_smartnic
    ):
        """A handler interrupted by ``close()`` after one of its two
        reservations was confirmed hands that one back instead of
        stranding the lease."""
        world = two_hosts_smartnic
        listener, client_rt = reserving_server(
            world,
            SerializeAccelerated,
            ReliableToe,
            dag=wrap(Serialize() >> Reliable()),
        )
        first_record = []

        def second_reserve(kind, dgram):
            """Drop every reserve but the first record's, so the handler
            sits between its two reservations until the listener closes."""
            if kind != "disc.reserve":
                return False
            record_id = msgs.decode_message(dgram.payload).record_id
            if not first_record:
                first_record.append(record_id)
            return record_id != first_record[0]

        tap_control(world.net, drop=second_reserve)
        during = {}

        def scenario(env):
            yield env.timeout(1e-4)
            client = env.process(
                client_rt.new("c", wrap(Serialize() >> Reliable())).connect(
                    Address("srv", 7000), timeout=2e-4, retries=3
                )
            )
            yield env.timeout(4e-4)
            during.update(world.discovery.audit_leases())
            listener.close()
            with pytest.raises(ConnectionTimeoutError):
                yield client
            yield env.timeout(5e-3)  # the release is asynchronous

        run(world.env, scenario(world.env))
        assert during["leases"] == 1  # the first reservation was confirmed
        audit = world.discovery.audit_leases()
        assert audit["ok"] and audit["leases"] == 0
        assert world.discovery.device_in_use("srv").is_zero

    def test_overlapping_offers_share_one_offer_refresh(self, two_hosts):
        """A listener started during a discovery outage refreshes its
        offer pool on the next accept — once, however many offers overlap
        (single-flight), not once per in-flight handler."""
        world = two_hosts
        world.discovery.crash()
        server_rt = world.runtime("srv")
        client_rts = []
        for index in range(4):
            world.net.hosts["cl"].add_container(f"cl{index}")
            client_rts.append(world.runtime(f"cl{index}"))
        for rt in (server_rt, *client_rts):
            rt.register_chunnel(SerializeFallback)
        listener = echo_server(world, server_rt, dag=wrap(Serialize()))
        seen = tap_control(world.net)

        def client(env, runtime):
            conn = yield from runtime.new("c").connect(Address("srv", 7000))
            return conn

        def scenario(env):
            yield env.timeout(0.1)  # the start-up refresh has timed out
            assert listener._network_offers_at is None
            world.discovery.restart()
            yield env.all_of(
                [env.process(client(env, runtime)) for runtime in client_rts]
            )

        run(world.env, scenario(world.env))
        server_queries = [
            when
            for when, kind, dgram in seen
            if kind == "disc.query" and dgram.src.host == "srv" and when > 0.1
        ]
        assert len(server_queries) == 1
        assert listener._network_offers_at is not None
        assert len(listener.connections) == 4
