"""TraceLog unit tests plus the end-to-end lifecycle integration check."""


from repro.sim import Address

from ..conftest import run


class FakeEnv:
    def __init__(self):
        self.now = 0.0


class TestSpans:
    def test_begin_is_open(self):
        from repro.obs import TraceLog

        env = FakeEnv()
        trace = TraceLog(env)
        span = trace.begin("negotiate", "c-1", target="srv")
        assert span.end is None
        assert span.duration is None
        assert span.status == "open"
        assert len(trace.spans) == 1

    def test_finish_stamps_end_status_attrs(self):
        from repro.obs import TraceLog

        env = FakeEnv()
        trace = TraceLog(env)
        span = trace.begin("establish", "c-1")
        env.now = 2.5
        trace.finish(span, transport="sockets")
        assert span.duration == 2.5
        assert span.status == "ok"
        assert span.attrs["transport"] == "sockets"

    def test_finish_error_status(self):
        from repro.obs import TraceLog

        trace = TraceLog(FakeEnv())
        span = trace.begin("rpc", "c-1")
        trace.finish(span, status="timeout", attempts=4)
        assert span.status == "timeout"
        assert span.attrs == {"attempts": 4}

    def test_event_is_instant(self):
        from repro.obs import TraceLog

        env = FakeEnv()
        env.now = 1.0
        trace = TraceLog(env)
        span = trace.event("teardown", "c-1", sent=3)
        assert span.start == span.end == 1.0
        assert span.duration == 0.0

    def test_select_and_lifecycle(self):
        from repro.obs import TraceLog

        trace = TraceLog(FakeEnv())
        trace.finish(trace.begin("negotiate", "c-1"))
        trace.finish(trace.begin("establish", "c-1"))
        trace.event("chaos", action="partition")
        trace.event("teardown", "c-1")
        assert [s.phase for s in trace.select(conn_id="c-1")] == [
            "negotiate",
            "establish",
            "teardown",
        ]
        assert len(trace.select(phase="chaos")) == 1
        assert trace.lifecycle("c-1") == ["negotiate", "establish", "teardown"]


class TestConnectionLifecycle:
    """One real establishment must leave the paper's span sequence:
    negotiate → reserve → establish → data → teardown."""

    def test_full_lifecycle_spans(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        endpoint = server_rt.new("echo")
        listener = endpoint.listen(port=7000)

        def serve(env):
            conn = yield listener.accept()
            msg = yield conn.recv()
            conn.send(msg.payload, size=msg.size, dst=msg.src)

        two_hosts.env.process(serve(two_hosts.env))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.send(b"ping", size=4)
            yield conn.recv()
            conn.close()
            return conn.conn_id

        conn_id = run(two_hosts.env, client(two_hosts.env))
        trace = two_hosts.net.trace
        phases = trace.lifecycle(conn_id)
        for phase in ("negotiate", "reserve", "establish", "data", "teardown"):
            assert phase in phases, f"missing {phase!r} in {phases}"
        # Ordering: the client-side establishment pipeline is sequential.
        assert phases.index("negotiate") < phases.index("establish")
        assert phases.index("establish") < phases.index("data")
        assert phases.index("data") < phases.index("teardown")
        # Interval spans all closed ok, stamped on virtual time.
        for span in trace.select(conn_id=conn_id):
            assert span.end is not None
            assert span.status == "ok"
            assert span.end >= span.start >= 0.0

    def test_registry_sees_the_connection(self, two_hosts):
        server_rt = two_hosts.runtime("srv")
        client_rt = two_hosts.runtime("cl")
        endpoint = server_rt.new("echo")
        listener = endpoint.listen(port=7000)

        def serve(env):
            conn = yield listener.accept()
            msg = yield conn.recv()
            conn.send(msg.payload, size=msg.size, dst=msg.src)

        two_hosts.env.process(serve(two_hosts.env))

        def client(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7000))
            conn.send(b"ping", size=4)
            yield conn.recv()
            return conn.conn_id

        conn_id = run(two_hosts.env, client(two_hosts.env))
        snap = two_hosts.net.obs.snapshot()
        assert snap[f"conn.{conn_id}.client.messages_sent"] == 1
        assert snap[f"conn.{conn_id}.client.messages_received"] == 1
        assert snap.sum("rpc.negotiation.cl.", "round_trips") >= 1
        assert snap.get("net.delivered") > 0
        assert snap.get("discovery.leases") == 0
        assert snap.at == two_hosts.env.now
