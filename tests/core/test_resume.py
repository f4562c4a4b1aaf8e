"""One-RTT resumption: the negotiation cache end to end (PROTOCOL.md §7).

World shape mirrors the chaos/churn experiments — echo server with a
contended NIC offload behind a priority-first policy, remote discovery —
so resumed connects exercise real reservation revalidation, not a
reservation-free stack.  The invalidation tests pin the ISSUE's
correctness bar: a revocation push or a policy-epoch bump between
connects must force full renegotiation, and a stale choice is never
instantiated — including when 10% loss eats the best-effort pushes and
only the server's reservation revalidation stands in the way.
"""

import dataclasses
import warnings

import pytest

from repro.apps.rpc import EchoServer
from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import ChunnelDag, Offer, ResourceVector, Runtime
from repro.core import messages as msgs
from repro.core.dag import wrap
from repro.core.negcache import NegotiationCache
from repro.core.policy import PriorityFirstPolicy
from repro.core.wire import canonical_encoder
from repro.discovery import DiscoveryService
from repro.discovery.client import RemoteDiscoveryClient
from repro.errors import DegradedEstablishmentWarning, NegotiationError
from repro.sim import FaultPlan, Network, SmartNic
from repro.sim.transport import UdpSocket

from ..conftest import (
    assert_no_stage_ran_before_its_verdict,
    stack_receives,
    tap_control,
)

CONNECT = dict(timeout=2e-3, retries=80)


def build_world(cache_size=8, cache_ttl=None, loss=0.0, seed=7, service_name=None):
    """Echo server + client + remote discovery, negotiation cache on both
    runtimes; returns (net, discovery, toe_record, server, client_rt)."""
    net = Network()
    server_host = net.add_host(
        "srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4)
    )
    client_host = net.add_host("cl")
    discovery_host = net.add_host("dsc")
    net.add_switch("tor")
    for name in ("srv", "cl", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    if loss:
        net.attach_faults_everywhere(FaultPlan(drop_rate=loss, seed=seed))
    discovery = DiscoveryService(discovery_host)
    toe_record = discovery.register(ReliableToe.meta, location="srv")

    def _runtime(host, **kwargs):
        runtime = Runtime(
            host,
            discovery=RemoteDiscoveryClient(host, discovery.address),
            negotiation_cache_size=cache_size,
            **kwargs,
        )
        runtime.negcache.ttl = cache_ttl
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    server_rt = _runtime(server_host, policy=PriorityFirstPolicy())
    client_rt = _runtime(client_host)
    server = EchoServer(server_rt, port=7400, dag=dag(), service_name=service_name)
    return net, discovery, toe_record, server, client_rt


def dag():
    return wrap(Serialize() >> Reliable())


def drive(net, generator, until=30.0):
    done = {}

    def _main():
        done["value"] = yield from generator
        done["at"] = net.env.now

    net.env.process(_main(), name="test.main")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        net.env.run(until=until)
    assert "value" in done or "at" in done, "driver did not finish"
    return done.get("value")


def connect_once(client_rt, server, session, **kwargs):
    endpoint = client_rt.new(f"resume-{session}", dag())
    params = {**CONNECT, **kwargs}
    return (yield from endpoint.connect(server.address, **params))


def echo_roundtrip(conn):
    conn.send(b"ping", size=64)
    reply = yield conn.recv()
    return reply


_binding_bytes = canonical_encoder(tuple[ChunnelDag, dict[int, Offer]])


def assert_same_binding(server, *conns):
    """Each client connection's ``(dag, choice)`` encodes byte-for-byte
    like its server connection's: a resume rebuilt the accept from the
    client's cache entry, so nothing else checks that the two still
    agree."""
    for conn in conns:
        peer = server_side(server, conn.conn_id)
        assert _binding_bytes((conn.dag, conn.choice)) == _binding_bytes(
            (peer.dag, peer.choice)
        )


class TestResumeFastPath:
    def test_second_connect_resumes_in_one_control_round_trip(self):
        net, _disc, toe, server, client_rt = build_world()

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            yield from echo_roundtrip(first)
            first.close()
            disc_before = client_rt.discovery.stats.round_trips
            nego_before = client_rt.negotiation_stats.round_trips
            second = yield from connect_once(client_rt, server, 1)
            yield from echo_roundtrip(second)
            second.close()
            return first, second, disc_before, nego_before

        first, second, disc_before, nego_before = drive(net, scenario())
        assert_same_binding(server, first, second)
        # One control round trip total: no discovery query, one resume.
        assert client_rt.discovery.stats.round_trips == disc_before
        assert client_rt.negotiation_stats.round_trips == nego_before + 1
        assert client_rt.negcache.hits == 1
        assert client_rt.negcache.fallbacks == 0
        # The resumed binding is the negotiated one, offload included.
        offloads = lambda conn: {
            o.record_id for o in conn.choice.values() if o.record_id
        }
        assert offloads(second) == offloads(first) == {toe.record_id}

    def test_resume_replays_the_trace_span(self):
        net, _disc, _toe, server, client_rt = build_world()

        def scenario():
            conn = yield from connect_once(client_rt, server, 0)
            conn.close()
            conn = yield from connect_once(client_rt, server, 1)
            conn.close()

        drive(net, scenario())
        phases = [s.phase for s in net.trace.spans]
        assert "resume" in phases  # client attempt + server revalidation
        resumes = [s for s in net.trace.spans if s.phase == "resume"]
        assert all(s.status == "ok" for s in resumes)

    def test_cache_disabled_changes_nothing(self):
        net, _disc, _toe, server, client_rt = build_world(cache_size=0)

        def scenario():
            for session in range(2):
                conn = yield from connect_once(client_rt, server, session)
                yield from echo_roundtrip(conn)
                conn.close()

        drive(net, scenario())
        cache = client_rt.negcache
        assert not cache.enabled
        assert (cache.hits, cache.misses, cache.fallbacks) == (0, 0, 0)
        # Both connects paid the full two control round trips.
        assert client_rt.discovery.stats.round_trips == 2
        assert client_rt.negotiation_stats.round_trips == 2

    def test_resume_against_cache_free_server_falls_back(self):
        # A client with a cache talking to a default (cache-off) server:
        # the resume is rejected and the connect still succeeds.
        net, _disc, _toe, server, client_rt = build_world()
        server.runtime.negcache = NegotiationCache(size=0)

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            second = yield from connect_once(client_rt, server, 1)
            yield from echo_roundtrip(second)
            second.close()

        drive(net, scenario())
        assert client_rt.negcache.hits == 1
        assert client_rt.negcache.fallbacks == 1

    def test_resume_answered_with_error_falls_back(self):
        # A server whose revalidation raises answers bertha.error: the
        # client counts that round trip, evicts and renegotiates in full.
        net, _disc, _toe, server, client_rt = build_world()

        def broken(message):
            raise NegotiationError("revalidation broke")
            yield  # pragma: no cover

        server.listener._handle_resume = broken

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            second = yield from connect_once(client_rt, server, 1)
            yield from echo_roundtrip(second)
            second.close()

        drive(net, scenario())
        assert client_rt.negcache.hits == 1
        assert client_rt.negcache.fallbacks == 1
        (fallback,) = [s for s in net.trace.spans if s.status == "fallback"]
        assert fallback.attrs["reason"] == "remote error: revalidation broke"
        # Offer, resume (its error reply counts), offer.
        assert client_rt.negotiation_stats.round_trips == 3


class TestInvalidation:
    def test_revocation_push_evicts_and_renegotiates(self):
        net, discovery, toe, server, client_rt = build_world()

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            # The watch registration RPC is asynchronous (fire-and-forget
            # from the cache's point of view); let it land first.
            yield net.env.timeout(1e-3)
            # Operator revokes the offload; the watch push (lossless
            # fabric here) evicts the cached entries on both runtimes.
            discovery.revoke(toe.record_id)
            yield net.env.timeout(1e-3)
            second = yield from connect_once(client_rt, server, 1)
            yield from echo_roundtrip(second)
            return second

        second = drive(net, scenario())
        assert client_rt.negcache.invalidations >= 1
        assert server.runtime.negcache.invalidations >= 1
        # Full renegotiation, not a resume-and-reject: the entry was gone
        # before the second connect looked.
        assert client_rt.negcache.hits == 0
        assert client_rt.negcache.fallbacks == 0
        # And the fresh choice cannot name the revoked record.
        assert toe.record_id not in {
            o.record_id for o in second.choice.values()
        }

    def test_server_epoch_bump_rejects_stale_resume(self):
        net, _disc, _toe, server, client_rt = build_world()

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            # Operator policy change on the server only: the client's
            # entry is still present and is offered — and must be refused.
            server.runtime.bump_policy_epoch()
            second = yield from connect_once(client_rt, server, 1)
            second.close()
            # The fallback re-stored a fresh entry under the new server
            # epoch; the third connect resumes again.
            third = yield from connect_once(client_rt, server, 2)
            yield from echo_roundtrip(third)
            third.close()
            return second, third

        assert_same_binding(server, *drive(net, scenario()))
        assert client_rt.negcache.hits == 2  # attempts 2 and 3
        assert client_rt.negcache.fallbacks == 1  # only attempt 2
        # The bump evicted the server's entry (and the server key embeds
        # the new epoch), so the stale resume reads as a server-side miss.
        rejected = [
            s
            for s in net.trace.spans
            if s.phase == "resume" and s.status == "reject"
        ]
        assert len(rejected) == 1
        assert "no cached negotiation result" in rejected[0].attrs["reason"]

    def test_fallback_negotiate_span_names_the_connection_it_produced(self):
        # A rejected resume retries the full path under a fresh conn id;
        # the one negotiate span follows it to the connection returned.
        net, _disc, _toe, server, client_rt = build_world()

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            yield from echo_roundtrip(first)
            first.close()
            server.runtime.negcache.invalidate_all()
            second = yield from connect_once(client_rt, server, 1)
            second.close()
            return second

        second = drive(net, scenario())
        assert client_rt.negcache.fallbacks == 1
        negotiate = [s for s in net.trace.spans if s.phase == "negotiate"]
        assert len(negotiate) == 2
        assert negotiate[1].conn_id == second.conn_id
        # The resume keeps the id it went out under.
        (fallback,) = [
            s for s in net.trace.spans
            if s.phase == "resume" and s.status == "fallback"
        ]
        assert fallback.conn_id != second.conn_id

    def test_client_epoch_bump_clears_local_cache(self):
        net, _disc, _toe, server, client_rt = build_world()

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            client_rt.bump_policy_epoch()
            second = yield from connect_once(client_rt, server, 1)
            second.close()

        drive(net, scenario())
        # No resume was even attempted: the bump evicted the entry and the
        # new epoch is part of the lookup key.
        assert client_rt.negcache.invalidations == 1
        assert client_rt.negcache.hits == 0
        assert client_rt.negcache.fallbacks == 0
        # Two full discovery queries plus the first connect's one watch
        # registration; a resumed second connect would have stayed at 2.
        assert client_rt.discovery.stats.round_trips == 3
        assert client_rt.negotiation_stats.round_trips == 2

    def test_ttl_expiry_reads_as_miss(self):
        net, _disc, _toe, server, client_rt = build_world(cache_ttl=1e-3)

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            yield net.env.timeout(5e-3)  # past the TTL
            second = yield from connect_once(client_rt, server, 1)
            second.close()

        drive(net, scenario())
        assert client_rt.negcache.hits == 0
        assert client_rt.negcache.misses == 2
        assert client_rt.negcache.fallbacks == 0


def server_side(server, conn_id):
    (conn,) = [c for c in server.listener.connections if c.conn_id == conn_id]
    return conn


def toe_receives(receives, conn_id):
    """Datagrams the server's stacks processed for ``conn_id`` on a
    binding that includes the NIC offload."""
    return [
        seen
        for seen in receives
        if (seen.conn_id, seen.role) == (conn_id, "server")
        and "ReliableToe" in seen.impls
    ]


class TestInvalidationUnderLoss:
    """The bar: a revoked record is never *used* by a new
    connection even when 10% loss eats the best-effort revocation pushes:
    the server stack processes 0 datagrams on it, and the connection ends
    on the next-ranked implementation.  The server's lease verdict is the
    safety net."""

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_revocation_between_connects_never_resumes_stale(
        self, seed, monkeypatch
    ):
        net, discovery, toe, server, client_rt = build_world(
            loss=0.10, seed=seed
        )
        receives = stack_receives(monkeypatch)

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first_records = {
                o.record_id for o in first.choice.values() if o.record_id
            }
            first.close()
            yield net.env.timeout(1e-3)  # let the watch registration land
            discovery.revoke(toe.record_id)
            yield net.env.timeout(1e-3)
            second = yield from connect_once(client_rt, server, 1)
            yield from echo_roundtrip(second)
            second_records = {
                o.record_id for o in second.choice.values() if o.record_id
            }
            second.close()
            return first_records, second_records, second.conn_id

        first_records, second_records, conn_id = drive(
            net, scenario(), until=60.0
        )
        # The first negotiation used the offload; the second ends without
        # it on both sides — whether the eviction push survived the loss
        # (full renegotiation) or the resume was accepted under the lease
        # the server still held and its check steered it off.
        assert toe.record_id in first_records
        assert toe.record_id not in second_records
        assert toe.record_id not in {
            o.record_id for o in server_side(server, conn_id).choice.values()
        }
        # However it played out, no server stage ran on the stale binding.
        assert toe_receives(receives, conn_id) == []
        assert_no_stage_ran_before_its_verdict(net, receives)
        assert discovery.audit_leases()["ok"]

    def test_epoch_bump_between_connects_under_loss(self):
        net, _disc, _toe, server, client_rt = build_world(loss=0.10, seed=13)

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            server.runtime.bump_policy_epoch()
            second = yield from connect_once(client_rt, server, 1)
            yield from echo_roundtrip(second)
            second.close()

        drive(net, scenario(), until=60.0)
        # The stale-epoch resume must have been rejected, never adopted.
        assert client_rt.negcache.hits == client_rt.negcache.fallbacks


class TestBindingDigest:
    """A RESUME names its binding by digest, so the server refuses one
    whose binding differs from its own entry in anything the wire carries
    — a DAG argument, an offer's resources — not only in which
    implementation each node binds.  The client resumes by service name
    while a connect by address (another client entry, the same server
    entry) makes the server re-decide in between."""

    def diverge(self, change):
        net, _disc, toe, server, client_rt = build_world(service_name="echo")

        def connect(target, session):
            endpoint = client_rt.new(f"resume-{session}", dag())
            conn = yield from endpoint.connect(target, **CONNECT)
            yield from echo_roundtrip(conn)
            conn.close()
            return conn

        def scenario():
            first = yield from connect("echo", 0)
            change(server, toe)
            redecided = yield from connect(server.address, 1)
            resumed = yield from connect("echo", 2)
            return first, redecided, resumed

        first, redecided, resumed = drive(net, scenario())
        assert [
            s.attrs["reason"]
            for s in net.trace.spans
            if s.phase == "resume" and s.status == "reject"
        ] == ["cached choice diverged"]
        assert client_rt.negcache.hits == 1  # the stale name entry was tried
        assert client_rt.negcache.fallbacks == 1
        # The same implementations throughout: the old per-node check
        # would have resumed.
        names = lambda conn: [o.meta.name for o in conn.choice.values()]
        assert names(first) == names(redecided) == names(resumed)
        # The fallback ends on the binding the server decided last.
        assert _binding_bytes((resumed.dag, resumed.choice)) == _binding_bytes(
            (redecided.dag, redecided.choice)
        )
        assert_same_binding(server, first, redecided, resumed)
        return first, resumed

    def test_changed_dag_argument_diverges(self):
        def change(server, _toe):
            server.endpoint.dag = wrap(Serialize() >> Reliable(max_retries=9))

        first, resumed = self.diverge(change)
        retries = lambda conn: conn.dag.nodes[
            conn.dag.find("reliable")[0]
        ].args["max_retries"]
        assert (retries(first), retries(resumed)) == (5, 9)

    def test_reregistered_record_with_other_resources_diverges(self):
        def change(_server, toe):
            toe.meta = dataclasses.replace(
                toe.meta, resources=toe.meta.resources + ResourceVector(nic_slots=1)
            )

        first, resumed = self.diverge(change)
        toe_meta = lambda conn: next(
            o.meta for o in conn.choice.values() if o.record_id
        )
        assert toe_meta(resumed).resources != toe_meta(first).resources

    @pytest.mark.parametrize(
        "digest", ["ab" * 15, "zz" * 16], ids=["wrong-length", "not-hex"]
    )
    def test_malformed_digest_is_counted_once_and_the_next_resume_answered(
        self, digest
    ):
        net, _disc, _toe, server, client_rt = build_world()
        listener = server.listener

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            bad = msgs.Resume(
                conn_id="forged", client_entity=client_rt.entity.name,
                policy_epoch=0, shape_digest=digest, binding_digest=digest,
            )
            payload, size = msgs.encode_message_sized(bad)
            forger = UdpSocket(client_rt.entity)
            forger.send(payload, server.address, size=size)
            yield net.env.timeout(1e-3)
            forger.close()
            malformed = listener.ctl_malformed_total
            second = yield from connect_once(client_rt, server, 1)
            yield from echo_roundtrip(second)
            return malformed, second

        malformed, second = drive(net, scenario())
        assert malformed == 1 == listener.ctl_malformed_total
        assert client_rt.negcache.hits == 1 and client_rt.negcache.fallbacks == 0
        assert_same_binding(server, second)


class TestReservationRevalidation:
    def test_discovery_outage_fails_resume_then_degrades(self, monkeypatch):
        """With discovery down, the server cannot confirm the lease it
        still holds: the resume is accepted, its check times out — a
        denial, never "assume held" — and the verdict degrades the
        connection to the fallback before any server stage has run on
        the offload.  Same contract as a cold connect during an outage
        (PROTOCOL.md §6.3): served, on what needs no discovery."""
        net, discovery, toe, server, client_rt = build_world()
        receives = stack_receives(monkeypatch)

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            discovery.crash()
            second = yield from connect_once(client_rt, server, 1)
            reply = yield from echo_roundtrip(second)
            return second, reply

        second, reply = drive(net, scenario(), until=60.0)
        assert reply.payload == b"ping"
        assert_same_binding(server, second)
        assert client_rt.negcache.hits == 1
        assert client_rt.negcache.fallbacks == 0  # accepted, then steered
        leases = server.runtime.leases
        assert (leases.check_timeouts, leases.late_denials) == (1, 1)
        for side in (second, server_side(server, second.conn_id)):
            assert toe.record_id not in {o.record_id for o in side.choice.values()}
        assert toe_receives(receives, second.conn_id) == []
        assert_no_stage_ran_before_its_verdict(net, receives)

    def test_revoked_record_with_every_push_lost_dies_at_the_check(
        self, monkeypatch
    ):
        """A revoked record is never *used* by a new connection even with
        every push lost: both negotiation caches keep their entry, the
        RESUME goes out and is accepted at once under the lease the
        listener still holds — and its ``disc.lease_check`` says no, the
        re-reserve is refused, and the verdict moves the connection to the
        fallback.  The server stack processes 0 datagrams on the revoked
        binding; the client's data waits for the verdict, then flows."""
        net, discovery, toe, server, client_rt = build_world()
        seen = tap_control(
            net,
            drop=lambda kind, _dgram: kind
            in ("disc.revoked", "disc.lease_revoked"),
        )
        receives = stack_receives(monkeypatch)

        def scenario():
            first = yield from connect_once(client_rt, server, 0)
            first.close()
            yield net.env.timeout(1e-3)  # both watch registrations land
            discovery.revoke(toe.record_id)
            yield net.env.timeout(1e-3)
            del seen[:]
            second = yield from connect_once(client_rt, server, 1)
            accepted = {o.record_id for o in second.choice.values()}
            yield from echo_roundtrip(second)
            return second, accepted

        second, accepted = drive(net, scenario())
        assert [kind for _, kind, _ in seen] == [
            "bertha.resume",
            "bertha.resume_accept",  # leaves with the check, crosses first
            "disc.lease_check",
            "disc.lease_check_reply",
            "bertha.hello",
            "disc.reserve",  # re-reserve after "no": refused
            "disc.reserve_reply",
            "disc.query",  # the re-decision's fresh offers
            "disc.query_reply",
            "bertha.transition",
            "bertha.transition_ack",
        ]
        assert toe.record_id in accepted  # the resume was taken as cached
        assert_same_binding(server, second)
        for side in (second, server_side(server, second.conn_id)):
            assert toe.record_id not in {o.record_id for o in side.choice.values()}
            assert side.transitions == 1
        assert toe_receives(receives, second.conn_id) == []
        assert_no_stage_ran_before_its_verdict(net, receives)
        assert client_rt.negcache.hits == 1  # the stale entry was tried
        assert client_rt.negcache.fallbacks == 0
        assert server.runtime.leases.late_denials == 1
        assert server.runtime.leases.held() == {}
        assert discovery.audit_leases([server.runtime.leases])["ok"]


class TestNegotiationCacheUnit:
    def test_disabled_cache_is_inert(self):
        cache = NegotiationCache(size=0)
        assert not cache.enabled
        cache.store("k", {"x": 1})
        assert cache.lookup("k") is None
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_lru_eviction_and_hit_refresh(self):
        cache = NegotiationCache(size=2)
        cache.store("a", {"n": 1})
        cache.store("b", {"n": 2})
        assert cache.lookup("a")["n"] == 1  # refreshes a
        cache.store("c", {"n": 3})  # evicts b (LRU)
        assert "b" not in cache
        assert cache.lookup("a")["n"] == 1
        assert cache.lookup("c")["n"] == 3

    def test_ttl_uses_the_injected_clock(self):
        now = {"t": 0.0}
        cache = NegotiationCache(size=4, ttl=1.0, clock=lambda: now["t"])
        cache.store("k", {"n": 1})
        assert cache.lookup("k") is not None
        now["t"] = 2.0
        assert cache.lookup("k") is None
        assert "k" not in cache  # expiry evicts
        assert (cache.hits, cache.misses) == (1, 1)

    def test_tag_invalidation(self):
        cache = NegotiationCache(size=4)
        cache.store("a", {}, tags={"rec-1", "shape"})
        cache.store("b", {}, tags={"rec-2", "shape"})
        cache.store("c", {}, tags={"rec-3"})
        assert cache.invalidate_tag("rec-1") == 1
        assert cache.invalidate_tag("shape") == 1  # only b left with it
        assert cache.invalidate_tag("nothing") == 0
        assert len(cache) == 1 and "c" in cache
        assert cache.invalidations == 2

    def test_invalidate_all_counts(self):
        cache = NegotiationCache(size=4)
        cache.store("a", {})
        cache.store("b", {})
        assert cache.invalidate_all() == 2
        assert len(cache) == 0 and cache.invalidations == 2

    def test_note_fallback_evicts_the_proved_stale_entry(self):
        cache = NegotiationCache(size=4)
        cache.store("a", {})
        cache.note_fallback("a")
        assert "a" not in cache and cache.fallbacks == 1
        cache.note_fallback("missing")  # timeout after eviction: no error
        assert cache.fallbacks == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="size"):
            NegotiationCache(size=-1)
        with pytest.raises(ValueError, match="ttl"):
            NegotiationCache(size=1, ttl=0)
