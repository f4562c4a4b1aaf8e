"""The sharded discovery tier (PROTOCOL.md §8): routing, replication,
failover, and cross-shard negotiation-cache invalidation.

World shape: ``shards × replicas`` discovery hosts behind one ToR, a
router host serving the shard map, and client/server hosts whose runtimes
route through :class:`ShardedDiscoveryClient`.  With two shards, the
``reliable`` chunnel type hashes to shard 0 and ``serialize`` to shard 1
(and ``svc-0`` to shard 1), so a single establishment genuinely fans out
across shards — which is what the cross-shard invalidation test needs.
"""

import warnings

import pytest

from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import Runtime
from repro.core.chunnel import ImplMeta
from repro.core.dag import wrap
from repro.core.policy import PriorityFirstPolicy
from repro.core.resources import ResourceVector
from repro.core.scope import Endpoints, Placement, Scope
from repro.discovery import (
    DiscoveryShardTier,
    ShardedDiscoveryClient,
    ShardInfo,
    ShardMap,
    ShardRouter,
)
from repro.core import messages as msgs
from repro.errors import ConnectionTimeoutError, DegradedEstablishmentWarning
from repro.sim import Address, FaultPlan, Network, SmartNic
from repro.sim.transport import UdpSocket

from repro.discovery.router import MISS_THRESHOLD

from ..conftest import run, tap_control


def soft_meta(chunnel_type="reliable", name="soft"):
    """A zero-resource implementation record (no device accounting)."""
    return ImplMeta(
        chunnel_type=chunnel_type,
        name=name,
        priority=10,
        scope=Scope.GLOBAL,
        endpoints=Endpoints.BOTH,
        placement=Placement.HOST_SOFTWARE,
        resources=ResourceVector(),
    )


def shard_world(shards=2, replicas=3, loss=0.0, seed=7, extra_hosts=("cli",)):
    net = Network()
    shard_hosts = [
        [f"s{k}r{i}" for i in range(replicas)] for k in range(shards)
    ]
    for group in shard_hosts:
        for name in group:
            net.add_host(name)
    router_host = net.add_host("rtr")
    for name in extra_hosts:
        net.add_host(name)
    net.add_switch("tor")
    for name in [n for g in shard_hosts for n in g] + ["rtr", *extra_hosts]:
        net.add_link(name, "tor", latency=5e-6)
    if loss:
        net.attach_faults_everywhere(FaultPlan(drop_rate=loss, seed=seed))
    tier = DiscoveryShardTier(net, shard_hosts)
    router = ShardRouter(router_host, tier.map)
    return net, tier, router


class TestShardMap:
    def setup_method(self):
        self.map = ShardMap(
            1,
            [
                ShardInfo(k, Address(f"s{k}", 1), [Address(f"s{k}", 1)])
                for k in range(4)
            ],
        )

    def test_routing_is_deterministic_and_total(self):
        other = ShardMap(9, list(self.map.shards))
        for key in ("reliable", "serialize", "multicast", "encrypt"):
            assert self.map.shard_for_type(key) == other.shard_for_type(key)
            assert 0 <= self.map.shard_for_type(key) < 4
        names = [self.map.shard_for_name(f"svc-{i}") for i in range(32)]
        assert len(set(names)) > 1  # names actually spread

    def test_type_and_name_namespaces_hash_independently(self):
        assert self.map.shard_for_type("echo") != self.map.shard_for_name(
            "echo"
        ) or self.map.shard_for_type("x") != self.map.shard_for_name("x")

    def test_record_ids_route_by_prefix(self):
        assert self.map.shard_for_record("s2-17") == 2
        assert self.map.shard_for_record("s7-1") == 3  # modulo shard count
        # Foreign-format ids still route (hashed), just not by prefix.
        assert 0 <= self.map.shard_for_record("rec-3") < 4

    def test_wire_round_trip(self):
        reply = msgs.ShardMapReply(version=self.map.version, shards=self.map.shards)
        back = msgs.decode_message(msgs.encode_message_sized(reply)[0])
        assert back.version == self.map.version
        assert back.shards == self.map.shards

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(1, [])


class TestShardedRegistry:
    def test_seed_records_are_identical_across_replicas(self):
        net, tier, _router = shard_world()
        record = tier.seed_record(soft_meta("reliable"), "cli")
        assert record.record_id.startswith("s0-")  # reliable → shard 0
        for replica in tier.shards[0]:
            assert record.record_id in replica._records
        for replica in tier.shards[1]:
            assert record.record_id not in replica._records

    def test_query_fans_out_across_shards(self):
        net, tier, router = shard_world()
        rel = tier.seed_record(soft_meta("reliable", "rel"), "cli")
        ser = tier.seed_record(soft_meta("serialize", "ser"), "cli")
        assert rel.record_id.startswith("s0-")
        assert ser.record_id.startswith("s1-")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)

        def scenario(env):
            yield env.timeout(1e-3)
            yield from client.register_name("svc-0", Address("cli", 4100))
            result = yield from client.query(
                ["reliable", "serialize"], service_name="svc-0"
            )
            return result

        result = run(net.env, scenario(net.env))
        assert [o.record_id for o in result.offers["reliable"]] == [
            rel.record_id
        ]
        assert [o.record_id for o in result.offers["serialize"]] == [
            ser.record_id
        ]
        assert result.instances == [Address("cli", 4100)]
        # Both shards actually served a leg of the query — on a standby,
        # not the primary: reads are replica-local and the client pins
        # them away from the primary's (mutation-serialized) serve loop.
        for shard_id in (0, 1):
            served = sum(r.queries_served for r in tier.shards[shard_id])
            assert served >= 1
            assert tier.primary(shard_id).queries_served == 0
        assert router.maps_served >= 1

    def test_read_pin_walks_off_a_dead_standby(self):
        # The router only monitors primaries, so a client pinned to a
        # dead standby must walk off it on its own: the timed-out read
        # advances the pin and the next read lands on a live replica.
        net, tier, router = shard_world()
        tier.seed_record(soft_meta("reliable"), "cli")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)
        shard_id = tier.map.shard_for_type("reliable")
        by_address = {r.address: r for r in tier.shards[shard_id]}

        def scenario(env):
            yield env.timeout(1e-3)
            yield from client.query(["reliable"])
            pinned = by_address[client._read_replica(shard_id)]
            assert not pinned.is_primary
            pinned.crash()
            try:
                yield from client.query(["reliable"])
            except ConnectionTimeoutError:
                pass
            else:
                raise AssertionError("read against a dead standby succeeded")
            assert client.read_repins == 1
            moved = client._read_replica(shard_id)
            assert moved != pinned.address
            result = yield from client.query(["reliable"])
            assert result.offers["reliable"]
            return by_address[moved].queries_served

        assert run(net.env, scenario(net.env)) >= 1

    def test_mutations_replicate_to_every_replica(self):
        net, tier, router = shard_world()
        record = tier.seed_record(soft_meta("reliable"), "cli")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)

        def scenario(env):
            yield env.timeout(1e-3)
            first = yield from client.reserve(record.record_id, "alice")
            second = yield from client.reserve(record.record_id, "alice")
            yield from client.release(record.record_id, "alice")
            yield from client.register_name("svc-1", Address("cli", 4200))
            yield env.timeout(2e-3)  # let the slowest replica apply
            return first, second

        first, second = run(net.env, scenario(net.env))
        assert first and second
        key = (record.record_id, "alice")
        for replica in tier.shards[0]:
            lease = replica._leases[key]
            assert lease.count == 1  # two reserves, one release — everywhere
            assert replica.reservations_granted == 1
        # svc-1 → shard 1: replicated to the shard-local name table on all
        # replicas, mirrored into the cluster name service by the primary.
        for replica in tier.shards[1]:
            assert replica._names["svc-1"] == [Address("cli", 4200)]
        assert [r.address for r in net.names.resolve("svc-1")] == [
            Address("cli", 4200)
        ]

    def test_group_connect_process_keeps_no_connection(self):
        """Later mutations wait on the process that made the primary's
        group connection, so it stays; the RSM client owns the connection,
        and the process's value is None, or it would outlive its close."""
        net, tier, router = shard_world()
        record = tier.seed_record(soft_meta("reliable"), "cli")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)

        def scenario(env):
            yield env.timeout(1e-3)
            return (yield from client.reserve(record.record_id, "alice"))

        assert run(net.env, scenario(net.env))
        (primary,) = [r for r in tier.shards[0] if r.is_primary]
        assert primary._rsm_client.conn is not None
        assert primary._rsm_connect.processed
        assert primary._rsm_connect.value is None

    def test_failed_group_connect_answers_an_error_and_connects_again(self):
        """A primary whose group connect fails (a member host is down)
        answers the mutation ``disc.error`` instead of failing the
        simulation, and forgets the connect: once the host is back, the
        next mutation connects again and is applied on every replica."""
        net, tier, _router = shard_world()
        record = tier.seed_record(soft_meta("reliable"), "cli")
        primary = tier.primary(0)
        socket = UdpSocket(net.entity("cli"))
        replies = []

        def collect(env):
            while True:
                dgram = yield socket.recv()
                replies.append(msgs.decode_message(dgram.payload))

        def reserve(req_id):
            request = msgs.Reserve(record_id=record.record_id, owner="alice")
            payload, size = msgs.encode_message_sized(request.stamped(req_id, 0))
            socket.send(payload, primary.address, size=size)

        def scenario(env):
            net.hosts["s0r2"].down = True
            reserve("t-1")
            while not replies:
                yield env.timeout(1e-3)
            net.hosts["s0r2"].down = False
            reserve("t-2")
            yield env.timeout(20e-3)

        net.env.process(collect(net.env), name="test.replies")
        run(net.env, scenario(net.env), until=10.0)
        assert [(r.KIND, r.req_id) for r in replies] == [
            ("disc.error", "t-1"),
            ("disc.reserve_reply", "t-2"),
        ]
        assert "shard quorum unavailable" in replies[0].error
        assert replies[1].ok
        for replica in tier.shards[0]:
            assert replica._leases[(record.record_id, "alice")].count == 1
            assert replica.reservations_granted == 1

    def test_whole_shard_restart_brings_its_log_back(self):
        """A total outage crashes each replica's discovery front and its
        RSM participant; restart must bring both back, or the shard can
        answer reads but never log another mutation."""
        net, tier, router = shard_world()
        record = tier.seed_record(soft_meta("reliable"), "cli")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)
        replicas = tier.shards[0]

        def scenario(env):
            yield env.timeout(1e-3)
            for replica in replicas:
                replica.crash()
            yield env.timeout(1e-3)
            for replica in replicas:
                replica.restart()
            ok = yield from client.reserve(record.record_id, "alice")
            yield env.timeout(2e-3)  # let the slowest replica apply
            return ok

        assert run(net.env, scenario(net.env))
        for replica in replicas:
            assert not replica.rsm.down
            assert replica._leases[(record.record_id, "alice")].count == 1

    def test_revocation_pushes_once_from_the_primary(self):
        net, tier, router = shard_world()
        record = tier.seed_record(soft_meta("reliable"), "cli")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)
        watcher = UdpSocket(net.entity("cli"))
        pushes = []

        def listen(env):
            while True:
                dgram = yield watcher.recv()
                pushes.append(msgs.decode_message(dgram.payload))

        def scenario(env):
            yield env.timeout(1e-3)
            yield from client.watch(record.record_id, watcher.address)
            yield env.timeout(1e-3)
            result = yield from tier.revoke(record.record_id)
            yield env.timeout(2e-3)
            return result

        net.env.process(listen(net.env), name="test.watcher")
        result = run(net.env, scenario(net.env))
        assert result is True
        # Watch table replicated everywhere; push emitted exactly once (by
        # the primary), not once per live replica.
        assert [p.KIND for p in pushes] == ["disc.revoked"]
        for replica in tier.shards[0]:
            assert record.record_id not in replica._records
            assert replica.revocations == 1


class TestFailover:
    def test_promote_rejects_stale_versions(self):
        net, tier, _router = shard_world(shards=1)
        standby = tier.shards[0][1]
        standby.map_version = 5
        assert standby.promote(3) is False
        assert not standby.is_primary
        assert standby.promote(5) is True
        assert standby.is_primary and standby.promotions == 1

    def test_router_promotes_standby_and_watches_survive(self):
        net, tier, router = shard_world()
        record = tier.seed_record(soft_meta("reliable"), "cli")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)
        watcher = UdpSocket(net.entity("cli"))
        pushes = []
        old_primary = tier.primary(0)

        def listen(env):
            while True:
                dgram = yield watcher.recv()
                pushes.append(msgs.decode_message(dgram.payload))

        def scenario(env):
            yield env.timeout(1e-3)
            yield from client.watch(record.record_id, watcher.address)
            yield env.timeout(1e-3)
            router.start_monitor()
            yield env.timeout(5e-3)  # a few healthy probe rounds
            tier.crash_primary(0)
            crash_at = env.now
            yield env.timeout(40e-3)  # detect (3 misses) + promote
            assert router.failovers == 1
            # A routed mutation still works: the client times out against
            # the dead primary, refreshes the map, and retries.
            ok = yield from client.reserve(record.record_id, "owner-1")
            # Revocation through the replicated log still reaches the
            # watcher via the *new* primary's replicated watch table.
            yield from tier.revoke(record.record_id)
            yield env.timeout(5e-3)
            router.stop()
            return ok, crash_at

        net.env.process(listen(net.env), name="test.watcher")
        ok, _crash_at = run(net.env, scenario(net.env), until=10.0)
        assert ok is True
        new_primary = tier.primary(0)
        assert new_primary is not old_primary
        assert new_primary.is_primary and not new_primary.down
        assert tier.map.version == 2
        assert client.map.version == 2  # refreshed after the timeout
        assert client.map_refreshes >= 1
        assert [p.KIND for p in pushes] == ["disc.revoked"]
        assert len(router.failover_durations) == 1
        assert 0 < router.failover_durations[0] < 50e-3


    def test_promoted_primary_answers_the_first_ping_with_a_pong(self):
        """The router's probe and promote clients draw request ids from
        one namespace, so the first ping a promoted primary gets carries
        the promote's id.  Verdicts are keyed by kind as well (PROTOCOL.md
        §8.2): the ping is answered, not sent the cached promote reply,
        and the failover costs exactly the threshold's misses."""
        net, tier, router = shard_world(shards=1)
        seen = tap_control(net)

        def scenario(env):
            yield env.timeout(1e-3)
            router.start_monitor()
            yield env.timeout(5e-3)
            tier.crash_primary(0)
            yield env.timeout(40e-3)
            router.stop()

        run(net.env, scenario(net.env), until=10.0)
        assert router.failovers == 1
        assert router.probes_missed == MISS_THRESHOLD
        promoted = tier.primary(0).address
        answers = [
            (kind, msgs.decode_message(dgram.payload).req_id)
            for _when, kind, dgram in seen
            if dgram.src == promoted
        ]
        assert answers[:2] == [
            ("disc.promote_reply", "rtr-1"),
            ("disc.pong", "rtr-1"),
        ]


    def test_primary_crashed_mid_check_standby_answers_from_the_log(self):
        """A ``disc.lease_check`` is a read of one replica, but the lease
        it reads came through the log: when the primary dies with the
        check in flight, the retransmit reaches the promoted standby,
        which holds the lease and says so — and nothing is logged for it."""
        net, tier, router = shard_world()
        net.add_host(
            "srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4)
        )
        net.add_link("srv", "tor", latency=5e-6)
        record = tier.seed_record(ReliableToe.meta, location="srv")
        client = ShardedDiscoveryClient(net.entity("cli"), router.address)
        old_primary = tier.primary(0)

        def scenario(env):
            yield env.timeout(1e-3)
            assert (yield from client.reserve(record.record_id, "srv:echo"))
            # Fast enough that the standby is promoted before the client's
            # probe chain against the dead primary gives up and re-reads
            # the map.
            router.probe_timeout = 3e-4
            router.start_monitor()
            yield env.timeout(5e-3)
            applied = [replica.rsm.applied for replica in tier.shards[0]]
            check = env.process(client.lease_check(record.record_id, "srv:echo"))
            yield env.timeout(2e-6)  # the request is on the wire
            tier.crash_primary(0)
            stands = yield check
            stranger = yield from client.lease_check(record.record_id, "nobody")
            router.stop()
            return stands, stranger, applied

        stands, stranger, applied = run(net.env, scenario(net.env), until=10.0)
        assert stands is True and stranger is False
        new_primary = tier.primary(0)
        assert new_primary is not old_primary and new_primary.is_primary
        assert new_primary.lease_checks == 2 and old_primary.lease_checks == 0
        assert client.map_refreshes >= 1
        assert [replica.rsm.applied for replica in tier.shards[0]] == applied
        assert new_primary.audit_leases()["leases"] == 1


CONNECT = dict(timeout=2e-3, retries=80)


def resume_world(loss=0.0, seed=7):
    """test_resume's echo world, rebuilt on the sharded tier: SmartNIC
    offload behind priority-first policy, negotiation caches both sides,
    discovery fanned across two shards."""
    net, tier, router = shard_world(
        loss=loss, seed=seed, extra_hosts=("cl",)
    )
    server_host = net.add_host(
        "srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4)
    )
    net.add_link("srv", "tor", latency=5e-6)
    toe_record = tier.seed_record(ReliableToe.meta, location="srv")
    assert toe_record.record_id.startswith("s0-")  # reliable → shard 0

    def _runtime(host, **kwargs):
        runtime = Runtime(
            host,
            discovery=ShardedDiscoveryClient(host, router.address),
            negotiation_cache_size=8,
            **kwargs,
        )
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    from repro.apps.rpc import EchoServer

    server_rt = _runtime(net.entity("srv"), policy=PriorityFirstPolicy())
    client_rt = _runtime(net.entity("cl"))
    server = EchoServer(
        server_rt, port=7400, dag=wrap(Serialize() >> Reliable())
    )
    return net, tier, router, toe_record, server, client_rt


def drive(net, generator, until=60.0):
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


class TestCrossShardNegcacheInvalidation:
    """Satellite: a revocation landing on shard A must evict cached
    negotiation results on clients whose establishment routed through
    shard B's map too — under 10% loss, where the best-effort push may
    die and the server-side reservation revalidation is the safety net."""

    @pytest.mark.parametrize("seed", [7, 23])
    def test_revocation_on_shard_a_evicts_across_shard_routing(self, seed):
        net, tier, _router, toe, server, client_rt = resume_world(
            loss=0.10, seed=seed
        )

        def scenario():
            endpoint = client_rt.new("x0", wrap(Serialize() >> Reliable()))
            first = yield from endpoint.connect(server.address, **CONNECT)
            first_records = {
                o.record_id for o in first.choice.values() if o.record_id
            }
            first.close()
            yield net.env.timeout(2e-3)  # let the watch registrations land
            # The establishment fanned out: serialize legs hit shard 1,
            # the reliable (offload) leg hit shard 0 (reads land on a
            # replica of the shard, not necessarily its primary).
            assert sum(r.queries_served for r in tier.shards[1]) >= 1
            # Operator revokes the offload through shard 0's replicated
            # log; the (primary-only) push races 10% loss.
            yield from tier.revoke(toe.record_id)
            yield net.env.timeout(2e-3)
            endpoint = client_rt.new("x1", wrap(Serialize() >> Reliable()))
            second = yield from endpoint.connect(server.address, **CONNECT)
            second_records = {
                o.record_id for o in second.choice.values() if o.record_id
            }
            second.close()
            return first_records, second_records

        first_records, second_records = drive(net, scenario())
        # The first negotiation offloaded; the second must not — whether
        # the eviction push survived the loss or the stale resume died at
        # reservation revalidation against the replicated lease table.
        assert toe.record_id in first_records
        assert toe.record_id not in second_records
        # Nothing resumed onto the stale binding.
        assert client_rt.negcache.hits == client_rt.negcache.fallbacks
        # Every replica of the owning shard expired the record and stayed
        # consistent under loss (the RSM retransmit/dedup path).
        for replica in tier.shards[0]:
            assert toe.record_id not in replica._records
            assert replica.audit_leases()["ok"]

    def test_push_evicts_on_lossless_fabric(self):
        net, tier, _router, toe, server, client_rt = resume_world(loss=0.0)

        def scenario():
            endpoint = client_rt.new("x0", wrap(Serialize() >> Reliable()))
            first = yield from endpoint.connect(server.address, **CONNECT)
            first.close()
            yield net.env.timeout(2e-3)
            yield from tier.revoke(toe.record_id)
            yield net.env.timeout(2e-3)
            endpoint = client_rt.new("x1", wrap(Serialize() >> Reliable()))
            second = yield from endpoint.connect(server.address, **CONNECT)
            second.close()
            return second

        second = drive(net, scenario())
        # Loss-free: the push always lands, so the entry was gone before
        # the second connect even looked (a miss, not a fallback).
        assert client_rt.negcache.invalidations >= 1
        assert server.runtime.negcache.invalidations >= 1
        assert client_rt.negcache.hits == 0
        assert toe.record_id not in {
            o.record_id for o in second.choice.values()
        }


class TestPipelinedPrimary:
    """The shard primary's serve loop dispatches (PROTOCOL.md §8.2): a
    mutation's replication round runs detached, and the log — not the
    loop — orders what is applied.  Requests are raw datagrams so the
    tests own ``req_id``, ``attempt`` and timing."""

    def setup_method(self):
        self.net, self.tier, _router = shard_world(shards=1)
        self.net.add_host(
            "srv", nic=SmartNic(self.net.env, name="srv.nic", offload_slots=4)
        )
        self.net.add_link("srv", "tor", latency=5e-6)
        self.record = self.tier.seed_record(ReliableToe.meta, location="srv")
        self.primary = self.tier.primary(0)
        self.socket = UdpSocket(self.net.entity("cli"))
        self.replies = []
        self.net.env.process(self._collect(), name="test.replies")

    def _collect(self):
        while True:
            dgram = yield self.socket.recv()
            self.replies.append(msgs.decode_message(dgram.payload))

    def _send(self, request, req_id, attempt=0):
        payload, size = msgs.encode_message_sized(
            request.stamped(req_id, attempt)
        )
        self.socket.send(payload, self.primary.address, size=size)

    def _warm(self, env):
        """One mutation end to end, so the group connection exists and
        the next round is a bare RSM round trip."""
        watch = msgs.Watch(
            record_id=self.record.record_id, address=self.socket.address
        )
        self._send(watch, "warm")
        yield env.timeout(20e-3)
        assert [r.KIND for r in self.replies] == ["disc.watch_reply"]
        self.replies.clear()

    def _reserve(self):
        return msgs.Reserve(record_id=self.record.record_id, owner="alice")

    def test_query_is_answered_during_a_replication_round(self):
        def scenario(env):
            yield from self._warm(env)
            self._send(self._reserve(), "t-1")
            yield env.timeout(5e-6)
            self._send(msgs.Query(types=["reliable"]), "t-2")
            yield env.timeout(5e-3)

        run(self.net.env, scenario(self.net.env))
        assert [(r.KIND, r.req_id) for r in self.replies] == [
            ("disc.query_reply", "t-2"),
            ("disc.reserve_reply", "t-1"),
        ]
        assert self.replies[1].ok

    def test_reserve_retransmitted_mid_round_applies_once(self):
        """One application per ``req_id``: the retransmission that lands
        mid-round is swallowed by the in-flight table, the one after it
        replays the cached verdict; the lease is taken once everywhere."""

        def scenario(env):
            yield from self._warm(env)
            self._send(self._reserve(), "t-1", attempt=0)
            yield env.timeout(20e-6)
            self._send(self._reserve(), "t-1", attempt=1)
            yield env.timeout(5e-3)
            mid_round = list(self.replies)
            self._send(self._reserve(), "t-1", attempt=2)
            yield env.timeout(5e-3)
            return mid_round

        mid_round = run(self.net.env, scenario(self.net.env))
        assert [(r.KIND, r.attempt) for r in mid_round] == [
            ("disc.reserve_reply", 0)
        ]
        assert [(r.KIND, r.attempt, r.ok) for r in self.replies] == [
            ("disc.reserve_reply", 0, True),
            ("disc.reserve_reply", 2, True),
        ]
        assert self.primary.responder.duplicates == 2
        for replica in self.tier.shards[0]:
            audit = replica.audit_leases()
            assert audit["ok"] and audit["leases"] == 1
            (lease,) = replica._leases.values()
            assert lease.count == 1
            assert replica.reservations_granted == 1

    def test_lease_check_is_answered_at_once_and_never_logged(self):
        """``disc.lease_check`` is a read: the primary answers it from
        local state — overtaking a mutation that is mid-round — and no
        replica applies anything for it."""
        assert msgs.LeaseCheck not in type(self.primary)._MUTATIONS
        check = msgs.LeaseCheck(record_id=self.record.record_id, owner="alice")

        def scenario(env):
            yield from self._warm(env)
            self._send(check, "c-0")  # before anyone reserved
            self._send(self._reserve(), "t-1")
            yield env.timeout(5e-3)
            applied = [r.rsm.applied for r in self.tier.shards[0]]
            self._send(self._reserve(), "t-2")
            yield env.timeout(5e-6)
            self._send(check, "c-1")
            yield env.timeout(5e-3)
            return applied

        applied = run(self.net.env, scenario(self.net.env))
        assert [(r.KIND, r.req_id, r.ok) for r in self.replies] == [
            ("disc.lease_check_reply", "c-0", False),
            ("disc.reserve_reply", "t-1", True),
            ("disc.lease_check_reply", "c-1", True),
            ("disc.reserve_reply", "t-2", True),
        ]
        assert self.primary.lease_checks == 2
        # Only t-2's reserve was logged after the snapshot.
        assert [r.rsm.applied for r in self.tier.shards[0]] == [
            count + 1 for count in applied
        ]

    def test_primary_crashed_mid_round_neither_replies_nor_caches(self):
        """Nothing is sent or cached by a handler that outlives
        ``crash()`` — though what it submitted is in the log, and the
        surviving replicas apply it."""

        def scenario(env):
            yield from self._warm(env)
            self._send(self._reserve(), "t-1")
            yield env.timeout(40e-6)  # landed, and mid-round
            assert set(self.primary.responder.inflight) == {("disc.reserve", "t-1")}
            self.primary.crash()
            yield env.timeout(20e-3)

        run(self.net.env, scenario(self.net.env))
        assert self.replies == []
        assert len(self.primary.responder.replies) == 0
        assert not self.primary.responder.inflight
        for standby in self.tier.shards[0][1:]:
            assert standby.audit_leases()["leases"] == 1
