"""Fleet experiment — planet-scale discovery under establishment load.

The sharded discovery tier (PROTOCOL.md §8) exists so that Bertha's
per-connection control plane survives cluster scale: thousands of client
hosts, tens of services, and ~10^5 connection establishments must not
funnel through one registry process.  This experiment builds that world
and drives it end to end:

* a two-tier topology — ``racks`` top-of-rack switches under one spine,
  ``clients_per_rack`` client hosts and a couple of echo servers per
  rack, plus a control rack holding the shard replicas and the shard
  router;
* a :class:`~repro.discovery.DiscoveryShardTier` of ``shards ×
  replicas_per_shard`` RSM-replicated registry replicas, fronted by a
  :class:`~repro.discovery.ShardRouter` whose monitor probes primaries
  and drives failover;
* every runtime (client and server) resolves through a
  :class:`~repro.discovery.ShardedDiscoveryClient`, with the negotiation
  cache on, so the establishment mix is what production would see: cold
  negotiations populate the cache, the long tail rides one-RTT
  resumption;
* only ``smartnic_servers`` of the echo servers carry a SmartNIC with a
  registered TOE record — resource-bearing choices re-validate their
  reservation on every resume, software-only choices resume with zero
  discovery traffic, so per-shard load stays sublinear in establishments;
* open-loop Poisson arrivals assign each establishment a client
  (round-robin) and a service (scrambled-Zipfian popularity, the YCSB
  distribution), so a few services are hot and most are cold;
* at ``crash_at_fraction`` of the arrivals, the primary of the shard
  that owns the TOE records is crashed.  The router's monitor detects
  the silence, promotes the next standby (which already holds records,
  leases, and the watch table — they are in the replicated log), and
  republishes the map; clients refresh mid-operation and retry the one
  failed leg.  Recovery time (first missed probe → acknowledged promote)
  is reported;
* after failover, ``revocations`` TOE records are revoked *through the
  promoted primary* via the replicated log.  A final wave of connects to
  the affected services then verifies the planet-scale correctness
  claim: **zero lost revocations** — no live replica still holds a
  revoked record or a lease on one, and no establishment can reserve it
  (a resumed stale choice is rejected by the server's reservation
  re-validation, so even a lost push cannot resurrect a revoked record).

Reported: setup p50/p99, resume hit count and rate, per-shard discovery
load (``queries_served`` per shard — name hashing spreads every shard),
failover recovery time, degraded establishments, and RSM gap-recovery
NACKs.  ``BENCH_fleet.json`` pins the seed-7 numbers; everything is
seeded and virtual-time, so two same-seed runs produce byte-identical
``--metrics-out`` documents (CI diffs two ``all --smoke`` passes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

from ..apps.rsm import QuorumError
from ..chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from ..core import Runtime
from ..core.dag import wrap
from ..core.policy import PriorityFirstPolicy
from ..discovery import DiscoveryShardTier, ShardRouter, ShardedDiscoveryClient
from ..errors import DegradedEstablishmentWarning, NegotiationError
from ..metrics import format_table, percentile
from ..sim import Network, SmartNic
from ..workloads.arrivals import PoissonArrivals
from ..workloads.zipf import ScrambledZipfianChooser
from ._result import ExperimentResult

__all__ = ["FleetConfig", "FleetResult", "run_fleet"]

_US = 1e6
_MS = 1e3

#: Service popularity: scrambled Zipfian over the server list.
ZIPF_THETA = 0.99
PAYLOAD_SIZE = 64
#: Negotiation cache on every runtime (clients resume; servers hold
#: the verdicts the resumes are validated against).
CACHE_SIZE = 128
NEGOTIATION_TIMEOUT = 2e-3
NEGOTIATION_RETRIES = 80
#: Sharded discovery client tuning (tight first timeout, so a dead
#: primary is noticed quickly and the one-failover-retry path
#: engages; enough retries to ride out queueing at a busy primary).
DISCOVERY_TIMEOUT = 1e-3
DISCOVERY_RETRIES = 6
#: Router failure detector.  The probe timeout must ride out the
#: primary's serve-loop stalls (each mutation holds the loop for a
#: replicated-log round, and they burst): 1 ms probes against a busy
#: TOE shard read as dozens of spurious failovers per run.
PROBE_TIMEOUT = 4e-3
#: Crash the TOE shard's primary this far into the arrival schedule.
CRASH_AT_FRACTION = 0.4
#: Quiet period after the storm / the wave, for pushes and releases.
SETTLE = 30e-3
#: Server-side idle reaper (a client close is silent on the wire).
IDLE_CLOSE = 20e-3
OFFLOAD_SLOTS = 8
RACK_LATENCY = 5e-6
SPINE_LATENCY = 10e-6
#: Invariant bounds.
SETUP_P99_BOUND = 0.25
FAILOVER_BOUND = 0.05
#: Virtual-time budget (the workload finishes far earlier).
DEADLINE = 120.0


@dataclass
class FleetConfig:
    """A fleet-scale establishment run, fully seeded."""

    #: Discovery tier shape.
    shards: int = 4
    replicas_per_shard: int = 3
    #: Topology shape: ``racks`` ToR switches, each holding
    #: ``clients_per_rack`` client hosts and ``servers / racks`` servers.
    racks: int = 32
    clients_per_rack: int = 64
    servers: int = 64
    #: How many servers carry a SmartNIC with a registered TOE record
    #: (spread evenly across the server list).
    smartnic_servers: int = 8
    #: Open-loop establishment count and Poisson arrival rate (per
    #: virtual second) — 10^5 at 10^4/s is a ten-second storm.  The rate
    #: is sized against the TOE shard's mutation throughput: every
    #: ``reliable``-type record hashes to one shard, whose primary
    #: proposes each mutation to the RSM log, and the SmartNIC share of
    #: establishments carries reserve+release (and resume re-validation)
    #: traffic there.
    establishments: int = 100_000
    arrival_rate: float = 10_000.0
    seed: int = 7
    #: TOE records revoked through the promoted primary after failover.
    revocations: int = 4
    #: Post-revocation verification connects against affected services.
    final_wave: int = 200
    #: Trace spans kept before counting drops (keeps tracing O(1)).
    trace_limit: int = 10_000

    @classmethod
    def smoke(cls, seed: int = 7) -> "FleetConfig":
        """The CI tier: the same shape, shrunk to run in seconds."""
        return cls(
            shards=2,
            racks=4,
            clients_per_rack=6,
            servers=8,
            smartnic_servers=2,
            establishments=300,
            # Scaled with the server count (8 vs 64) so the per-server
            # offered load matches the full tier.
            arrival_rate=1_250.0,
            revocations=1,
            final_wave=30,
            trace_limit=2_000,
            seed=seed,
        )

    def validate(self) -> None:
        if self.servers % self.racks:
            raise ValueError("servers must divide evenly across racks")
        if self.smartnic_servers > self.servers:
            raise ValueError("more SmartNIC servers than servers")
        if self.revocations > self.smartnic_servers:
            raise ValueError("more revocations than TOE records")


@dataclass
class FleetResult(ExperimentResult):
    """One fleet run's measurements plus the invariant verdicts."""

    NAME = "fleet"

    config: FleetConfig = field(repr=False)
    establishments: int = 0
    established: int = 0
    completed: int = 0
    failures: int = 0
    degraded: int = 0
    setup_p50_us: float = 0.0
    setup_p99_us: float = 0.0
    setup_max_us: float = 0.0
    resume_hits: int = 0
    resume_hit_rate: float = 0.0
    negcache_invalidations: int = 0
    per_shard_queries: list = field(default_factory=list)
    rsm_gap_nacks: int = 0
    failovers: int = 0
    failovers_failed: int = 0
    failover_recovery_ms: float = 0.0
    revoked: int = 0
    revoke_failures: int = 0
    lost_revocations: int = 0
    final_wave: int = 0
    final_established: int = 0
    trace_spans_dropped: int = 0
    #: The full registry snapshot this result was derived from.
    metrics: dict = field(default_factory=dict, repr=False)

    @property
    def invariants(self) -> dict:
        return {
            "all_established": (
                self.failures == 0
                and self.established == self.establishments
            ),
            "zero_app_loss": self.completed == self.established,
            "bounded_setup_p99": (
                self.setup_p99_us <= SETUP_P99_BOUND * _US
            ),
            "failover_recovered": (
                self.failovers >= 1
                and self.failovers_failed == 0
                and self.failover_recovery_ms <= FAILOVER_BOUND * _MS
            ),
            "zero_lost_revocations": (
                self.revoked == self.config.revocations
                and self.revoke_failures == 0
                and self.lost_revocations == 0
            ),
            "all_shards_loaded": bool(self.per_shard_queries)
            and all(q > 0 for q in self.per_shard_queries),
            "resume_effective": self.resume_hits > 0,
            "final_wave_clean": self.final_established == self.final_wave,
        }

    def rows(self) -> list:
        return [
            {
                "shard": f"s{shard_id}",
                "queries_served": queries,
                "share_pct": round(
                    100.0 * queries / max(1, sum(self.per_shard_queries)), 1
                ),
            }
            for shard_id, queries in enumerate(self.per_shard_queries)
        ]

    def render_body(self) -> list[str]:
        return [
            (
                f"established {self.established}/{self.establishments} "
                f"({self.degraded} degraded, {self.failures} failed), "
                f"completed {self.completed}"
            ),
            (
                f"setup p50 {self.setup_p50_us:.1f} us, "
                f"p99 {self.setup_p99_us:.1f} us, "
                f"max {self.setup_max_us / 1e3:.2f} ms"
            ),
            (
                f"resume hits {self.resume_hits} "
                f"({self.resume_hit_rate * 100:.1f}% of establishments), "
                f"invalidations {self.negcache_invalidations}"
            ),
            (
                f"failover: {self.failovers} "
                f"(recovery {self.failover_recovery_ms:.2f} ms); "
                f"revocations {self.revoked}, lost {self.lost_revocations}; "
                f"final wave {self.final_established}/{self.final_wave}"
            ),
            f"rsm gap-recovery NACKs {self.rsm_gap_nacks}, "
            f"trace spans dropped {self.trace_spans_dropped}",
            "",
            format_table(self.rows()),
        ]

    def baseline_body(self) -> dict:
        return {
            "scale": {
                "shards": self.config.shards,
                "replicas_per_shard": self.config.replicas_per_shard,
                "client_hosts": self.config.racks
                * self.config.clients_per_rack,
                "servers": self.config.servers,
                "establishments": self.config.establishments,
            },
            "established": self.established,
            "degraded": self.degraded,
            "setup_p50_us": round(self.setup_p50_us, 3),
            "setup_p99_us": round(self.setup_p99_us, 3),
            "resume_hit_rate": round(self.resume_hit_rate, 4),
            "per_shard_queries": list(self.per_shard_queries),
            "failover_recovery_ms": round(self.failover_recovery_ms, 3),
            "revocations": self.revoked,
            "lost_revocations": self.lost_revocations,
        }

    def metrics_body(self) -> dict:
        """The raw registry snapshot."""
        return {"fleet": self.metrics}


# --------------------------------------------------------------------------
# World building
# --------------------------------------------------------------------------
def _fleet_dag():
    return wrap(Serialize() >> Reliable())


def _build_world(config: FleetConfig):
    """The two-tier fleet topology plus the sharded discovery tier."""
    from ..apps.rpc import EchoServer

    net = Network()
    net.trace.limit = config.trace_limit
    net.add_switch("spine")
    # Control rack: shard replicas + router.
    net.add_switch("ctl")
    net.add_link("ctl", "spine", latency=SPINE_LATENCY)
    shard_hosts = []
    for shard_id in range(config.shards):
        hosts = []
        for index in range(config.replicas_per_shard):
            name = f"disc-s{shard_id}r{index}"
            net.add_host(name)
            net.add_link(name, "ctl", latency=RACK_LATENCY)
            hosts.append(name)
        shard_hosts.append(hosts)
    net.add_host("rtr")
    net.add_link("rtr", "ctl", latency=RACK_LATENCY)

    # Data racks: clients and servers.
    servers_per_rack = config.servers // config.racks
    nic_indices = {
        i * config.servers // config.smartnic_servers
        for i in range(config.smartnic_servers)
    }
    client_names: list = []
    server_names: list = []
    for rack in range(config.racks):
        rack_switch = f"rack{rack:03d}"
        net.add_switch(rack_switch)
        net.add_link(rack_switch, "spine", latency=SPINE_LATENCY)
        for client in range(config.clients_per_rack):
            name = f"cl{rack:03d}x{client:03d}"
            net.add_host(name)
            net.add_link(name, rack_switch, latency=RACK_LATENCY)
            client_names.append(name)
        for slot in range(servers_per_rack):
            index = rack * servers_per_rack + slot
            name = f"sv{index:03d}"
            nic = (
                SmartNic(net.env, name=f"{name}.nic", offload_slots=OFFLOAD_SLOTS)
                if index in nic_indices
                else None
            )
            net.add_host(name, nic=nic)
            net.add_link(name, rack_switch, latency=RACK_LATENCY)
            server_names.append(name)

    tier = DiscoveryShardTier(net, shard_hosts)
    router = ShardRouter(net.entity("rtr"), tier.map, probe_timeout=PROBE_TIMEOUT)
    toe_records = [
        tier.seed_record(ReliableToe.meta, location=server_names[index])
        for index in sorted(nic_indices)
    ]

    def _runtime(host_name, **kwargs):
        host = net.hosts[host_name]
        discovery = ShardedDiscoveryClient(
            host,
            router.address,
            timeout=DISCOVERY_TIMEOUT,
            retries=DISCOVERY_RETRIES,
        )
        runtime = Runtime(
            host,
            discovery=discovery,
            negotiation_cache_size=CACHE_SIZE,
            ephemeral_connections=True,
            **kwargs,
        )
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    # Pure priority order server-side so the SmartNIC servers actually
    # exercise reservations (and their resumes the re-validation path).
    servers = [
        EchoServer(
            _runtime(name, policy=PriorityFirstPolicy()),
            port=7500,
            dag=_fleet_dag(),
            service_name=f"svc-{index:03d}",
            name=f"echo-{name}",
            idle_close=IDLE_CLOSE,
        )
        for index, name in enumerate(server_names)
    ]
    client_runtimes = [_runtime(name) for name in client_names]
    return net, tier, router, servers, client_runtimes, toe_records, server_names


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------
def run_fleet(config: Optional[FleetConfig] = None) -> FleetResult:
    config = config or FleetConfig()
    config.validate()
    (
        net,
        tier,
        router,
        servers,
        client_runtimes,
        toe_records,
        server_names,
    ) = _build_world(config)
    env = net.env
    obs = net.obs
    payload = bytes(PAYLOAD_SIZE)
    established = obs.counter("experiment.established")
    completed = obs.counter("experiment.completed")
    failures = obs.counter("experiment.failures")
    final_established = obs.counter("experiment.final_established")
    setup_hist = obs.histogram("experiment.setup_seconds")

    arrivals = PoissonArrivals(config.arrival_rate, seed=config.seed)
    chooser = ScrambledZipfianChooser(
        config.servers, theta=ZIPF_THETA, seed=config.seed + 1
    )
    # Crash the shard that owns the TOE records: failover and the
    # post-failover revocations then flow through the same promoted
    # primary — the correctness path under test.
    crash_shard = tier.map.shard_for_type(ReliableToe.meta.chunnel_type)
    crash_index = int(config.establishments * CRASH_AT_FRACTION)
    state = {
        "crashed_at": None,
        "revoked": [],
        "revoke_failures": 0,
        "lost_revocations": 0,
        "outstanding": 0,
        "spawning": True,
    }
    done = env.event()

    def _maybe_done():
        if (
            not state["spawning"]
            and state["outstanding"] == 0
            and not done.triggered
        ):
            done.succeed(None)

    def _session(index, runtime, service):
        endpoint = runtime.new(f"fl{index}", _fleet_dag())
        start = env.now
        try:
            conn = yield from endpoint.connect(
                service,
                timeout=NEGOTIATION_TIMEOUT,
                retries=NEGOTIATION_RETRIES,
            )
        except NegotiationError:
            failures.inc()
        else:
            setup_hist.observe(env.now - start)
            established.inc()
            conn.send(payload, size=len(payload))
            yield conn.recv()
            completed.inc()
            conn.close()
        state["outstanding"] -= 1
        _maybe_done()

    def _spawner():
        for index in range(config.establishments):
            yield env.timeout(arrivals.next_gap())
            if index == crash_index:
                tier.crash_primary(crash_shard)
                state["crashed_at"] = env.now
            state["outstanding"] += 1
            env.process(
                _session(
                    index,
                    client_runtimes[index % len(client_runtimes)],
                    f"svc-{chooser.next_index():03d}",
                ),
                name=f"fleet.s{index}",
            )
        state["spawning"] = False
        _maybe_done()

    def _revoker():
        # Wait for the failover so the revocations exercise the promoted
        # primary's push path (the revocation itself only needs quorum).
        while state["crashed_at"] is None or (
            router.failovers < 1
            and env.now - state["crashed_at"] < 0.5
        ):
            yield env.timeout(1e-3)
        for record in toe_records[: config.revocations]:
            try:
                yield from tier.revoke(record.record_id)
            except QuorumError:
                state["revoke_failures"] += 1
            else:
                state["revoked"].append(record)

    def _discovery_converged():
        """Readiness barrier: hold the arrival schedule until every
        service name resolves.  Server name registrations travel through
        the replicated log, so the first arrivals of an unthrottled
        schedule would race them and fail with "no registered instances"
        — a deployment-ordering artifact, not the establishment behavior
        under test."""
        prober = client_runtimes[0].discovery
        for index in range(config.servers):
            name = f"svc-{index:03d}"
            while True:
                result = yield from prober.query([], service_name=name)
                if result.instances:
                    break
                yield env.timeout(1e-3)

    def _driver():
        router.start_monitor()
        yield from _discovery_converged()
        env.process(_spawner(), name="fleet.spawner")
        revoker = env.process(_revoker(), name="fleet.revoker")
        yield done
        if revoker.is_alive:
            yield revoker
        yield env.timeout(SETTLE)
        # Final wave: connect to the revoked records' services and let
        # the servers prove the record is gone — a stale resumed choice
        # is rejected by reservation re-validation, a fresh query no
        # longer sees the record.
        wave_targets = sorted(
            f"svc-{server_names.index(record.location):03d}"
            for record in state["revoked"]
        )
        for index in range(config.final_wave):
            runtime = client_runtimes[(index * 7) % len(client_runtimes)]
            endpoint = runtime.new(f"flw{index}", _fleet_dag())
            try:
                conn = yield from endpoint.connect(
                    wave_targets[index % len(wave_targets)],
                    timeout=NEGOTIATION_TIMEOUT,
                    retries=NEGOTIATION_RETRIES,
                )
            except NegotiationError:
                continue
            final_established.inc()
            conn.send(payload, size=len(payload))
            yield conn.recv()
            conn.close()
        yield env.timeout(SETTLE)
        # Zero-lost-revocations audit: no live replica of the owning
        # shard may still hold a revoked record or a lease on one.
        lost = 0
        for record in state["revoked"]:
            shard_id = tier.map.shard_for_record(record.record_id)
            for replica in tier.shards[shard_id]:
                if replica.down:
                    continue
                if record.record_id in replica._records or any(
                    key[0] == record.record_id for key in replica._leases
                ):
                    lost += 1
        state["lost_revocations"] = lost
        router.stop()
        tier.close()
        for server in servers:
            server.close()

    env.process(_driver(), name="fleet.driver")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        env.run(until=DEADLINE)

    snap = obs.snapshot()
    setups = setup_hist.values
    established_total = int(snap.get("experiment.established"))
    resume_hits = int(snap.sum("negcache.", ".hits"))
    return FleetResult(
        config=config,
        establishments=config.establishments,
        established=established_total,
        completed=int(snap.get("experiment.completed")),
        failures=int(snap.get("experiment.failures")),
        degraded=int(snap.sum("runtime.", ".degraded_establishments")),
        setup_p50_us=percentile(setups, 50) * _US if setups else 0.0,
        setup_p99_us=percentile(setups, 99) * _US if setups else 0.0,
        setup_max_us=max(setups) * _US if setups else float("inf"),
        resume_hits=resume_hits,
        resume_hit_rate=(
            resume_hits / established_total if established_total else 0.0
        ),
        negcache_invalidations=int(snap.sum("negcache.", ".invalidations")),
        per_shard_queries=[
            int(snap.sum(f"discovery.s{shard_id}.", ".queries_served"))
            for shard_id in range(config.shards)
        ],
        rsm_gap_nacks=int(snap.sum("rsm.", ".gaps_total")),
        failovers=int(snap.get("router.failovers")),
        failovers_failed=int(snap.get("router.failovers_failed")),
        failover_recovery_ms=float(snap.get("router.failover_last_s")) * _MS,
        revoked=len(state["revoked"]),
        revoke_failures=state["revoke_failures"],
        lost_revocations=state["lost_revocations"],
        final_wave=config.final_wave,
        final_established=int(snap.get("experiment.final_established")),
        trace_spans_dropped=net.trace.dropped,
        metrics=snap.as_dict(),
    )
