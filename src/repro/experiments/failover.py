"""Failover experiment — mid-connection survivability under host crashes.

Eight long-lived connections stream Zipf-distributed echo requests at a
replicated service ("flow", two instances) while the chaos controller
kills serving hosts mid-flight:

* **crash the primary** (every connection established to it): each
  client's liveness watcher suspects the peer, tag-evicts its cached
  negotiation results, re-resolves through the sharded discovery tier,
  renegotiates to the standby (the first connection per client entity
  pays a full offer/accept; its siblings take the one-RTT resume herd
  path), rebinds under a migration epoch, and replays the frozen unacked
  window;
* **crash the standby too** (total service outage): with no candidate
  left the connections park degraded — sends buffer, windows stay
  frozen, probes continue toward the old peer;
* **restart the standby**: an answered probe resumes every parked
  connection in place.

Loss accounting is on the client→server data stream, the thing the
unacked-window replay protects: a request counts as delivered when the
serving application received it (post-dedup), and ``app_loss`` is
``offered`` minus the union of request ids received across all
instances — zero means every request reached the application that was
serving at the time, exactly once per instance.  Echo *responses* are
reported too (latency percentiles, recovery RTTs) but are not a loss
invariant: a reply from an instance that died microseconds later is
unrecoverable at the transport layer by design — resurrecting RPC
results needs app-level retry, not connection migration.

Blackout (suspicion → commit/resume, per migration or park episode) is
recorded per connection and reported as p50/p99/max; the recorded
expectation lives in ``BENCH_failover.json``.

Everything is seeded and virtual-time; two same-seed runs produce
byte-identical ``--metrics-out`` documents (CI diffs two
``all --smoke`` passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..chunnels import Reliable, ReliableFallback, Serialize, SerializeFallback
from ..core import Runtime
from ..core.dag import wrap
from ..core.failover import FailoverConfig as LivenessConfig
from ..metrics import format_table, percentile
from ..sim import ChaosController, Network
from ..sim.eventloop import Interrupt
from ..workloads import make_chooser
from ._plane import DiscoveryPlane
from ._result import ExperimentResult

__all__ = ["FailoverConfig", "FailoverResult", "run_failover"]

_US = 1e6
_MS = 1e3

#: Client hosts, and long-lived connections per client host.
CLIENTS = 2
CONNECTIONS_PER_CLIENT = 4
CONNECTIONS = CLIENTS * CONNECTIONS_PER_CLIENT
PAYLOAD_SIZE = 64
#: Global send cadence; each tick one connection (Zipf-chosen) sends.
SEND_INTERVAL = 50e-6
#: Negotiation-cache capacity (both sides) — the migration herd's
#: resume fast path rides it.
CACHE_SIZE = 64
#: End-to-end budget for each initial establishment (the connect
#: ``deadline=`` knob; relative seconds).
CONNECT_DEADLINE = 10e-3
#: Data-path reliability tuning: the retransmit budget must span the
#: longest outage so no message is abandoned mid-blackout.
REL_TIMEOUT = 400e-6
REL_RETRIES = 100
#: Timeline (virtual seconds, absolute).
ESTABLISH_AT = 2e-3
LOAD_START = 4e-3
CRASH_PRIMARY_AT = 15e-3
STANDBY_OUTAGE_AT = 35e-3
STANDBY_OUTAGE = 15e-3
LOAD_STOP = 60e-3
DEADLINE = 90e-3
#: Invariant bound on the per-episode blackout p99 (seconds).
BLACKOUT_BUDGET = 30e-3
#: The per-connection liveness tuning this world runs with.  Tighter than
#: the library defaults: the experiment's RTT is ~20us, so a
#: sub-millisecond probe cadence detects a crash in single-digit
#: milliseconds while eight consecutive silent windows still bound false
#: positives under loss.
LIVENESS = LivenessConfig(
    heartbeat_interval=250e-6,
    miss_threshold=5,
    min_rto=250e-6,
    max_rto=1.5e-3,
    migrate_timeout=1e-3,
    migrate_retries=8,
    connect_timeout=2e-3,
    connect_retries=8,
    migration_deadline=15e-3,
    park_retry_interval=1e-3,
)


@dataclass
class FailoverConfig:
    """A crash/migrate/park/resume timeline, fully seeded."""

    seed: int = 7
    #: Discovery-plane shape: the default exercises re-resolution through
    #: the sharded tier (``--shards``/``--replicas-per-shard`` override).
    shards: int = 2
    replicas_per_shard: int = 3

    @classmethod
    def smoke(cls, seed: int = 7) -> "FailoverConfig":
        """The CI tier — the default timeline is already sub-second."""
        return cls(seed=seed)


@dataclass
class FailoverResult(ExperimentResult):
    """One world's crash/migrate/park/resume measurements."""

    NAME = "failover"

    offered: int
    delivered: int
    duplicates: int
    responses: int
    migrations: int
    suspicions: int
    parked: int
    resumed: int
    migration_failures: int
    heartbeats: int
    blackout_p50_ms: float
    blackout_p99_ms: float
    blackout_max_ms: float
    rtt_p50_us: float
    rtt_p99_us: float
    #: The slowest request round trip — it spans the longest blackout.
    recovery_rtt_max_ms: float
    config: FailoverConfig = field(repr=False)
    metrics: dict = field(default_factory=dict, repr=False)

    @property
    def app_loss(self) -> int:
        return self.offered - self.delivered

    @property
    def invariants(self) -> dict[str, bool]:
        return {
            # The tentpole claim: every offered request reached a serving
            # application exactly once per instance, across two crashes
            # and a total outage.
            "zero_app_loss": self.app_loss == 0,
            "zero_duplicates": self.duplicates == 0,
            # Crash of the primary migrated every connection once.
            "all_migrated": self.migrations == CONNECTIONS,
            # Total outage parked every connection; the restart resumed
            # every one of them.
            "all_parked_and_resumed": (
                self.parked == CONNECTIONS
                and self.resumed == self.parked
            ),
            "bounded_blackout": (
                self.blackout_p99_ms <= BLACKOUT_BUDGET * _MS
            ),
        }

    def rows(self) -> list[dict]:
        return [
            {
                "offered": self.offered,
                "delivered": self.delivered,
                "app_loss": self.app_loss,
                "dups": self.duplicates,
                "migrations": self.migrations,
                "parked": self.parked,
                "resumed": self.resumed,
                "blackout_p99_ms": round(self.blackout_p99_ms, 3),
                "recovery_max_ms": round(self.recovery_rtt_max_ms, 3),
            }
        ]

    def render_body(self) -> list[str]:
        return [
            format_table(self.rows()),
            "",
            (
                f"blackout p50 {self.blackout_p50_ms:.3f} ms, "
                f"p99 {self.blackout_p99_ms:.3f} ms, "
                f"max {self.blackout_max_ms:.3f} ms over "
                f"{self.suspicions} suspicions; "
                f"steady-state rtt p50 {self.rtt_p50_us:.1f} us"
            ),
        ]

    def baseline_body(self) -> dict:
        return {
            "connections": CONNECTIONS,
            "offered": self.offered,
            "delivered": self.delivered,
            "app_loss": self.app_loss,
            "duplicates": self.duplicates,
            "responses": self.responses,
            "migrations_total": self.migrations,
            "parked_total": self.parked,
            "resumed_total": self.resumed,
            "blackout_p50_ms": round(self.blackout_p50_ms, 3),
            "blackout_p99_ms": round(self.blackout_p99_ms, 3),
            "blackout_max_ms": round(self.blackout_max_ms, 3),
            "rtt_p50_us": round(self.rtt_p50_us, 3),
            "rtt_p99_us": round(self.rtt_p99_us, 3),
            "recovery_rtt_max_ms": round(self.recovery_rtt_max_ms, 3),
        }

    def metrics_body(self) -> dict:
        """The raw registry snapshot plus derived loss accounting."""
        return {
            "app_loss": self.app_loss,
            "duplicates": self.duplicates,
            "migrations_total": self.migrations,
            "world": self.metrics,
        }


# --------------------------------------------------------------------------
# World building
# --------------------------------------------------------------------------
def _flow_dag():
    return wrap(Serialize() >> Reliable(timeout=REL_TIMEOUT, max_retries=REL_RETRIES))


class _FlowServer:
    """An echo server that records every request id it delivers.

    Post-dedup delivery counts are the experiment's ground truth: the
    union of ids across instances is what "delivered" means, and any id a
    single instance's application sees twice is a duplication failure.
    """

    def __init__(self, runtime: Runtime, dag, port: int):
        self.runtime = runtime
        self.endpoint = runtime.new("flow", dag)
        self.listener = self.endpoint.listen(port=port, service_name="flow")
        #: request id (payload bytes) → times the application received it.
        self.seen: dict[bytes, int] = {}
        runtime.env.process(self._accept_loop(), name=f"{runtime.entity.name}.accept")

    def _accept_loop(self):
        while True:
            conn = yield self.listener.accept()
            self.runtime.env.process(
                self._serve(conn), name=f"{self.runtime.entity.name}.serve"
            )

    def _serve(self, conn):
        while not conn.closed:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            key = bytes(msg.payload)
            self.seen[key] = self.seen.get(key, 0) + 1
            conn.send(msg.payload, size=msg.size, dst=msg.src)


def _build_world(config: FailoverConfig):
    net = Network()
    for index in range(2):
        net.add_host(f"srv{index}")
    client_hosts = [
        net.add_host(f"cl{index}") for index in range(CLIENTS)
    ]
    plane = DiscoveryPlane(config.shards, config.replicas_per_shard)
    plane.add_hosts(net)
    net.add_switch("tor")
    for index in range(2):
        net.add_link(f"srv{index}", "tor", latency=5e-6)
    for host in client_hosts:
        net.add_link(host.name, "tor", latency=5e-6)
    plane.add_links(net, "tor", 5e-6)
    plane.build(net)

    def _runtime(host, **kwargs):
        runtime = Runtime(
            host,
            discovery=plane.client(host),
            negotiation_cache_size=CACHE_SIZE,
            **kwargs,
        )
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    servers = [
        _FlowServer(
            _runtime(net.hosts[f"srv{index}"]),
            _flow_dag(),
            port=7400,
        )
        for index in range(2)
    ]
    client_rts = [
        _runtime(host, failover=LIVENESS) for host in client_hosts
    ]
    return net, servers, client_rts


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------
def run_failover(config: Optional[FailoverConfig] = None) -> FailoverResult:
    config = config or FailoverConfig()
    net, servers, client_rts = _build_world(config)
    env = net.env
    obs = net.obs
    chaos = ChaosController(net, seed=config.seed)
    chooser = make_chooser("zipfian", CONNECTIONS, config.seed)

    offered = obs.counter("experiment.offered")
    responses = obs.counter("experiment.responses")
    rtt_hist = obs.histogram("experiment.rtt_seconds")
    conns: list = []
    send_times: dict[bytes, float] = {}

    def receiver(conn):
        while True:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            sent_at = send_times.pop(bytes(msg.payload), None)
            if sent_at is not None:
                rtt_hist.observe(env.now - sent_at)
                responses.inc()

    def establish():
        yield env.timeout(ESTABLISH_AT)
        for client_index, runtime in enumerate(client_rts):
            for slot in range(CONNECTIONS_PER_CLIENT):
                endpoint = runtime.new(
                    f"flow-{client_index}-{slot}", _flow_dag()
                )
                conn = yield from endpoint.connect(
                    "flow", deadline=CONNECT_DEADLINE
                )
                conns.append(conn)
                env.process(
                    receiver(conn), name=f"{conn.conn_id}.receiver"
                )

    def load():
        yield env.timeout(LOAD_START)
        sequence = 0
        while env.now < LOAD_STOP:
            index = chooser.next_index()
            if index < len(conns):
                sequence += 1
                payload = f"{index}:{sequence}".encode()
                send_times[payload] = env.now
                conns[index].send(payload, size=PAYLOAD_SIZE)
                offered.inc()
            yield env.timeout(SEND_INTERVAL)

    env.process(establish(), name="failover.establish")
    env.process(load(), name="failover.load")
    chaos.crash_host("srv0", at=CRASH_PRIMARY_AT)
    chaos.host_outage("srv1", at=STANDBY_OUTAGE_AT, duration=STANDBY_OUTAGE)
    env.run(until=DEADLINE)

    id_union: set = set()
    duplicates = 0
    for server in servers:
        id_union |= set(server.seen)
        duplicates += sum(count - 1 for count in server.seen.values())
    managers = [rt.failover for rt in client_rts]
    blackouts: list[float] = []
    for manager in managers:
        blackouts.extend(manager.blackouts.values)
    rtts = rtt_hist.values
    snap = obs.snapshot()
    return FailoverResult(
        offered=int(snap.get("experiment.offered")),
        delivered=len(id_union),
        duplicates=duplicates,
        responses=int(snap.get("experiment.responses")),
        migrations=sum(m.migrations_total for m in managers),
        suspicions=sum(m.suspicions_total for m in managers),
        parked=sum(m.parked_total for m in managers),
        resumed=sum(m.resumed_total for m in managers),
        migration_failures=sum(m.migration_failures for m in managers),
        heartbeats=sum(m.heartbeats_sent for m in managers),
        blackout_p50_ms=(
            percentile(blackouts, 50) * _MS if blackouts else 0.0
        ),
        blackout_p99_ms=(
            percentile(blackouts, 99) * _MS if blackouts else 0.0
        ),
        blackout_max_ms=max(blackouts) * _MS if blackouts else 0.0,
        rtt_p50_us=percentile(rtts, 50) * _US if rtts else 0.0,
        rtt_p99_us=percentile(rtts, 99) * _US if rtts else 0.0,
        recovery_rtt_max_ms=max(rtts) * _MS if rtts else 0.0,
        config=config,
        metrics=snap.as_dict(),
    )
