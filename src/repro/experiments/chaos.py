"""Chaos experiment — the control plane under an adversarial network.

Every other experiment in this package runs on a perfect fabric; this one
attaches a :class:`repro.sim.FaultPlan` to every link and sweeps the drop
rate from 0 to 20% (plus constant duplication, reordering, and a
corruption rate that scales with loss).  The workload is the echo app with
``serialize >> reliable`` in the DAG, so the claim under test is the whole
stack's, not one layer's:

* **establishment always succeeds** — OFFER/ACCEPT retransmission plus the
  discovery client's capped exponential backoff ride out the loss, at the
  cost of extra control-plane round trips (reported per point);
* **zero application-message loss** — the reliability Chunnel's
  ack/retransmit absorbs every dropped, corrupted, or duplicated frame;
* **no double reservation** — the discovery service's request dedup cache
  keeps lease refcounts exact even though retransmitted ``disc.reserve``
  calls reach it (verified with
  :meth:`repro.discovery.service.DiscoveryService.audit_leases`);
* **clean degradation and recovery** — a separate segment crashes the
  discovery service mid-run: connections established during the outage
  come up degraded (fallback-only, ``DegradedEstablishmentWarning``) but
  *serve traffic*; connections after the restart are full-fidelity again.

The invariants are exposed as :attr:`ChaosResult.invariants` booleans (and
asserted by ``tests/experiments/test_chaos.py``); the CLI exits non-zero
when any fails, which is what CI's seed-1..8 chaos loop checks.
Everything is seeded: the same config produces the identical result
object.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

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
from ..discovery.client import RETRY_BACKOFF, RETRY_TIMEOUT
from ..errors import DegradedEstablishmentWarning, NegotiationError
from ..metrics import format_table, percentile
from ..sim import FaultPlan, Network, SmartNic
from ._plane import DiscoveryPlane, audits_ok
from ._result import ExperimentResult

__all__ = ["ChaosConfig", "ChaosPoint", "ChaosResult", "run_chaos"]

_US = 1e6

#: Constant nuisance faults applied at every sweep point.
DUPLICATE_RATE = 0.02
REORDER_RATE = 0.05
#: Corruption scales with loss (corrupt = loss * this factor) so the
#: 0%-loss point is a genuinely clean baseline.
CORRUPT_FACTOR = 0.25
PAYLOAD_SIZE = 64
#: Reliability Chunnel tuning: at 20% per-link loss a frame crosses two
#: links, so per-attempt delivery is ~0.64 and 12 retries push the
#: abandonment probability below 1e-5 per message.
RELIABLE_TIMEOUT = 150e-6
RELIABLE_MAX_RETRIES = 12
#: OFFER/ACCEPT retransmission budget (per connect).  The total
#: (timeout * retries) must cover the server's worst-case discovery
#: backoff chain — the listener replays its cached verdict to OFFER
#: retransmits, but only once the server-side reservation resolved.
NEGOTIATION_TIMEOUT = 2e-3
NEGOTIATION_RETRIES = 80
#: Discovery client retries (recorded in ``BENCH_chaos.json`` beside
#: the client's fixed first wait and backoff).
DISCOVERY_RETRIES = 8
#: Invariant bound on the slowest establishment (virtual seconds).
SETUP_BOUND = 0.5
#: The discovery-outage segment runs at this loss rate.
OUTAGE_LOSS = 0.05
#: Virtual-time budget per segment (the workload finishes far earlier;
#: this only bounds a hung run).
DEADLINE = 30.0


@dataclass
class ChaosConfig:
    """A loss sweep plus a discovery-outage segment, fully seeded."""

    loss_points: tuple = (0.0, 0.05, 0.10, 0.20)
    sessions: int = 8
    requests_per_session: int = 25
    seed: int = 7
    #: Discovery-plane shape (CLI ``--shards``/``--replicas-per-shard``).
    #: The single-service default keeps the recorded baseline
    #: byte-identical; ``shards > 1`` swaps in the RSM-replicated shard
    #: tier behind a router, so the same sweep — and the outage, which
    #: then crashes *every* replica at once — runs against the
    #: planet-scale control plane.
    shards: int = 1
    replicas_per_shard: int = 3

    @classmethod
    def smoke(cls, seed: int = 7) -> "ChaosConfig":
        """The CI tier: one 5%-loss point, small counts, outage included."""
        return cls(
            loss_points=(0.05,),
            sessions=3,
            requests_per_session=10,
            seed=seed,
        )


@dataclass
class ChaosPoint:
    """Measurements from one loss-rate point of the sweep.

    Every field is derived from the point's world-wide
    :class:`~repro.obs.MetricsSnapshot` (``metrics`` keeps the raw
    snapshot), not by reaching into simulator objects — the registry is
    the one measurement surface.
    """

    loss: float
    sessions: int
    established: int
    degraded: int
    offered: int
    completed: int
    setup_p50_us: float
    setup_p95_us: float
    setup_max_us: float
    rtt_p95_us: float
    discovery_round_trips: int
    discovery_retransmits: int
    reliability_retransmissions: int
    duplicate_requests: int
    fault_drops: int
    audit_ok: bool
    #: The full registry snapshot this point was derived from
    #: (metric name → value; canonical-JSON-able).
    metrics: dict = field(default_factory=dict, repr=False)


@dataclass
class ChaosResult(ExperimentResult):
    """The sweep rows, the outage segment, and the invariant verdicts."""

    NAME = "chaos"

    points: list[ChaosPoint]
    outage: dict
    config: ChaosConfig = field(repr=False)

    @property
    def invariants(self) -> dict[str, bool]:
        outage = self.outage
        return {
            "all_established": all(
                p.established == p.sessions for p in self.points
            ),
            "zero_app_loss": all(
                p.completed == p.offered for p in self.points
            ),
            "no_double_reservation": all(p.audit_ok for p in self.points),
            "bounded_setup": all(
                p.setup_max_us <= SETUP_BOUND * _US for p in self.points
            ),
            "outage_degraded_not_failed": bool(
                outage["degraded_established"] and outage["degraded_served"]
            ),
            "outage_recovered": bool(
                outage["recovered_full"] and outage["audit_ok"]
            ),
        }

    def rows(self) -> list[dict]:
        return [
            {
                "loss_pct": round(p.loss * 100, 1),
                "established": f"{p.established}/{p.sessions}",
                "degraded": p.degraded,
                "completed": f"{p.completed}/{p.offered}",
                "setup_p95_us": p.setup_p95_us,
                "rtt_p95_us": p.rtt_p95_us,
                "disc_retx": p.discovery_retransmits,
                "rel_retx": p.reliability_retransmissions,
                "fault_drops": p.fault_drops,
                "audit": "ok" if p.audit_ok else "BAD",
            }
            for p in self.points
        ]

    def render_body(self) -> list[str]:
        o = self.outage
        return [
            format_table(self.rows()),
            "",
            f"discovery outage @ {o['loss'] * 100:.0f}% loss: "
            f"degraded connect {'ok' if o['degraded_established'] else 'FAILED'} "
            f"(setup {o['degraded_setup_us']:.0f} us, "
            f"served {o['degraded_completed']}/{o['degraded_offered']}), "
            f"post-restart connect "
            f"{'full-fidelity' if o['recovered_full'] else 'STILL DEGRADED'}, "
            f"warnings={o['warnings']}",
        ]

    def baseline_body(self) -> dict:
        return {
            "discovery": {
                "timeout_s": RETRY_TIMEOUT,
                "retries": DISCOVERY_RETRIES,
                "backoff": RETRY_BACKOFF,
            },
            "points": [
                {
                    "loss": p.loss,
                    "setup_p50_us": round(p.setup_p50_us, 3),
                    "setup_p95_us": round(p.setup_p95_us, 3),
                    "rtt_p95_us": round(p.rtt_p95_us, 3),
                    "extra_round_trips": p.discovery_retransmits
                    + p.reliability_retransmissions,
                    "discovery_retransmits": p.discovery_retransmits,
                    "reliability_retransmissions": p.reliability_retransmissions,
                }
                for p in self.points
            ],
        }

    def metrics_body(self) -> dict:
        """Every segment's raw registry snapshot: one per sweep point plus
        the outage world."""
        return {
            "points": [
                {"loss": p.loss, "metrics": p.metrics} for p in self.points
            ],
            "outage": {
                "loss": self.outage["loss"],
                "metrics": self.outage["metrics"],
            },
        }


# --------------------------------------------------------------------------
# World building
# --------------------------------------------------------------------------
def _chaos_dag():
    return wrap(
        Serialize()
        >> Reliable(timeout=RELIABLE_TIMEOUT, max_retries=RELIABLE_MAX_RETRIES)
    )


def _build_world(config: ChaosConfig, loss: float, seed: int):
    """One echo server + one client host + discovery, faults on every link."""
    from ..apps.rpc import EchoServer

    net = Network()
    server_host = net.add_host(
        "srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4)
    )
    client_host = net.add_host("cl")
    plane = DiscoveryPlane(
        config.shards, config.replicas_per_shard, retries=DISCOVERY_RETRIES
    )
    plane.add_hosts(net)
    net.add_switch("tor")
    for name in ("srv", "cl"):
        net.add_link(name, "tor", latency=5e-6)
    plane.add_links(net, "tor", 5e-6)
    plan = FaultPlan(
        drop_rate=loss,
        duplicate_rate=DUPLICATE_RATE,
        reorder_rate=REORDER_RATE,
        corrupt_rate=loss * CORRUPT_FACTOR,
        seed=seed,
    )
    net.attach_faults_everywhere(plan)

    plane.build(net)
    # A contended NIC offload so the sweep exercises real reservations:
    # retransmitted disc.reserve calls hitting this record are what the
    # no-double-reservation invariant audits.
    plane.register(ReliableToe.meta, "srv")

    def _runtime(host, **kwargs):
        runtime = Runtime(host, discovery=plane.client(host), **kwargs)
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    # Pure priority order (the decision runs server-side): the NIC offload
    # outranks the software fallback, so every establishment exercises a
    # real disc.reserve — which is what the no-double-reservation
    # invariant audits.  The default client-first policy would never
    # touch the offload here because both processes link the fallback.
    server_rt = _runtime(server_host, policy=PriorityFirstPolicy())
    client_rt = _runtime(client_host)
    server = EchoServer(server_rt, port=7400, dag=_chaos_dag())
    return net, plane, server, server_rt, client_rt


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------
def _run_point(config: ChaosConfig, loss: float, index: int) -> ChaosPoint:
    seed = config.seed + 101 * (index + 1)
    net, _plane, server, server_rt, client_rt = _build_world(
        config, loss, seed
    )
    env = net.env
    payload = bytes(PAYLOAD_SIZE)
    # Workload-level instruments live in the same registry as everything
    # else; the driver charges them and the ChaosPoint below is derived
    # entirely from one world-wide snapshot.
    obs = net.obs
    established = obs.counter("experiment.established")
    completed = obs.counter("experiment.completed")
    setup_hist = obs.histogram("experiment.setup_seconds")
    rtt_hist = obs.histogram("experiment.rtt_seconds")

    def driver():
        for session in range(config.sessions):
            endpoint = client_rt.new(
                f"chaos-cl-{session}", _chaos_dag()
            )
            start = env.now
            try:
                conn = yield from endpoint.connect(
                    server.address,
                    timeout=NEGOTIATION_TIMEOUT,
                    retries=NEGOTIATION_RETRIES,
                )
            except NegotiationError:
                # Counted by omission: established < sessions fails the
                # all_established invariant without killing the sweep.
                continue
            setup_hist.observe(env.now - start)
            established.inc()
            for _request in range(config.requests_per_session):
                t0 = env.now
                conn.send(payload, size=len(payload))
                yield conn.recv()
                rtt_hist.observe(env.now - t0)
                completed.inc()
            conn.close()

    env.process(driver(), name="chaos.driver")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        env.run(until=DEADLINE)

    snap = net.obs.snapshot()
    setups = setup_hist.values
    rtts = rtt_hist.values
    offered = config.sessions * config.requests_per_session
    return ChaosPoint(
        loss=loss,
        sessions=config.sessions,
        established=int(snap.get("experiment.established")),
        degraded=int(snap.sum("runtime.", ".degraded_establishments")),
        offered=offered,
        completed=int(snap.get("experiment.completed")),
        setup_p50_us=percentile(setups, 50) * _US if setups else 0.0,
        setup_p95_us=percentile(setups, 95) * _US if setups else 0.0,
        setup_max_us=max(setups) * _US if setups else float("inf"),
        rtt_p95_us=percentile(rtts, 95) * _US if rtts else 0.0,
        discovery_round_trips=int(snap.sum("rpc.discovery.", ".round_trips")),
        discovery_retransmits=int(
            snap.sum("rpc.discovery.", ".retransmits_total")
        ),
        reliability_retransmissions=int(
            snap.sum("conn.", ".client.stack_retransmissions")
        ),
        duplicate_requests=int(snap.sum("discovery.", "duplicate_requests")),
        fault_drops=int(snap.get("net.fault_drops")),
        audit_ok=audits_ok(snap),
        metrics=snap.as_dict(),
    )


# --------------------------------------------------------------------------
# Discovery-outage segment
# --------------------------------------------------------------------------
def _run_outage(config: ChaosConfig) -> dict:
    seed = config.seed + 9001
    net, plane, server, server_rt, client_rt = _build_world(
        config, OUTAGE_LOSS, seed
    )
    env = net.env
    payload = bytes(PAYLOAD_SIZE)
    out = {
        "loss": OUTAGE_LOSS,
        "degraded_established": False,
        "degraded_setup_us": 0.0,
        "degraded_offered": config.requests_per_session,
        "degraded_completed": 0,
        "degraded_served": False,
        "recovered_full": False,
        "warnings": 0,
        "audit_ok": False,
    }

    def _session(tag, count):
        endpoint = client_rt.new(f"chaos-out-{tag}", _chaos_dag())
        start = env.now
        conn = yield from endpoint.connect(
            server.address,
            timeout=NEGOTIATION_TIMEOUT,
            retries=NEGOTIATION_RETRIES,
        )
        setup = env.now - start
        for _request in range(count):
            conn.send(payload, size=len(payload))
            yield conn.recv()
            if tag == "during":
                out["degraded_completed"] += 1
        degraded = conn.degraded
        conn.close()
        return conn, setup, degraded

    def driver():
        # Healthy baseline connection.
        yield from _session("before", 3)
        # Crash the plane (every replica): new establishments must
        # degrade, not fail.
        plane.crash()
        conn, setup, degraded = yield from _session(
            "during", config.requests_per_session
        )
        out["degraded_established"] = degraded
        out["degraded_setup_us"] = setup * _US
        out["degraded_served"] = (
            out["degraded_completed"] == out["degraded_offered"]
        )
        # Restart: the next connection negotiates at full fidelity.
        plane.restart()
        _conn, _setup, degraded_after = yield from _session("after", 3)
        out["recovered_full"] = not degraded_after

    env.process(driver(), name="chaos.outage")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegradedEstablishmentWarning)
        env.run(until=DEADLINE)
    out["warnings"] = sum(
        1
        for w in caught
        if issubclass(w.category, DegradedEstablishmentWarning)
    )
    snap = net.obs.snapshot()
    out["audit_ok"] = audits_ok(snap)
    out["metrics"] = snap.as_dict()
    return out


def run_chaos(config: Optional[ChaosConfig] = None) -> ChaosResult:
    config = config or ChaosConfig()
    points = [
        _run_point(config, loss, index)
        for index, loss in enumerate(config.loss_points)
    ]
    return ChaosResult(points=points, outage=_run_outage(config), config=config)
