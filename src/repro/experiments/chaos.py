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
from ..errors import DegradedEstablishmentWarning, NegotiationError
from ..metrics import format_table, percentile
from ..sim import FaultPlan, Network, SmartNic
from ._plane import DiscoveryPlane, audits_ok
from ._result import ExperimentResult

__all__ = ["ChaosConfig", "ChaosPoint", "ChaosResult", "run_chaos"]

_US = 1e6


@dataclass
class ChaosConfig:
    """A loss sweep plus a discovery-outage segment, fully seeded."""

    loss_points: tuple = (0.0, 0.05, 0.10, 0.20)
    #: Constant nuisance faults applied at every sweep point.
    duplicate_rate: float = 0.02
    reorder_rate: float = 0.05
    #: Corruption scales with loss (corrupt = loss * this factor) so the
    #: 0%-loss point is a genuinely clean baseline.
    corrupt_factor: float = 0.25
    sessions: int = 8
    requests_per_session: int = 25
    payload_size: int = 64
    seed: int = 7
    #: Reliability Chunnel tuning: at 20% per-link loss a frame crosses two
    #: links, so per-attempt delivery is ~0.64 and 12 retries push the
    #: abandonment probability below 1e-5 per message.
    reliable_timeout: float = 150e-6
    reliable_max_retries: int = 12
    #: OFFER/ACCEPT retransmission budget (per connect).  The total
    #: (timeout * retries) must cover the server's worst-case discovery
    #: backoff chain — the listener replays its cached verdict to OFFER
    #: retransmits, but only once the server-side reservation resolved.
    negotiation_timeout: float = 2e-3
    negotiation_retries: int = 80
    #: Discovery client tuning (recorded in ``BENCH_chaos.json``).
    discovery_timeout: float = 2e-3
    discovery_retries: int = 8
    discovery_backoff: float = 2.0
    #: Invariant bound on the slowest establishment (virtual seconds).
    setup_bound: float = 0.5
    #: Discovery-plane shape (CLI ``--shards``/``--replicas-per-shard``).
    #: The single-service default keeps the recorded baseline
    #: byte-identical; ``shards > 1`` swaps in the RSM-replicated shard
    #: tier behind a router, so the same sweep — and the outage, which
    #: then crashes *every* replica at once — runs against the
    #: planet-scale control plane.
    shards: int = 1
    replicas_per_shard: int = 3
    #: Discovery-outage segment: runs at this loss rate.
    run_outage: bool = True
    outage_loss: float = 0.05
    #: Virtual-time budget per segment (the driver finishes far earlier;
    #: this only bounds a hung run).
    deadline: float = 30.0

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
    outage: Optional[dict]
    config: ChaosConfig = field(repr=False)

    @property
    def invariants(self) -> dict[str, bool]:
        verdicts = {
            "all_established": all(
                p.established == p.sessions for p in self.points
            ),
            "zero_app_loss": all(
                p.completed == p.offered for p in self.points
            ),
            "no_double_reservation": all(p.audit_ok for p in self.points),
            "bounded_setup": all(
                p.setup_max_us <= self.config.setup_bound * _US
                for p in self.points
            ),
        }
        if self.outage is not None:
            verdicts["outage_degraded_not_failed"] = bool(
                self.outage["degraded_established"]
                and self.outage["degraded_served"]
            )
            verdicts["outage_recovered"] = bool(
                self.outage["recovered_full"] and self.outage["audit_ok"]
            )
        return verdicts

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
        lines = [
            format_table(
                self.rows(),
                columns=[
                    "loss_pct",
                    "established",
                    "degraded",
                    "completed",
                    "setup_p95_us",
                    "rtt_p95_us",
                    "disc_retx",
                    "rel_retx",
                    "fault_drops",
                    "audit",
                ],
            )
        ]
        if self.outage is not None:
            o = self.outage
            lines.append("")
            lines.append(
                f"discovery outage @ {o['loss'] * 100:.0f}% loss: "
                f"degraded connect {'ok' if o['degraded_established'] else 'FAILED'} "
                f"(setup {o['degraded_setup_us']:.0f} us, "
                f"served {o['degraded_completed']}/{o['degraded_offered']}), "
                f"post-restart connect "
                f"{'full-fidelity' if o['recovered_full'] else 'STILL DEGRADED'}, "
                f"warnings={o['warnings']}"
            )
        return lines

    def baseline_body(self) -> dict:
        return {
            "discovery": {
                "timeout_s": self.config.discovery_timeout,
                "retries": self.config.discovery_retries,
                "backoff": self.config.discovery_backoff,
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
        body: dict = {
            "points": [
                {"loss": p.loss, "metrics": p.metrics} for p in self.points
            ],
        }
        if self.outage is not None:
            body["outage"] = {
                "loss": self.outage["loss"],
                "metrics": self.outage.get("metrics", {}),
            }
        return body


# --------------------------------------------------------------------------
# World building
# --------------------------------------------------------------------------
def _chaos_dag(config: ChaosConfig):
    return wrap(
        Serialize()
        >> Reliable(
            timeout=config.reliable_timeout,
            max_retries=config.reliable_max_retries,
        )
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
        config.shards,
        config.replicas_per_shard,
        timeout=config.discovery_timeout,
        retries=config.discovery_retries,
        backoff=config.discovery_backoff,
    )
    plane.add_hosts(net)
    net.add_switch("tor")
    for name in ("srv", "cl"):
        net.add_link(name, "tor", latency=5e-6)
    plane.add_links(net, "tor", 5e-6)
    plan = FaultPlan(
        drop_rate=loss,
        duplicate_rate=config.duplicate_rate,
        reorder_rate=config.reorder_rate,
        corrupt_rate=loss * config.corrupt_factor,
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
    server = EchoServer(server_rt, port=7400, dag=_chaos_dag(config))
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
    payload = bytes(config.payload_size)
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
                f"chaos-cl-{session}", _chaos_dag(config)
            )
            start = env.now
            try:
                conn = yield from endpoint.connect(
                    server.address,
                    timeout=config.negotiation_timeout,
                    retries=config.negotiation_retries,
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
        env.run(until=config.deadline)

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
        config, config.outage_loss, seed
    )
    env = net.env
    payload = bytes(config.payload_size)
    out = {
        "loss": config.outage_loss,
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
        endpoint = client_rt.new(f"chaos-out-{tag}", _chaos_dag(config))
        start = env.now
        conn = yield from endpoint.connect(
            server.address,
            timeout=config.negotiation_timeout,
            retries=config.negotiation_retries,
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
        env.run(until=config.deadline)
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
    outage = _run_outage(config) if config.run_outage else None
    return ChaosResult(points=points, outage=outage, config=config)
