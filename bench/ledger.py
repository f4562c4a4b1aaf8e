"""Ledger source (III): counts and virtual spans, read after a repeat.

Everything here comes from the reference world's registry snapshot
(``net.obs``), its trace log (``net.trace``) and the public counters of its
stations and switch programs -- exact for a seed, and free while the run is
in progress because the registry is pull-based.  ``ops`` is the number of ops
the reference world completed (the reference rung's, for a ladder).
"""

from __future__ import annotations

import statistics

from .outcome import Outcome

__all__ = ["counts"]

_US = 1e6

def _programs(net):
    """Every installed packet program: switches, SmartNICs, kernel hooks."""
    for switch in net.switches.values():
        yield from switch.programs
    for host in net.hosts.values():
        yield from host.kernel_programs
        if host.smartnic is not None:
            yield from host.smartnic.programs


def _span_p50_us(net, phase: str, status: str = "ok", client_side: bool = False) -> float:
    """Median duration of the phase's spans that took virtual time (the
    trace also holds same-phase instants, e.g. a server's adoption record)."""
    durations = [
        span.duration
        for span in net.trace.spans
        if span.phase == phase
        and span.duration
        and span.status == status
        # Both ends of a resume record a span; the client's names its target.
        and (not client_side or "target" in span.attrs)
    ]
    return statistics.median(durations) * _US if durations else 0.0


def counts(outcome: Outcome) -> tuple[dict, dict]:
    """``(metrics, notes)`` for a sealed outcome's reference world."""
    net = outcome.reference
    snap = outcome.snapshots[outcome.worlds.index(net)]
    ops = max(outcome.reference_ops, 1)

    def total(prefix: str, suffix: str = "") -> float:
        return snap.sum(prefix, suffix)

    nic_stations = {
        f"{name}.nic.rx": host.nic.rx_station for name, host in net.hosts.items()
    }
    program_stations = {
        program.name: program.station
        for program in _programs(net)
        if program.station is not None
    }
    stations = {**nic_stations, **program_stations}
    busiest = max(stations, key=lambda name: stations[name].mean_wait)

    reader = next(
        (p for p in _programs(net) if p.name.endswith("/read") and hasattr(p, "state")),
        None,
    )
    writer = next(
        (p for p in _programs(net) if p.name.endswith("/write") and p.station),
        None,
    )
    lookups = (reader.state.hits + reader.state.misses) if reader else 0

    cache_hits = total("negcache.", ".hits")
    cache_lookups = cache_hits + total("negcache.", ".misses")
    evaluated = total("faults.", ".evaluated")
    queries = total("discovery.", "queries_served")
    # A client's migrate span runs from suspicion to commit: the blackout.
    # (The servers' adoption records are instants.)
    blackouts = [
        span.duration
        for span in net.trace.spans
        if span.phase == "migrate" and span.duration
    ]

    metrics = {
        "sim.eventloop.events_per_op": net.env.dispatched / ops,
        "sim.network.dgrams_per_op": snap.get("net.delivered") / ops,
        "sim.network.drops_per_op": total("net.dropped.") / ops,
        "sim.faults.dropped_ratio": (
            total("faults.", ".dropped") / evaluated if evaluated else 0.0
        ),
        "sim.resources.nic_rx_jobs_per_op": (
            sum(s.jobs_served for s in nic_stations.values()) / ops
        ),
        "sim.resources.station_jobs_per_op": (
            sum(s.jobs_served for s in program_stations.values()) / ops
        ),
        "sim.resources.station_wait_us_mean": stations[busiest].mean_wait * _US,
        "sim.pcie.crossings_per_op": total("pcie.", ".crossings") / ops,
        "core.rpc.round_trips_per_op": total("rpc.", ".round_trips") / ops,
        "core.rpc.retransmits_per_op": total("rpc.", ".retransmits_total") / ops,
        "core.runtime.negotiate_us_p50": _span_p50_us(net, "negotiate"),
        "core.negotiation.reserve_us_p50": _span_p50_us(net, "reserve"),
        "core.runtime.resume_us_p50": _span_p50_us(net, "resume", client_side=True),
        # Establishment itself is instantaneous on the virtual clock (its
        # spans are instants), so the ledger counts it instead of timing it.
        "core.establish.establishes_per_op": (
            sum(span.phase == "establish" for span in net.trace.spans) / ops
        ),
        "core.negcache.hit_ratio": (
            cache_hits / cache_lookups if cache_lookups else 0.0
        ),
        "discovery.queries_per_op": queries / ops,
        # Everything a discovery service handled that was not a query:
        # reserve, release, watch and name mutations (RSM-logged on the
        # shard tier, whose replicas each count the op once).
        "discovery.mutations_per_op": (
            (total("discovery.", "requests_served") - queries) / ops
        ),
        "discovery.rsm.gaps_total": sum(
            value
            for name, value in snap.items()
            if name.startswith("rsm.") and name.count(".") == 2
            and name.endswith(".gaps_total")
        ),
        "chunnels.reliability.retransmissions_per_op": (
            total("conn.", ".stack_retransmissions") / ops
        ),
        "chunnels.offload.kvcache_hit_ratio": (
            reader.state.hits / lookups if lookups else 0.0
        ),
        "chunnels.offload.write_station_wait_us_mean": (
            writer.station.mean_wait * _US if writer else 0.0
        ),
        "core.failover.migrations": total("failover.", ".migrations_total"),
        "core.failover.blackout_us_p50": (
            statistics.median(blackouts) * _US if blackouts else 0.0
        ),
        "core.failover.blackout_us_max": max(
            (
                value
                for name, value in snap.items()
                if name.startswith("failover.")
                and name.endswith(".blackout_seconds.max")
            ),
            default=0.0,
        )
        * _US,
        "reconfig.transitions_committed": total(
            "reconfig.", ".transitions_committed"
        ),
        "reconfig.transition_us_p50": _span_p50_us(
            net, "reconfig", status="committed"
        ),
    }
    notes = {
        "busiest_station": busiest,
        "ops_in_reference_world": ops,
        "spans": len(net.trace.spans),
    }
    return metrics, notes
