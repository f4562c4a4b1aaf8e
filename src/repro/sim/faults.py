"""Network fault injection: lossy links, flaps, partitions, and chaos.

The rest of the simulator delivers every datagram perfectly, which means
the control plane's retransmission, deduplication, and degradation logic
would never run.  This module is the adversary:

``FaultPlan``
    Per-link fault configuration attachable to a :class:`~repro.sim.link.Link`
    (``Network.attach_faults``).  Injects probabilistic drop, duplication,
    reordering (bounded extra delay jitter), and payload corruption, all
    drawn from a private seeded RNG so runs are exactly reproducible.
    Corrupted frames are dropped by the destination NIC's checksum (the
    Ethernet-FCS model): above the link layer corruption manifests as loss,
    but the counters distinguish the cause.

``ChaosController``
    Scriptable process-level chaos on top of the link-level plans: crash and
    restart the discovery service or whole hosts mid-run, partition the
    topology into isolated islands and heal it, and flap individual links.
    Every action can be scheduled at a virtual time (``at``), so a chaos
    script is deterministic for a fixed seed and schedule.

Both layers only *remove or degrade* service; they never invent traffic, so
any invariant that holds under chaos (zero application-message loss with
reliability in the DAG, no double resource reservation, establishment
convergence) is a property of the protocols, not of a friendly network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import AddressError
from .datagram import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

__all__ = ["FaultPlan", "FaultDecision", "ChaosController", "ChaosEvent"]


@dataclass
class FaultDecision:
    """What one link crossing does to one datagram."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra_delay: float = 0.0


#: The no-fault outcome, shared across all plans — callers treat decisions
#: as read-only, so the overwhelmingly common "nothing happened" crossing
#: never allocates.
_NO_FAULTS = FaultDecision()


#: The bound on a reordered datagram's extra delay.
REORDER_MAX_DELAY = 200e-6


@dataclass
class FaultPlan:
    """Probabilistic per-link fault injection (seeded, deterministic).

    Parameters
    ----------
    drop_rate:
        Probability a crossing datagram vanishes.
    duplicate_rate:
        Probability the link delivers a second, independent copy.
    reorder_rate:
        Probability a datagram is held back by an extra delay drawn
        uniformly from ``(0, REORDER_MAX_DELAY]`` — enough to overtake
        later traffic, bounded so nothing is delayed forever.
    corrupt_rate:
        Probability the payload is garbled in flight.  The destination
        NIC's checksum discards corrupted frames, so corruption surfaces
        as loss with a distinct counter.
    seed:
        Private RNG seed; two plans with equal parameters and seeds make
        identical decisions in the same order.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    seed: int = 0
    # Counters (per plan, i.e. per link when attached one-to-one).
    evaluated: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)
    duplicated: int = field(default=0, init=False)
    reordered: int = field(default=0, init=False)
    corrupted: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self._rng = random.Random(self.seed)
        # Rates never change after construction (mutating a live plan would
        # desync its RNG stream from its counters), so benignity is computed
        # once — the delivery engine checks it on every link crossing.
        self._benign = not (
            self.drop_rate
            or self.duplicate_rate
            or self.reorder_rate
            or self.corrupt_rate
        )

    @property
    def is_benign(self) -> bool:
        """True when every fault rate is zero."""
        return self._benign

    def with_seed(self, seed: int) -> "FaultPlan":
        """A copy of this plan with its own RNG stream."""
        return FaultPlan(
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            corrupt_rate=self.corrupt_rate,
            seed=seed,
        )

    def decide(self, dgram: Datagram) -> FaultDecision:
        """One crossing's fate.  Draws are made in a fixed order so the
        decision stream depends only on the sequence of crossings."""
        self.evaluated += 1
        decision = None
        rng = self._rng
        if self.drop_rate and rng.random() < self.drop_rate:
            self.dropped += 1
            decision = FaultDecision()
            decision.drop = True
            return decision
        if self.corrupt_rate and rng.random() < self.corrupt_rate:
            self.corrupted += 1
            decision = FaultDecision()
            decision.corrupt = True
        if self.duplicate_rate and rng.random() < self.duplicate_rate:
            self.duplicated += 1
            if decision is None:
                decision = FaultDecision()
            decision.duplicate = True
        if self.reorder_rate and rng.random() < self.reorder_rate:
            self.reordered += 1
            if decision is None:
                decision = FaultDecision()
            decision.extra_delay = rng.uniform(0.0, REORDER_MAX_DELAY) or (
                REORDER_MAX_DELAY / 2
            )
        # Most crossings fault nothing: hand every one of those the same
        # read-only decision instead of a fresh dataclass.
        return decision if decision is not None else _NO_FAULTS


#: Header set on datagrams whose payload was garbled in flight; the
#: destination NIC's checksum check drops marked frames.
CORRUPT_HEADER = "x-fault-corrupted"


def clone_datagram(dgram: Datagram) -> Datagram:
    """An independent in-flight copy (fresh uid, copied headers/hops)."""
    copy = Datagram(
        src=dgram.src,
        dst=dgram.dst,
        payload=dgram.payload,
        size=dgram.size,
        headers=dict(dgram.headers),
    )
    copy.hops = list(dgram.hops)
    copy.sent_at = dgram.sent_at
    return copy


@dataclass
class ChaosEvent:
    """One controller action, for experiment timelines and debugging."""

    time: float
    action: str
    detail: str = ""


class ChaosController:
    """Scriptable crash/restart/partition chaos over a :class:`Network`.

    Every method acts immediately when ``at`` is None, or schedules the
    action at virtual time ``at`` (absolute).  Actions are recorded in
    :attr:`events` so experiments can overlay a chaos timeline on their
    measurements.
    """

    def __init__(self, network: "Network", seed: int = 0):
        self.network = network
        self.env = network.env
        self.rng = random.Random(seed)
        self.events: list[ChaosEvent] = []

    def _record(self, label: str, detail: str) -> None:
        self.events.append(ChaosEvent(self.env.now, label, detail))
        self.network.trace.event("chaos", action=label, detail=detail)

    # -- scheduling ----------------------------------------------------------
    def _do(self, at: Optional[float], action, detail: str, label: str):
        if at is None:
            action()
            self._record(label, detail)
            return None
        if at < self.env.now:
            raise ValueError(f"cannot schedule chaos in the past (at={at})")

        def _fire(_event) -> None:
            action()
            self._record(label, detail)

        kickoff = self.env.event()
        kickoff.succeed(None, delay=at - self.env.now)
        kickoff.add_callback(_fire)
        return kickoff

    # -- host crash/restart -----------------------------------------------------
    def crash_host(self, name: str, at: Optional[float] = None):
        """Take a host down: it neither sends nor receives datagrams."""
        host = self._host(name)
        return self._do(at, lambda: setattr(host, "down", True), name, "crash_host")

    def restart_host(self, name: str, at: Optional[float] = None):
        """Bring a crashed host back (sockets and processes were preserved:
        the sim models a fast process supervisor, not a reboot)."""
        host = self._host(name)
        return self._do(
            at, lambda: setattr(host, "down", False), name, "restart_host"
        )

    def host_outage(self, name: str, at: float, duration: float):
        """Crash ``name`` at ``at`` and restart it ``duration`` later —
        the failover experiment's one-liner for a bounded outage."""
        self.crash_host(name, at=at)
        return self.restart_host(name, at=at + duration)

    def _host(self, name: str):
        host = self.network.hosts.get(name)
        if host is None:
            raise AddressError(f"unknown host {name!r}")
        return host

    # -- link flaps ------------------------------------------------------------
    def set_link(self, a: str, b: str, up: bool, at: Optional[float] = None):
        """Force one link up or down."""
        link = self.network.link_between(a, b)
        return self._do(
            at,
            lambda: setattr(link, "up", up),
            f"{a}<->{b} {'up' if up else 'down'}",
            "set_link",
        )

    def flap_link(
        self,
        a: str,
        b: str,
        down_for: float,
        up_for: float,
        cycles: int = 1,
        start_at: Optional[float] = None,
    ):
        """Flap a link: ``cycles`` down/up periods starting at ``start_at``
        (default: now).  Returns the driving process."""
        if down_for <= 0 or up_for < 0:
            raise ValueError("flap periods must be positive")
        link = self.network.link_between(a, b)
        begin = self.env.now if start_at is None else start_at

        def _flap():
            if begin > self.env.now:
                yield self.env.timeout(begin - self.env.now)
            for _cycle in range(cycles):
                link.up = False
                self._record("link_down", f"{a}<->{b}")
                yield self.env.timeout(down_for)
                link.up = True
                self._record("link_up", f"{a}<->{b}")
                if up_for:
                    yield self.env.timeout(up_for)

        return self.env.process(_flap(), name=f"chaos.flap:{a}-{b}")

    # -- partitions --------------------------------------------------------------
    def partition(self, *groups: Iterable[str], at: Optional[float] = None):
        """Split the topology into islands: datagrams crossing between two
        different groups are dropped at the link.  Nodes not named in any
        group can talk to everyone."""
        membership: dict[str, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node not in self.network.graph:
                    raise AddressError(f"unknown node {node!r} in partition")
                membership[node] = index
        detail = " | ".join(",".join(sorted(g)) for g in groups)
        return self._do(
            at,
            lambda: setattr(self.network, "_partition", membership),
            detail,
            "partition",
        )

    def heal_partition(self, at: Optional[float] = None):
        """Remove the active partition."""
        return self._do(
            at, lambda: setattr(self.network, "_partition", None), "", "heal"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChaosController events={len(self.events)}>"
