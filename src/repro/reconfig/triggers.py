"""Reconfiguration triggers: who notices that a binding has gone stale.

Three independent signal sources feed the transition engine:

``DiscoveryWatcher``
    Control-plane pushes.  The discovery service notifies subscribed
    addresses when a record is unregistered/revoked (``disc.revoked``) or a
    lease is preempted by the offload scheduler (``disc.lease_revoked``).

``DeviceFailureDetector``
    Data-plane failures.  Simulated NICs and programmable switches expose
    ``fail()``/``recover()`` fault injection; the detector fans their
    synchronous state-change callbacks out to per-location subscribers.

``PathQualityMonitor``
    Path degradation.  Polls the fault-plan loss counters of the links
    along a pinned path and fires when the windowed loss rate crosses a
    threshold — the signal that drives live multipath weight rebalancing
    (PROTOCOL.md §10).
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core import messages as msgs
from ..core.wire import WireError
from ..errors import ConnectionClosedError, ConnectionTimeoutError
from ..sim.eventloop import Interrupt
from ..sim.transport import UdpSocket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.runtime import Runtime
    from ..sim.network import Network

__all__ = [
    "DeviceFailureDetector",
    "DiscoveryWatcher",
    "PathQualityMonitor",
]

_log = logging.getLogger("repro.ctl")


class DeviceFailureDetector:
    """Fan out device ``fail()``/``recover()`` events by location.

    A *location* is a discovery-record location: a switch name or an entity
    name (whose host's NIC is the watched device).
    """

    def __init__(self, network: "Network"):
        self.network = network
        self._callbacks: dict[str, list[Callable]] = {}
        self._hooked: set[str] = set()
        self.events = 0

    def device(self, location: str):
        """The failable device at ``location`` (switch or NIC), or None."""
        switch = self.network.switches.get(location)
        if switch is not None:
            return switch
        entity = self.network.entities.get(location)
        if entity is not None:
            return entity.host.nic
        return None

    def watch(
        self, location: str, callback: Callable[[str, object, bool, str], None]
    ) -> bool:
        """Subscribe ``callback(location, device, failed, reason)``.

        Returns False when no failable device exists at ``location``.
        """
        device = self.device(location)
        if device is None:
            return False
        self._callbacks.setdefault(location, []).append(callback)
        if location not in self._hooked:
            self._hooked.add(location)
            device.on_state_change(
                lambda dev, failed, reason, loc=location: self._dispatch(
                    loc, dev, failed, reason
                )
            )
        return True

    def _dispatch(self, location: str, device, failed: bool, reason: str) -> None:
        self.events += 1
        for callback in list(self._callbacks.get(location, [])):
            callback(location, device, failed, reason)


class DiscoveryWatcher:
    """Receive discovery revocation pushes for watched records.

    Lazily opens one datagram socket per runtime; the service sends
    fire-and-forget ``disc.revoked``/``disc.lease_revoked`` datagrams to it
    (see :meth:`repro.discovery.service.DiscoveryService.add_watch`).

    Service-side watch state is *volatile*: a discovery ``crash()`` drops
    the subscription table, so a watcher whose registration landed before
    the crash would silently stop receiving pushes after the restart.  Two
    defences: registration retries across an outage (bounded, backed off —
    the inner discovery RPC already retries within one outage window), and
    :meth:`rearm` / the optional ``refresh_interval`` re-registration loop
    (re-subscribing is idempotent at the service).
    """

    #: Outer registration attempts (each one a full discovery RPC with its
    #: own retry/backoff schedule) and the pause between them — sized to
    #: span a short service outage rather than a single loss burst.
    REGISTER_RETRIES = 3
    REGISTER_BACKOFF = 20e-3

    def __init__(
        self, runtime: "Runtime", refresh_interval: Optional[float] = None
    ):
        self.runtime = runtime
        self.env = runtime.env
        #: When set, every watched record is re-registered this often — the
        #: subscription-lease pattern.  Off by default: the refresh loop
        #: keeps the event heap non-empty, so short-lived worlds must opt
        #: in (and call :meth:`stop` when done).
        self.refresh_interval = refresh_interval
        self._socket: Optional[UdpSocket] = None
        self._proc = None
        self._refresher = None
        self._callbacks: dict[str, list[Callable]] = {}
        self.notifications = 0
        #: Pushes that failed schema decoding (dropped, never dispatched).
        self.malformed_total = 0
        #: Watch registrations lost to a discovery outage (nobody waits on
        #: the registration process, so failures must be swallowed and
        #: counted — an unwaited error would crash the simulation).
        self.watch_failures = 0
        #: Outer re-attempts after a failed registration RPC.
        self.watch_retries = 0
        #: Idempotent re-registrations sent by rearm()/the refresh loop.
        self.rearms = 0
        obs = runtime.network.obs
        prefix = f"reconfig.{runtime.entity.name}.watcher"
        obs.bind(f"{prefix}.notifications", self, "notifications", replace=True)
        obs.bind(f"{prefix}.malformed_total", self, "malformed_total", replace=True)
        obs.bind(f"{prefix}.watch_failures", self, "watch_failures", replace=True)
        obs.bind(f"{prefix}.watch_retries", self, "watch_retries", replace=True)
        obs.bind(f"{prefix}.rearms", self, "rearms", replace=True)

    def _ensure(self) -> None:
        if self._socket is None:
            self._socket = UdpSocket(self.runtime.entity)
            self._proc = self.env.process(
                self._listen(),
                name=f"{self.runtime.entity.name}.disc-watch",
            )
        if self._refresher is None and self.refresh_interval is not None:
            self._refresher = self.env.process(
                self._refresh(),
                name=f"{self.runtime.entity.name}.disc-watch-refresh",
            )

    def watch_record(
        self, record_id: str, callback: Callable[[str, str, Any], None]
    ) -> None:
        """Subscribe ``callback(record_id, kind, push)`` to pushes for one
        record (``push`` is the decoded message); registers the watch with
        the discovery service on first use.
        """
        self._ensure()
        first = record_id not in self._callbacks
        self._callbacks.setdefault(record_id, []).append(callback)
        if first:
            self.env.process(
                self._register(record_id), name=f"disc-watch:{record_id}"
            )

    def _register(self, record_id: str):
        """Register one watch, retrying across (not just within) outages."""
        for attempt in range(self.REGISTER_RETRIES):
            try:
                yield from self.runtime.discovery.watch(
                    record_id, self._socket.address
                )
                return
            except (ConnectionTimeoutError, Interrupt):
                self.watch_failures += 1
            if attempt + 1 < self.REGISTER_RETRIES:
                self.watch_retries += 1
                try:
                    yield self.env.timeout(
                        self.REGISTER_BACKOFF * (2**attempt)
                    )
                except Interrupt:
                    return

    def rearm(self) -> None:
        """Re-register every watched record with the discovery service.

        Idempotent (the service's watch table is a set), so callers fire it
        whenever service-side watch state may have been lost: after a
        discovery crash()/restart() cycle, or after a shard failover moved
        the records to a new primary.
        """
        if self._socket is None:
            return
        for record_id in sorted(self._callbacks):
            self.rearms += 1
            self.env.process(
                self._register(record_id), name=f"disc-rearm:{record_id}"
            )

    def _refresh(self):
        while True:
            try:
                yield self.env.timeout(self.refresh_interval)
            except Interrupt:
                return
            self.rearm()

    def _listen(self):
        while True:
            try:
                dgram = yield self._socket.recv()
            except (Interrupt, ConnectionClosedError):
                return
            try:
                message = msgs.decode_message(dgram.payload)
            except WireError as error:
                self.malformed_total += 1
                _log.warning(
                    "%s: dropping malformed discovery push (%s)",
                    self.runtime.entity.name,
                    error,
                )
                continue
            record_id = getattr(message, "record_id", None)
            self.notifications += 1
            # The lease is gone at the service: the runtime's reference on
            # it goes first, so nothing a callback starts finds it held.
            self.runtime.leases.drop(record_id, getattr(message, "owner", None))
            for callback in list(self._callbacks.get(record_id, [])):
                callback(record_id, message.KIND, message)


#: :class:`PathQualityMonitor`'s poll period, and the fewest crossings a
#: poll window needs to count.
PATH_POLL_INTERVAL = 5e-4
PATH_MIN_SAMPLES = 4


class PathQualityMonitor:
    """Threshold alarms over the loss rate of a pinned network path.

    ``watch_path`` resolves the links along ``path`` (consecutive node
    pairs) and polls their fault-plan counters; each poll computes the
    loss rate of the *window since the previous poll* — lost over
    evaluated crossings, where lost counts both outright drops and
    corruptions (discarded by the destination NIC's checksum).  A link
    that is administratively down reads as rate 1.0 regardless of
    counters.  The callback fires when the windowed rate reaches
    ``threshold`` and re-arms once it falls back to half the threshold
    (hysteresis), so a persistently lossy path fires once per episode.

    The poll runs every :data:`PATH_POLL_INTERVAL`.  Windows with fewer
    than :data:`PATH_MIN_SAMPLES` evaluated crossings are skipped: an idle
    path has no quality signal, and a one-packet window would read as rate
    0.0 or 1.0 with nothing in between.

    This is the trigger that feeds multipath weight rebalancing: wire the
    callback to ``request_transition`` with a reweighted
    ``WeightedMultipath`` spec and traffic shifts off the degrading link
    mid-connection (PROTOCOL.md §10).
    """

    def __init__(self, network: "Network"):
        self.network = network
        self.env = network.env
        self._watches: list[dict] = []
        self._proc = None
        self._stopped = False
        self.samples = 0
        self.alarms = 0

    def _links(self, path: list[str]):
        return [
            self.network.link_between(a, b) for a, b in zip(path, path[1:])
        ]

    @staticmethod
    def _totals(links) -> tuple[int, int]:
        """(evaluated, lost) summed over the path's fault plans."""
        evaluated = 0
        lost = 0
        for link in links:
            plan = link.fault_plan
            if plan is None:
                continue
            evaluated += plan.evaluated
            lost += plan.dropped + plan.corrupted
        return evaluated, lost

    def watch_path(
        self,
        name: str,
        path: list[str],
        threshold: float,
        callback: Callable[[str, list[str], float], None],
    ) -> None:
        """``callback(name, path, rate)`` when a poll window's loss rate
        reaches ``threshold``.  ``path`` is a node-name sequence as
        returned by ``Network.k_routes`` (adjacent pairs must be linked).
        """
        links = self._links(list(path))
        evaluated, lost = self._totals(links)
        self._watches.append(
            {
                "name": name,
                "path": list(path),
                "links": links,
                "threshold": threshold,
                "callback": callback,
                "evaluated": evaluated,
                "lost": lost,
                "armed": True,
            }
        )
        if self._proc is None:
            self._proc = self.env.process(self._run(), name="path-monitor")

    def _run(self):
        while not self._stopped:
            try:
                yield self.env.timeout(PATH_POLL_INTERVAL)
            except Interrupt:
                return
            self.samples += 1
            for watch in self._watches:
                evaluated, lost = self._totals(watch["links"])
                window = evaluated - watch["evaluated"]
                lost_in_window = lost - watch["lost"]
                watch["evaluated"] = evaluated
                watch["lost"] = lost
                if any(not link.up for link in watch["links"]):
                    rate = 1.0
                elif window < PATH_MIN_SAMPLES:
                    continue
                else:
                    rate = lost_in_window / window
                if watch["armed"] and rate >= watch["threshold"]:
                    watch["armed"] = False
                    self.alarms += 1
                    watch["callback"](watch["name"], watch["path"], rate)
                elif not watch["armed"] and rate <= watch["threshold"] / 2:
                    watch["armed"] = True

    def stop(self) -> None:
        """Stop polling (the loop otherwise keeps the event heap alive)."""
        self._stopped = True
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("path monitor stopped")
