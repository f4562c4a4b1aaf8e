"""Queueing primitives for the simulator.

Three primitives cover every contention point in the repository:

``Station``
    A FIFO queue in front of one or more identical servers with a
    per-job service time.  Stations are what make latency grow with offered
    load: shard worker threads, the XDP fast path, load-balancer proxies and
    NIC processing are all stations with different service rates.

``TokenResource``
    A counted resource (e.g. switch match-action stages, SmartNIC offload
    slots).  Requests are granted FIFO; the discovery service uses this for
    offload reservation.

``Store``
    An unbounded message mailbox with blocking ``get``.  Simulated sockets
    are stores that the network delivers datagrams into.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Optional

from .eventloop import Environment, Event, SimulationError

__all__ = ["Station", "TokenResource", "Store"]


class Station:
    """FIFO multi-server queue with deterministic service times.

    Jobs submitted to a station are served in arrival order by the first
    server to become free.  ``submit`` returns an event that fires when the
    job's service completes; the event's value is the job itself.

    Because service is non-preemptive FIFO, completion times can be computed
    at submission: a job arriving at ``t`` starts at ``max(t, earliest
    server-free time)`` and finishes ``service_time(job)`` later.  This keeps
    the station O(log n) without per-job bookkeeping processes.

    Parameters
    ----------
    env:
        The simulation environment.
    service_time:
        Either a constant (seconds per job) or a callable ``job -> seconds``.
    servers:
        Number of identical parallel servers (default 1).
    name:
        Label used in repr and statistics.
    """

    def __init__(
        self,
        env: Environment,
        service_time: float | Callable[[Any], float],
        servers: int = 1,
        name: str = "station",
    ):
        if servers < 1:
            raise ValueError("a station needs at least one server")
        self.env = env
        self.name = name
        self.servers = servers
        if callable(service_time):
            self._service_time = service_time
        else:
            fixed = float(service_time)
            if fixed < 0:
                raise ValueError("service time must be non-negative")
            self._service_time = lambda _job: fixed
        # Earliest time each server is free.  Kept sorted-ish by always
        # replacing the minimum, which is optimal FIFO assignment.
        self._free_at = [env.now] * servers
        # Statistics.
        self.jobs_served = 0
        self.total_wait = 0.0
        self.total_service = 0.0
        self.busy_until = env.now
        self.jobs_in_system = 0
        #: Completion event of the newest job (what ``submit`` returns).
        self._completion: Optional[Event] = None

    def service_time(self, job: Any = None) -> float:
        """The service time this station would charge ``job``."""
        return self._service_time(job)

    def submit(self, job: Any = None) -> Event:
        """Enqueue ``job``; returns an event firing at service completion."""
        self.submit_walk(job)
        return self._completion

    def submit_walk(self, job: Any = None) -> float:
        """``submit`` for the delivery walk: returns the completion *time*.

        The caller gets the absolute completion timestamp instead of the
        Event, so it can schedule its next step directly at ``done + cost``
        without waiting on a callback.  The completion event still fires on
        the heap for ``jobs_in_system`` accounting, keeping ``queue_depth``
        readings (load monitors poll them) on schedule.

        This is the one enqueue body — :meth:`submit` calls it and picks the
        event up from ``_completion`` — because every NIC receive on the
        delivery walk's fused path comes through here and a shared helper
        would put another Python frame under each datagram.
        """
        now = self.env.now
        if self.servers == 1:
            slot = 0
        else:
            slot = min(range(self.servers), key=self._free_at.__getitem__)
        start = max(now, self._free_at[slot])
        duration = self._service_time(job)
        if duration < 0:
            raise SimulationError(f"negative service time for {job!r}")
        done_at = start + duration
        self._free_at[slot] = done_at
        self.jobs_served += 1
        self.total_wait += start - now
        self.total_service += duration
        self.busy_until = max(self.busy_until, done_at)
        self.jobs_in_system += 1
        # Inlined Event construction + succeed(): the completion is born
        # triggered with ``_job_done`` as its first waiter.
        env = self.env
        completion = self._completion = Event.__new__(Event)
        completion.env = env
        completion._cb = self._job_done
        completion._cbs = None
        completion._value = job
        completion._ok = True
        completion._triggered = True
        completion._processed = False
        at = env._now + (done_at - now)
        heappush(env._heap, (at, env._sequence, completion))
        env._sequence += 1
        return at

    def _job_done(self, _event: Event) -> None:
        self.jobs_in_system -= 1

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for a server right now (excludes those in service).

        Load monitors (``repro.reconfig.triggers.LoadMonitor``) poll this to
        detect a saturating station before latency collapses.
        """
        return max(0, self.jobs_in_system - self.servers)

    def delay_for(self, job: Any = None) -> float:
        """Queueing + service delay ``job`` would see if submitted now.

        Does not actually enqueue the job.
        """
        now = self.env.now
        start = max(now, min(self._free_at))
        return (start - now) + self._service_time(job)

    @property
    def mean_wait(self) -> float:
        """Average queueing delay over all jobs served so far."""
        return self.total_wait / self.jobs_served if self.jobs_served else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Station {self.name!r} servers={self.servers} served={self.jobs_served}>"


class TokenResource:
    """A counted resource with FIFO request granting.

    ``request(n)`` returns an event that fires once ``n`` units have been
    set aside for the caller; ``release(n)`` returns units and wakes queued
    requests in order.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "resource"):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.available = capacity
        self._waiting: deque[tuple[int, Event]] = deque()

    def request(self, amount: int = 1) -> Event:
        """Acquire ``amount`` units; event fires when granted."""
        if amount < 0:
            raise ValueError("cannot request a negative amount")
        if amount > self.capacity:
            raise ValueError(
                f"request of {amount} exceeds total capacity {self.capacity} "
                f"of {self.name!r}"
            )
        grant = Event(self.env)
        self._waiting.append((amount, grant))
        self._drain()
        return grant

    def try_request(self, amount: int = 1) -> bool:
        """Non-blocking acquire; True and takes units only if free right now."""
        if amount < 0:
            raise ValueError("cannot request a negative amount")
        if self._waiting or amount > self.available:
            return False
        self.available -= amount
        return True

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` units and wake queued requesters FIFO."""
        if amount < 0:
            raise ValueError("cannot release a negative amount")
        self.available += amount
        if self.available > self.capacity:
            raise SimulationError(
                f"{self.name!r} over-released: {self.available}/{self.capacity}"
            )
        self._drain()

    def _drain(self) -> None:
        while self._waiting and self._waiting[0][0] <= self.available:
            amount, grant = self._waiting.popleft()
            self.available -= amount
            grant.succeed(amount)

    @property
    def queued(self) -> int:
        """Number of requests currently waiting."""
        return len(self._waiting)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TokenResource {self.name!r} {self.available}/{self.capacity} "
            f"queued={len(self._waiting)}>"
        )


class Store:
    """Unbounded FIFO mailbox with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the next
    item — immediately if one is buffered, otherwise when one arrives.
    Pending ``get``\\ s are served in request order.
    """

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.puts = 0
        self.gets = 0

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        self.puts += 1
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue  # cancelled getter
            self.gets += 1
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item."""
        slot = Event(self.env)
        if self._items:
            self.gets += 1
            slot.succeed(self._items.popleft())
        else:
            self._getters.append(slot)
        return slot

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            self.gets += 1
            return True, self._items.popleft()
        return False, None

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Store {self.name!r} buffered={len(self._items)}>"
