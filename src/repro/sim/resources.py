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
from typing import Any, Callable, Optional

from .eventloop import Environment, Event, SimulationError

__all__ = ["Station", "TokenResource", "Store"]


class Station:
    """FIFO multi-server queue with deterministic service times.

    Jobs submitted to a station are served in arrival order by the first
    server to become free.  ``submit`` returns the instant the job's
    service completes; nothing is scheduled, so a caller that must act at
    that instant schedules itself there.

    Because service is non-preemptive FIFO, completion times can be computed
    at submission: a job arriving at ``t`` starts at ``max(t, earliest
    server-free time)`` and finishes ``service_time(job)`` later.  The
    station is arithmetic over its servers' free times: no process, no
    event, no heap entry per job.

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

    def submit(self, job: Any = None) -> float:
        """Enqueue ``job``; returns its absolute completion instant.

        The instant is ``now + (done_at - now)`` rather than ``done_at``:
        the two can differ in the last bit, and the first is the clock
        reading the simulator has always landed completions on.
        """
        now = self.env._now
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
        return now + (done_at - now)

    @property
    def mean_wait(self) -> float:
        """Average queueing delay over all jobs served so far."""
        return self.total_wait / self.jobs_served if self.jobs_served else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Station {self.name!r} servers={self.servers} served={self.jobs_served}>"


class TokenResource:
    """A counted resource: ``try_request(n)`` takes ``n`` units if they are
    free right now, ``release(n)`` gives them back.  Nothing queues; a
    caller that finds the pool short decides for itself what to do."""

    def __init__(self, env: Environment, capacity: int, name: str = "resource"):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.available = capacity

    def try_request(self, amount: int = 1) -> bool:
        """Take ``amount`` units: True if they were free, else take none."""
        if amount < 0:
            raise ValueError("cannot request a negative amount")
        if amount > self.available:
            return False
        self.available -= amount
        return True

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` units."""
        if amount < 0:
            raise ValueError("cannot release a negative amount")
        self.available += amount
        if self.available > self.capacity:
            raise SimulationError(
                f"{self.name!r} over-released: {self.available}/{self.capacity}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TokenResource {self.name!r} {self.available}/{self.capacity}>"


#: The empty head of a :class:`Store` queue (``None`` is a valid item).
_EMPTY = object()


class Store:
    """Unbounded FIFO mailbox with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the next
    item — immediately if one is buffered, otherwise when one arrives.
    Pending ``get``\\ s are served in request order.

    A waiter is anything with a ``triggered`` flag and a ``succeed(item)``
    method: the :class:`Event` ``get`` returns, or a process-free receiver
    queued with :meth:`wait`.  A waiter already triggered when its turn
    comes was cancelled, and is skipped.

    Buffered items and waiters never coexist — ``put`` serves the oldest
    live waiter before it buffers, ``get`` takes an item before it waits —
    so one queue holds whichever there are, and ``_waiting`` says which.
    Its oldest entry sits in ``_head``, the rest in ``_tail``, a deque made
    the first time a second entry queues: most stores are a socket or an
    inbox with one waiter and nothing else, and a deque costs 760 bytes.
    """

    __slots__ = ("env", "name", "puts", "gets", "_waiting", "_head", "_tail")

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self.puts = 0
        self.gets = 0
        self._waiting = False
        self._head: Any = _EMPTY
        self._tail: Optional[deque] = None

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        self.puts += 1
        while self._waiting:
            # _pop, inlined: every datagram a socket receives comes here.
            getter = self._head
            if self._tail:
                self._head = self._tail.popleft()
            else:
                self._head = _EMPTY
                self._waiting = False
            if getter.triggered:
                continue  # cancelled getter
            self.gets += 1
            getter.succeed(item)
            return
        self._push(item)

    def get(self) -> Event:
        """Event that fires with the next item."""
        slot = Event(self.env)
        if self._waiting or self._head is _EMPTY:
            self.wait(slot)
        else:
            self.gets += 1
            slot.succeed(self._pop())
        return slot

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._waiting or self._head is _EMPTY:
            return False, None
        self.gets += 1
        return True, self._pop()

    def wait(self, getter: Any) -> None:
        """Queue ``getter`` behind the waiters already queued: the next
        item put goes to the oldest live one.  A store holding items takes
        no waiter; :meth:`try_get` them first."""
        if self._head is _EMPTY:
            self._waiting = True
            self._head = getter
        elif self._waiting:
            self._push(getter)
        else:
            raise SimulationError(f"{self.name!r}: wait with items buffered")

    def cancel(self, getter: Any) -> None:
        """Take ``getter`` out of the queue, if it waits there."""
        if not self._waiting:
            return
        if self._head is getter:
            self._pop()
        elif self._tail and getter in self._tail:
            self._tail.remove(getter)

    def clear(self) -> None:
        """Drop every buffered item; waiters stay queued."""
        if not self._waiting:
            self._head = _EMPTY
            self._tail = None

    def _push(self, entry: Any) -> None:
        if self._head is _EMPTY:
            self._head = entry
        elif self._tail is None:
            self._tail = deque((entry,))
        else:
            self._tail.append(entry)

    def _pop(self) -> Any:
        entry = self._head
        if self._tail:
            self._head = self._tail.popleft()
        else:
            self._head = _EMPTY
            self._waiting = False
        return entry

    def __len__(self) -> int:
        """Buffered items (waiters are not counted)."""
        if self._waiting or self._head is _EMPTY:
            return 0
        return 1 + len(self._tail or ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "waiting" if self._waiting else "buffered"
        queued = 0 if self._head is _EMPTY else 1 + len(self._tail or ())
        return f"<Store {self.name!r} {state}={queued}>"
