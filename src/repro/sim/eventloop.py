"""Discrete-event simulation kernel.

This module implements a small, deterministic, SimPy-style discrete-event
simulator.  Every experiment in this repository runs on top of it: simulated
hosts, NICs, switches, links, and the Bertha control plane all advance a
shared virtual clock owned by an :class:`Environment`.

Concepts
--------
``Environment``
    Owns the virtual clock and the pending-event heap.  ``env.run()`` pops
    events in timestamp order and fires their callbacks.

``Event``
    A one-shot occurrence.  An event is *triggered* once it has been given a
    value (``succeed``) or an exception (``fail``) and scheduled; it is
    *processed* once its callbacks have run.

``Process``
    A generator wrapped so that each ``yield``\\ ed event suspends the
    generator until that event fires.  A process is itself an event that
    succeeds with the generator's return value, so processes can wait on one
    another.

Determinism
-----------
Events scheduled for the same timestamp fire in scheduling order (a
monotonically increasing sequence number breaks ties), so simulations are
exactly reproducible run-to-run.

Fast paths
----------
The kernel is the floor under every experiment's wall clock, so its hot
paths are deliberately allocation-light:

* Events store their first waiter in a single slot (``_cb``) and only
  allocate an overflow list (``_cbs``) for the rare multi-waiter case —
  most events in this repo have exactly one waiter (a process resume).
* The heap accepts *any* object with a ``_fire()`` method.
  :meth:`Environment.call_in` schedules a bare callable via the two-slot
  ``_OneShot`` wrapper, skipping ``Event`` construction entirely, and the
  network's delivery walkers schedule themselves the same way.
* :meth:`Environment.run` drains the heap in a batched loop with the heap,
  ``heappop``, and the deadline held in locals instead of re-entering
  :meth:`step`'s attribute lookups per event.
* :meth:`Process.interrupt` marks the superseded wait target stale in O(1)
  (``_resume`` ignores events that are not the *current* wait target)
  instead of scanning the old target's callback list.

Example
-------
>>> env = Environment()
>>> def pinger(env):
...     yield env.timeout(5)
...     return env.now
>>> proc = env.process(pinger(env))
>>> env.run()
>>> proc.value
5
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events move through three states: *pending* (created), *triggered*
    (given a value or exception and placed on the heap), and *processed*
    (callbacks have run).  Callbacks registered via :meth:`add_callback`
    before the event is processed run when it fires; attaching a callback
    to an already-processed event runs it immediately.

    The first callback lives in the ``_cb`` slot; only a second waiter
    allocates the ``_cbs`` overflow list.  The :attr:`callbacks` property
    exposes a read-only snapshot for introspection — register through
    :meth:`add_callback`, never by mutating the snapshot.
    """

    __slots__ = ("env", "_cb", "_cbs", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self._cb: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, now."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._schedule(self)
        return self

    # -- callback plumbing ------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when this event fires (or now if fired)."""
        if self._processed:
            callback(self)
        elif self._cb is None:
            self._cb = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)

    def _fire(self) -> None:
        self._processed = True
        cb = self._cb
        if cb is None:
            if not self._ok:
                # A failure nobody is waiting on would otherwise vanish
                # silently; surface it so simulation bugs cannot hide
                # (mirrors SimPy).
                raise self._value
            return
        self._cb = None
        cb(self)
        cbs = self._cbs
        if cbs is not None:
            self._cbs = None
            for callback in cbs:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + succeed(): a timeout is born triggered,
        # and this constructor is one of the two hottest code paths in the
        # whole simulator.
        self.env = env
        self._cb = None
        self._cbs = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        heappush(env._heap, (env._now + delay, env._sequence, self))
        env._sequence += 1


class _OneShot:
    """The cheapest possible heap entry: a bare callable, fired once.

    Duck-types the one method the dispatcher calls (``_fire``); carries no
    value, no callbacks, no state machine.  Used by
    :meth:`Environment.call_in` for one-shot "call at time T" scheduling
    where a full :class:`Event` would be pure overhead.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], None]):
        self._fn = fn

    def _fire(self) -> None:
        self._fn()


class Process(Event):
    """A running generator, resumed each time its awaited event fires.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds the generator is resumed with the event's value; when it
    fails, the exception is thrown into the generator (so processes can
    ``try/except`` failures of what they wait on).  The process event itself
    succeeds with the generator's return value or fails with its uncaught
    exception.

    ``_waiting_on`` is the *current* wait target and ``_interruption``
    holds any in-flight :meth:`interrupt` events; ``_resume`` ignores
    everything else.  Those identity checks are what make
    :meth:`interrupt` O(1): delivering an interrupt abandons the old wait
    target without touching its callback storage, so the stale waiter
    costs nothing regardless of how many co-waiters share that event.

    A finished process lets go of its generator, so whatever keeps it for
    its value (a lease handle keeps its verdict) keeps nothing else.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_interruption")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._interruption: Any = None
        # Kick off the generator at the current simulation time.
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._triggered = True
        bootstrap._cb = self._resume
        self._waiting_on: Optional[Event] = bootstrap
        heappush(env._heap, (env._now, env._sequence, bootstrap))
        env._sequence += 1

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op.  The event the process
        was waiting on is *abandoned*, not mutated: when the interruption
        is delivered, ``_resume`` starts dropping the old wait target, so
        the stale waiter costs O(1) regardless of how many co-waiters
        share that event's callback storage.
        """
        if self._triggered:
            return
        env = self.env
        interruption = Event(env)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption._triggered = True
        interruption._cb = self._resume
        pending = self._interruption
        if pending is None:
            self._interruption = interruption
        elif type(pending) is list:
            pending.append(interruption)
        else:
            self._interruption = [pending, interruption]
        heappush(env._heap, (env._now, env._sequence, interruption))
        env._sequence += 1

    def _resume(self, event: Event) -> None:
        if event is self._waiting_on:
            self._waiting_on = None
        else:
            # Not the current wait target: either an in-flight
            # interruption (deliver it, abandoning the superseded target)
            # or a stale waiter (drop it in O(1)).
            pending = self._interruption
            if pending is None:
                return
            if pending is event:
                self._interruption = None
            elif type(pending) is list and event in pending:
                pending.remove(event)
                if not pending:
                    self._interruption = None
            else:
                return
            if self._triggered:
                return  # finished while the interruption was in flight
            self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.generator = None  # finished: a held process keeps only its value
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into event
            self.generator = None
            self.fail(exc)
            return
        finally:
            env._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.env is not env:
            raise SimulationError("cannot wait on an event from another Environment")
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class _Condition(Event):
    """Base for events composed of several sub-events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("all sub-events must share one Environment")
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e.value for e in self.events if e.processed and e.ok}


class AllOf(_Condition):
    """Succeeds when every sub-event has succeeded; fails on first failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds when the first sub-event succeeds; fails on first failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(self._collect())


class Environment:
    """Owner of the virtual clock and the pending-event heap.

    The heap holds ``(time, seq, entry)`` tuples where ``entry`` is any
    object with a ``_fire()`` method — full :class:`Event`\\ s, bare
    :class:`_OneShot` callables, or the network's delivery walkers.
    ``dispatched`` counts every entry ever fired; the benchmark's ledger
    reads it to report events per operation.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self.dispatched = 0

    @property
    def now(self) -> float:
        """Current virtual time (seconds by convention in this repo)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event constructors -------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for every event in ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Wait for the first of ``events``."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self._now + delay, self._sequence, event))
        self._sequence += 1

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Call ``fn()`` after ``delay`` virtual seconds.

        The lightweight one-shot primitive: no :class:`Event` is built, no
        callback list is managed, nothing can wait on the result.  Use it
        for fire-and-forget work; use :meth:`timeout` when something must
        ``yield`` on the occurrence.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self._now + delay, self._sequence, _OneShot(fn)))
        self._sequence += 1

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Call ``fn()`` at absolute virtual time ``when`` (>= now)."""
        self.call_in(when - self._now, fn)

    def _push(self, delay: float, entry: Any) -> None:
        """Schedule a pre-built heap entry (anything with ``_fire()``).

        Internal fast path for the delivery engine's walkers; ``delay``
        must already be validated non-negative by the caller.
        """
        heappush(self._heap, (self._now + delay, self._sequence, entry))
        self._sequence += 1

    def _push_at(self, at: float, entry: Any) -> None:
        """Schedule a pre-built heap entry at absolute time ``at``.

        The delivery walk fuses pure-delay hops by precomputing downstream
        timestamps with exactly the floating-point operation sequence the
        slot-per-hop engine performed; this entry point lets it land those
        entries on bit-identical clock readings.
        """
        heappush(self._heap, (at, self._sequence, entry))
        self._sequence += 1

    def peek(self) -> float:
        """Timestamp of the next pending event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() with an empty event heap")
        when, _seq, event = heappop(self._heap)
        self._now = when
        self.dispatched += 1
        event._fire()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run events until the heap is empty, a time, or an event.

        ``until`` may be ``None`` (drain the heap), a number (advance the
        clock to that time, leaving later events pending), or an
        :class:`Event` (run until it is processed, then return its value or
        raise its exception).

        The dispatch loop is batched: the heap, ``heappop``, and the
        deadline live in locals, so draining N same-timestamp events costs
        N iterations of a tight loop rather than N ``step()`` re-entries.
        Cyclic garbage collection is paused for the duration of the loop —
        the dispatch path allocates heavily (events, datagrams, walkers)
        and collector pauses otherwise account for a measurable slice of
        wall clock; virtual-time behavior is unaffected.
        """
        heap = self._heap
        pop = heappop
        fired = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        if isinstance(until, Event):
            target = until
            try:
                while not target._processed:
                    if not heap:
                        raise SimulationError(
                            "event heap drained before the awaited event fired "
                            "(deadlock: nothing can trigger it)"
                        )
                    entry = pop(heap)
                    self._now = entry[0]
                    entry[2]._fire()
                    fired += 1
            finally:
                self.dispatched += fired
                if gc_was_enabled:
                    gc.enable()
            if target._ok:
                return target._value
            raise target._value
        try:
            if until is None:
                while heap:
                    entry = pop(heap)
                    self._now = entry[0]
                    entry[2]._fire()
                    fired += 1
            else:
                deadline = float(until)
                while heap and heap[0][0] <= deadline:
                    entry = pop(heap)
                    self._now = entry[0]
                    entry[2]._fire()
                    fired += 1
                if deadline > self._now:
                    self._now = deadline
        finally:
            self.dispatched += fired
            if gc_was_enabled:
                gc.enable()
        return None
