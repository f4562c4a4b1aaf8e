"""The holder side of discovery leases: one table per runtime.

The discovery service charges a record's resources once per ``(record_id,
owner)`` lease and counts *holders* on it (PROTOCOL.md §2).  This table is
a runtime's one holder: however many of its connections bind under a lease,
the service sees one reference, taken with ``disc.reserve`` when the first
connection needs it (0 → 1) and given back with ``disc.release`` when the
last one goes (1 → 0).  Every acquisition in between asks the service a
*read* — ``disc.lease_check``, "does my lease still stand?" — so each
accept and each resume still carries a discovery verdict at most one round
trip old, without a logged mutation whose only effect would be a counter.

That read is *optimistic*: holding a settled reference on the lease, the
table hands out the next one at once and runs the check as a process of
its own.  The handle's :attr:`~LeaseHandle.verdict` fires when the check
answers — with True, with a fresh handle when the check said no and a
re-reserve was granted, or with ``None``.  Whoever binds under the handle
decides what "not yet" means: the listener answers the client and holds
the connection's data path until the verdict is in (PROTOCOL.md §2), the
reconfiguration engine waits.  A reserve, and the check that adopts an
owed entry, stay synchronous; their handles carry a verdict that has
already fired.

References are handed out as :class:`LeaseHandle` objects and given back by
handle, never by ``(record_id, owner)`` key: a handle taken under an entry
that has since been dropped (the check said no, a revocation push arrived)
is orphaned and releases nothing, so a late release cannot free the lease
the same owner — or, for a group-scoped owner, another runtime — took
afterwards.

Per key the table has at most one mutation in flight.  The reserve and the
release run as processes of their own, not of the connection that caused
them: ``Listener.close()`` interrupting a handler mid-reserve leaves the
RPC to finish and, if nobody wants the lease by then, hand it straight
back; acquisitions that overlap a first reserve share it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import BerthaError, ConnectionTimeoutError
from ..sim.eventloop import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import Runtime

__all__ = ["LeaseHandle", "LeaseTable"]

LeaseKey = tuple[str, str]

#: The table's counters, exported under ``runtime.<entity>.leases.*`` from
#: its first check on (a world that never checks a lease has no such name).
_COUNTERS = ("check_denials", "check_timeouts", "optimistic_acquires", "late_denials")


class _Entry:
    """This runtime's one service-side reference on a lease.

    In the table with ``pending`` unset it is *held* (``refs`` ≥ 1) or
    *owed* (``refs`` 0: the release timed out, so the service may still
    count us; the next acquisition adopts the entry after a check).
    """

    __slots__ = ("refs", "pending", "reserving")

    def __init__(self) -> None:
        self.refs = 0
        #: The reserve or release RPC in flight for this key, if any.
        self.pending: Optional[Process] = None
        self.reserving = False


class LeaseHandle:
    """One reference on a lease, as :meth:`LeaseTable.acquire` returns it."""

    __slots__ = ("record_id", "owner", "_entry", "verdict")

    def __init__(self, record_id: str, owner: str, entry: _Entry):
        self.record_id = record_id
        self.owner = owner
        self._entry: Optional[_Entry] = entry
        #: Fires with True when this handle stands, with the handle a
        #: re-reserve took after the check said no, or with None: no lease,
        #: and this handle is already given back (:meth:`standing` reads
        #: it).  Never with this handle itself, which would make the two a
        #: reference cycle.  Set by the table before the handle is handed
        #: out.
        self.verdict: Optional[Event] = None

    @property
    def key(self) -> LeaseKey:
        return (self.record_id, self.owner)

    def standing(self, verdict) -> Optional["LeaseHandle"]:
        """The handle a fired :attr:`verdict`'s value says stands for this
        reference, or None."""
        return self if verdict is True else verdict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._entry is None else "held"
        return f"<LeaseHandle {self.record_id} for {self.owner!r} {state}>"


def _fired(env, value) -> Event:
    """An event that has already fired with ``value``: waiting on it
    resumes at once, and it takes no slot on the heap."""
    event = Event(env)
    event._ok = event._triggered = event._processed = True
    event._value = value
    return event


class LeaseTable:
    """A runtime's references on discovery leases (see the module docs)."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.env = runtime.env
        self._entries: dict[LeaseKey, _Entry] = {}
        self._exported = False
        #: Checks answered "no", and checks not answered at all.
        self.check_denials = 0
        self.check_timeouts = 0
        #: References handed out before their check had answered, and how
        #: many of those the verdict then took back (no lease after all).
        self.optimistic_acquires = 0
        self.late_denials = 0

    # -- introspection (audits, tests) -----------------------------------------
    def held(self) -> dict[LeaseKey, int]:
        """``key → local references`` for every lease the service counts
        this runtime on (0 references: owed, see :meth:`owed`)."""
        return {
            key: entry.refs
            for key, entry in self._entries.items()
            if not entry.reserving
        }

    def owed(self) -> list[LeaseKey]:
        """Leases whose release timed out and is still to be retried."""
        return [
            key
            for key, entry in self._entries.items()
            if entry.pending is None and entry.refs == 0
        ]

    # -- acquire / release -------------------------------------------------------
    def acquire(self, record_id: str, owner: str, conn_id: str = ""):
        """Generator → a :class:`LeaseHandle`, or None when discovery
        refuses (or cannot be reached: an unconfirmable lease is a denial,
        which steers the decision to the next-ranked offer).

        Holding a settled reference, this takes another at once and
        returns without waiting: the check runs in the background, traced
        as a ``lease_check`` span under ``conn_id``, and the handle's
        verdict fires with its answer.  A "no" drops the entry — the
        references taken under it are orphaned — and reserves afresh,
        re-running admission; a check that times out is a denial, not
        "assume held", and gives back just this reference, since the
        connections bound under the entry still are.

        Holding no reference, this reserves (joining a reserve already in
        flight for the key); an owed entry is adopted after a check.  Those
        wait for discovery, and their handle's verdict has already fired.
        """
        key = (record_id, owner)
        while True:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry()
                entry.reserving = True
                entry.pending = self.env.process(
                    self._reserve(key, entry), name=f"reserve:{record_id}"
                )
            if entry.pending is not None:
                if not entry.reserving:
                    yield entry.pending  # a release: look again once it lands
                    continue
                entry.refs += 1
                try:
                    granted = yield entry.pending
                except Interrupt:
                    self._unref(key, entry)
                    raise
                return self._settled(key, entry) if granted else None
            if entry.refs:
                entry.refs += 1
                self.optimistic_acquires += 1
                handle = LeaseHandle(record_id, owner, entry)
                handle.verdict = self.env.process(
                    self._confirm(handle, entry, conn_id),
                    name=f"lease-check:{record_id}",
                )
                return handle
            stands = yield from self._check(key, entry, conn_id)
            if stands is None:
                return None
            if stands and self._entries.get(key) is entry and entry.pending is None:
                entry.refs += 1
                return self._settled(key, entry)

    def release_nowait(self, handle: LeaseHandle) -> Optional[Process]:
        """Give back one reference, now.  The runtime's last one on a live
        entry starts the ``disc.release`` and returns its process; a
        handle given back twice, or taken under an entry dropped since,
        does nothing."""
        entry, handle._entry = handle._entry, None
        if entry is None or self._entries.get(handle.key) is not entry:
            return None
        self._unref(handle.key, entry)
        return entry.pending

    def release(self, handle: LeaseHandle):
        """Generator: :meth:`release_nowait`, then wait for discovery."""
        pending = self.release_nowait(handle)
        if pending is not None:
            yield pending

    def drop(self, record_id: str, owner: Optional[str] = None) -> None:
        """Forget what this runtime holds on ``record_id`` (for one owner,
        or all): a ``disc.revoked`` / ``disc.lease_revoked`` push said the
        lease is gone (:class:`~repro.reconfig.triggers.DiscoveryWatcher`
        calls this for every push the runtime receives).

        Best-effort, like the pushes: the check is what keeps a revoked
        record from being bound.  What dropping on the push adds is that a
        last release cannot go out under an entry the service no longer
        has — where, for a group-scoped owner, it would hit the lease
        another runtime has taken since.  An entry still being reserved is
        newer than whatever the news was about, and stays.
        """
        for key, entry in list(self._entries.items()):
            if key[0] != record_id or (owner is not None and key[1] != owner):
                continue
            if not entry.reserving:
                del self._entries[key]

    # -- internals ---------------------------------------------------------------
    def _settled(self, key: LeaseKey, entry: _Entry) -> LeaseHandle:
        """A handle for a reference discovery has already confirmed."""
        handle = LeaseHandle(key[0], key[1], entry)
        handle.verdict = _fired(self.env, True)
        return handle

    def _confirm(self, handle: LeaseHandle, entry: _Entry, conn_id: str):
        """Process behind an optimistic handle: its value is the verdict."""
        key = handle.key
        if handle._entry is not entry:
            return None  # given back before the check went out
        stands = yield from self._check(key, entry, conn_id)
        if handle._entry is not entry:
            return None  # given back while it was out: nobody asks
        if stands and self._entries.get(key) is entry:
            return True
        if stands is None:
            self.release_nowait(handle)
            self.late_denials += 1
            return None
        # Orphaned: the check said no, or a push dropped the entry meanwhile.
        handle._entry = None
        fresh = yield from self.acquire(*key, conn_id)
        if fresh is not None:
            fresh = fresh.standing((yield fresh.verdict))
        if fresh is None:
            self.late_denials += 1
        return fresh

    def _check(self, key: LeaseKey, entry: _Entry, conn_id: str):
        """Generator: one ``disc.lease_check`` → True (the lease stands),
        False (it does not; the entry is dropped if still current) or None
        (no answer)."""
        if not self._exported:
            self._exported = True
            obs = self.runtime.network.obs
            prefix = f"runtime.{self.runtime.entity.name}.leases"
            for counter in _COUNTERS:
                obs.bind(f"{prefix}.{counter}", self, counter, replace=True)
        trace = self.runtime.network.trace
        span = trace.begin("lease_check", conn_id, record_id=key[0], owner=key[1])
        try:
            stands = yield from self.runtime.discovery.lease_check(*key)
        except ConnectionTimeoutError:
            self.check_timeouts += 1
            trace.finish(span, status="timeout")
            return None
        if stands:
            trace.finish(span)
            return True
        self.check_denials += 1
        trace.finish(span, status="denied")
        if self._entries.get(key) is entry and entry.pending is None:
            del self._entries[key]
        return False

    def _unref(self, key: LeaseKey, entry: _Entry) -> None:
        entry.refs -= 1
        self._settle(key, entry)

    def _settle(self, key: LeaseKey, entry: _Entry) -> None:
        """Start the release once nothing references a settled entry."""
        if entry.refs == 0 and entry.pending is None:
            entry.pending = self.env.process(
                self._release(key, entry), name=f"release:{key[0]}"
            )

    def _reserve(self, key: LeaseKey, entry: _Entry):
        try:
            granted = yield from self.runtime.discovery.reserve(*key)
        except ConnectionTimeoutError:
            granted = False
        entry.pending = None
        entry.reserving = False
        if not granted:
            del self._entries[key]
            return False
        self._settle(key, entry)  # everyone who wanted it may be gone
        return True

    def _release(self, key: LeaseKey, entry: _Entry):
        try:
            yield from self.runtime.discovery.release(*key)
        except BerthaError:
            # Owed: the entry stays so that the next acquisition adopts
            # it (after a check) and its last release retries this one.
            self.runtime.release_failures += 1
            entry.pending = None
            return
        entry.pending = None
        if self._entries.get(key) is entry:
            del self._entries[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LeaseTable on {self.runtime.entity.name!r} "
            f"entries={len(self._entries)}>"
        )
