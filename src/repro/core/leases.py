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
from ..sim.eventloop import Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import Runtime

__all__ = ["LeaseHandle", "LeaseTable"]

LeaseKey = tuple[str, str]


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

    __slots__ = ("record_id", "owner", "_entry")

    def __init__(self, record_id: str, owner: str, entry: _Entry):
        self.record_id = record_id
        self.owner = owner
        self._entry: Optional[_Entry] = entry

    @property
    def key(self) -> LeaseKey:
        return (self.record_id, self.owner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._entry is None else "held"
        return f"<LeaseHandle {self.record_id} for {self.owner!r} {state}>"


class LeaseTable:
    """A runtime's references on discovery leases (see the module docs)."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.env = runtime.env
        self._entries: dict[LeaseKey, _Entry] = {}
        #: Checks answered "no" or not at all.
        self.check_failures = 0

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
    def acquire(self, record_id: str, owner: str):
        """Generator → a :class:`LeaseHandle`, or None when discovery
        refuses (or cannot be reached: an unconfirmable lease is a denial,
        which steers the decision to the next-ranked offer).

        Holding no reference, this reserves (joining a reserve already in
        flight for the key).  Holding one, it asks whether the lease still
        stands; a "no" drops the entry — the references taken under it are
        orphaned — and reserves afresh, re-running admission.  A check
        that times out is a denial, not "assume held"; the entry stays,
        since the connections bound under it still are.
        """
        key = (record_id, owner)
        discovery = self.runtime.discovery
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
                return LeaseHandle(record_id, owner, entry) if granted else None
            try:
                stands = yield from discovery.lease_check(record_id, owner)
            except ConnectionTimeoutError:
                self.check_failures += 1
                return None
            current = self._entries.get(key) is entry and entry.pending is None
            if stands and current:
                entry.refs += 1
                return LeaseHandle(record_id, owner, entry)
            if not stands:
                self.check_failures += 1
                if current:
                    del self._entries[key]

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
