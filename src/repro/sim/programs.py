"""Packet programs: the common interface for in-path offload logic.

Programmable switches, SmartNICs and XDP-like kernel fast paths all run the
same kind of logic — match a datagram, optionally rewrite it, and decide what
happens next.  This module defines that interface once so Chunnel offload
implementations (e.g. the XDP sharder, the switch multicast sequencer) can be
installed on any of the three device classes.

A program's ``handle`` returns a :class:`ProgramResult`:

* ``PASS`` — continue toward the current destination;
* ``REDIRECT`` — the program rewrote ``dgram.dst``; delivery re-routes;
* ``DROP`` — the datagram is discarded (counted, not an error);
* ``CLONE`` — ``clones`` contains additional datagrams to deliver as well
  (used by multicast programs); the original continues per ``action_after``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .datagram import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .resources import Station

__all__ = ["PacketAction", "ProgramResult", "PacketProgram", "LossProgram"]


class PacketAction(enum.Enum):
    """What the data path should do after a program ran."""

    PASS = "pass"
    REDIRECT = "redirect"
    DROP = "drop"
    CLONE = "clone"


@dataclass
class ProgramResult:
    """Outcome of running one packet program on one datagram."""

    action: PacketAction = PacketAction.PASS
    clones: list[Datagram] = field(default_factory=list)
    # What happens to the *original* datagram after cloning.
    action_after: PacketAction = PacketAction.PASS


class PacketProgram:
    """In-path logic installable on a switch, SmartNIC, or host fast path.

    Subclasses implement ``match`` (does this program apply to this
    datagram?) and ``handle`` (mutate/route it).  ``station`` optionally
    names the queueing station that models the program's processing cost; the
    hosting device submits matched datagrams there before applying the
    result, so program capacity limits show up as queueing delay.
    """

    def __init__(self, name: str, station: Optional["Station"] = None):
        self.name = name
        self.station = station
        self.matched = 0
        self.dropped = 0

    def clear(self) -> None:
        """Drop the soft state a device restart loses: a switch calls it
        when it fails and when it recovers (default: nothing)."""

    def run(self, dgram: Datagram) -> ProgramResult:
        """Bookkeeping wrapper used by devices; calls :meth:`handle`."""
        self.matched += 1
        result = self.handle(dgram)
        if result.action is PacketAction.DROP:
            self.dropped += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} matched={self.matched}>"


class LossProgram(PacketProgram):
    """Fault injection: drop matching datagrams.

    Install on a switch (or host fast path) to exercise loss handling —
    reliability retransmission, multicast gap recovery.  Two modes:

    * ``drop_first=n`` — drop the first *n* matching datagrams, then pass
      everything (deterministic, good for "exactly one retransmission"
      tests);
    * ``drop_rate=p`` — drop each matching datagram with probability *p*
      from a seeded RNG (reproducible random loss).
    """

    def __init__(
        self,
        name: str,
        predicate: Optional[Callable[[Datagram], bool]] = None,
        drop_first: int = 0,
        drop_rate: float = 0.0,
        seed: int = 0,
    ):
        super().__init__(name)
        if drop_rate < 0 or drop_rate > 1:
            raise ValueError("drop_rate must be in [0, 1]")
        self.predicate = predicate or (lambda _dgram: True)
        self.remaining_forced_drops = drop_first
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)

    def match(self, dgram: Datagram) -> bool:
        return self.predicate(dgram)

    def handle(self, dgram: Datagram) -> ProgramResult:
        if self.remaining_forced_drops > 0:
            self.remaining_forced_drops -= 1
            return ProgramResult(action=PacketAction.DROP)
        if self.drop_rate > 0 and self._rng.random() < self.drop_rate:
            return ProgramResult(action=PacketAction.DROP)
        return ProgramResult(action=PacketAction.PASS)
