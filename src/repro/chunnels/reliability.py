"""The reliability Chunnel (Listing 5's ``reliable``).

Positive-ack reliable delivery over datagrams: the sender buffers each
message, retransmits on an adaptive timer, and gives up after a bounded
number of attempts; the receiver acks all and suppresses duplicates.  This is
the classic ``endpoints::Both`` Chunnel — both sides must run the protocol,
so negotiation only chooses it when both processes registered it (§4.3's
worked example: "the negotiation process for the reliability Chunnel first
checks whether compatible implementations are available at both client and
server; the connection fails in the absence of the implementations").

Two implementations: the software fallback and a SmartNIC "TOE-lite" that
runs the same protocol with near-zero host CPU cost (standing in for the
TCP-offload-engine class of hardware the paper discusses in §2).  Either
can replace the other mid-connection — the NIC fails, a migration lands on
another host's NIC — because the replacement stage adopts the old one's
state (:meth:`_ReliableStage.adopt_state`): numbering, frozen window, RTT
estimate and dedup table, so delivery stays exactly-once across the swap.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..core.chunnel import (
    ChunnelImpl,
    ChunnelSpec,
    ChunnelStage,
    ImplMeta,
    Message,
    Role,
    register_spec,
)
from ..core.registry import catalog
from ..core.resources import NIC_SLOTS, ResourceVector
from ..core.rpc import RttEstimator
from ..core.scope import Endpoints, Placement, Scope

__all__ = ["Reliable", "ReliableFallback", "ReliableToe"]

_KIND = "rel_kind"
_SEQ = "rel_seq"
_DATA = "data"
_ACK = "ack"
#: Marks every copy after the first (retransmission or replay); acks echo
#: it, so the sender knows which copy an ack answers, as TCP timestamps do.
_RESENT = "rel_resent"


class _RetxTimer:
    """Process-free retransmit timer: one heap slot per attempt, none per ack.

    The historical timer was a generator :class:`~repro.sim.eventloop.Process`
    per in-flight message: a bootstrap event at send time, one ``Timeout``
    per attempt, and an interruption event per ack — three heap entries and
    a generator resume on the happy path of *every* reliable message.  Now
    the first check is scheduled straight from the constructor and an ack
    kills the timer with a flag write: the already-scheduled check fires
    into a dead timer and does nothing.  The first wait is the stage's
    :meth:`~_ReliableStage.rto`, doubled per attempt up to ``timeout``; a
    timer firing after the stage backed off further waits that out first,
    as one connection-wide timer would.  ``sent_at`` dates the first copy.
    """

    __slots__ = ("stage", "seq", "remaining", "dead", "wait", "sent_at")

    def __init__(self, stage: "_ReliableStage", seq: int):
        self.stage = stage
        self.seq = seq
        self.remaining = stage.max_retries
        self.dead = False
        self.sent_at = stage.env.now
        if self.remaining == 0:
            # max_retries == 0: the historical loop body never ran and the
            # message was abandoned at bootstrap time (send time + 0).
            stage.env.call_in(0.0, self._abandon_now)
        else:
            self.wait = stage.rto()
            stage.env.call_in(self.wait, self._check)

    @property
    def is_alive(self) -> bool:
        return not self.dead

    def interrupt(self, cause: object = None) -> None:
        """Stop the timer (ack / migration freeze / stack stop)."""
        self.dead = True

    def _abandon_now(self) -> None:
        stage = self.stage
        self.dead = True
        if stage._unacked.pop(self.seq, None) is not None:
            stage.abandoned += 1
        stage._timers.pop(self.seq, None)

    def _check(self) -> None:
        if self.dead:
            return
        stage = self.stage
        pending = stage._unacked.get(self.seq)
        if pending is None or stage._stopped:
            self.dead = True
            return
        if stage.backoff > self.wait:
            stage.env.call_in(stage.backoff - self.wait, self._check)
            self.wait = stage.backoff
            return
        stage.retransmissions += 1
        pending.headers[_RESENT] = True
        stage.send_below(pending.copy())
        self.remaining -= 1
        self.wait = min(2.0 * self.wait, stage.timeout)
        stage.backoff = max(stage.backoff, self.wait)
        if self.remaining:
            stage.env.call_in(self.wait, self._check)
            return
        self.dead = True
        if stage._unacked.pop(self.seq, None) is not None:
            stage.abandoned += 1
        stage._timers.pop(self.seq, None)


@register_spec
class Reliable(ChunnelSpec):
    """At-least-once delivery with duplicate suppression.

    Parameters
    ----------
    timeout:
        Seconds: the wait before the first RTT sample and the ceiling on
        every wait.  After samples, ``srtt + max(20 us, 4 * rttvar)`` (RFC
        6298) doubled per attempt, so ``max_retries * timeout`` still bounds
        retrying and a path slower than ``timeout`` sees a fixed timer.
    max_retries:
        Retransmissions before the message is abandoned.
    """

    def __init__(self, timeout: float = 200e-6, max_retries: int = 5):
        if timeout <= 0:
            raise ValueError("retransmission timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        super().__init__(timeout=timeout, max_retries=max_retries)

    type_name = "reliable"


class _ReliableStage(ChunnelStage):
    """Sender buffering + receiver acking, with per-message CPU charge."""

    def __init__(self, impl: ChunnelImpl, role: Role, per_message_cost: float):
        super().__init__(impl, role)
        self.timeout = impl.spec.args["timeout"]
        self.max_retries = impl.spec.args["max_retries"]
        self.per_message_cost = per_message_cost
        self._seq = itertools.count(1)
        self._unacked: dict[int, Message] = {}
        self._timers: dict[int, object] = {}
        self._delivered: set[tuple[Optional[str], int]] = set()
        self.rtt = RttEstimator()
        #: RFC 6298 section 5.5: a timeout's doubled wait, kept for every
        #: frame until an ack yields a new sample.
        self.backoff = 0.0
        self.retransmissions = 0
        self.abandoned = 0
        self.duplicates_suppressed = 0
        self.replays = 0
        self._stopped = False

    # -- send side --------------------------------------------------------
    def on_send(self, msg: Message) -> Iterable[Message]:
        seq = next(self._seq)
        msg.headers[_KIND] = _DATA
        msg.headers[_SEQ] = seq
        self.charge(self.per_message_cost)
        self._unacked[seq] = msg.copy()
        self._timers[seq] = _RetxTimer(self, seq)
        return [msg]

    # -- receive side -------------------------------------------------------
    def on_recv(self, msg: Message) -> Iterable[Message]:
        kind = msg.headers.get(_KIND)
        if kind == _ACK:
            seq = msg.headers.get(_SEQ)
            self._unacked.pop(seq, None)
            timer = self._timers.pop(seq, None)
            if timer is not None and timer.is_alive:
                timer.interrupt("acked")
                # Karn's rule, exact: only a first copy's ack is a sample,
                # even if a timer fired early, so jitter is learned.
                if _RESENT not in msg.headers:
                    self.rtt.observe(self.env.now - timer.sent_at)
                    self.backoff = 0.0
            self._after_ack(seq)
            return []  # acks never reach the application
        if kind == _DATA:
            seq = msg.headers.get(_SEQ)
            source = msg.src.host if msg.src else None
            self.charge(self.per_message_cost)
            ack = Message(
                payload=b"",
                size=16,
                headers={_KIND: _ACK, _SEQ: seq},
                dst=msg.src,
            )
            if _RESENT in msg.headers:
                ack.headers[_RESENT] = True
            self.send_below(ack)
            key = (source, seq)
            if key in self._delivered:
                self.duplicates_suppressed += 1
                return []
            self._delivered.add(key)
            return [msg]
        # Not a reliability frame (pre-negotiation traffic etc.): pass up.
        return [msg]

    def rto(self) -> float:
        """The first retransmit wait for a frame sent now."""
        return max(self.rtt.rto(0.0, self.timeout), self.backoff)

    def _after_ack(self, seq: int) -> None:
        """Hook for subclasses reacting to acks (e.g. window opening)."""

    # -- migration support --------------------------------------------------
    # The failover engine (repro.core.failover) carries this stage across a
    # peer migration: the unacked window IS the connection's transport
    # state, so freezing it at suspicion time (instead of letting retransmit
    # budgets drain against a dead peer) and replaying it to the standby is
    # what makes delivery exactly-once with zero app loss across a crash.
    def freeze_retransmits(self) -> int:
        """Stop retransmit timers without abandoning their messages.

        Called at suspicion time: the peer is presumed dead, so further
        retransmissions are wasted and — worse — a timer that exhausts
        ``max_retries`` mid-blackout would abandon a message the standby
        could still receive.  Returns the number of frozen messages.
        """
        for timer in self._timers.values():
            if timer.is_alive:
                timer.interrupt("migration freeze")
        self._timers.clear()
        return len(self._unacked)

    def replay_unacked(self) -> int:
        """Re-send the frozen unacked window (in sequence order) and
        restart its retransmit timers.

        Called after the migration handshake commits: the stage object
        itself survived the transition (an unchanged DAG node is carried
        over by ``build_binding(reuse=...)``) or its successor took the
        frozen entries over (:meth:`adopt_state`), so ``_unacked`` still
        holds every message the old peer never acked.  The standby's
        receive side has never seen this sender's sequence numbers, so each
        replay delivers exactly once.  Returns the number of messages
        replayed.  Replays are marked resent (no samples); a standby slower
        than the old peer's estimate backs the stage off until its acks
        re-measure.
        """
        replayed = 0
        for seq in sorted(self._unacked):
            self._unacked[seq].headers[_RESENT] = True
            self.send_below(self._unacked[seq].copy())
            self._timers[seq] = _RetxTimer(self, seq)
            replayed += 1
        self.replays += replayed
        return replayed

    def adopt_state(self, predecessor: ChunnelStage) -> None:
        """Continue the reliability stage this one replaces, so delivery
        stays exactly-once across the swap (PROTOCOL.md §5.2):

        * number on past its next sequence number: the receiver dedups on
          ``(sender, seq)``, so restarting at 1 would swallow new messages
          as duplicates of the predecessor's;
        * share its RTT estimator and back-off;
        * take over its frozen entries (unacked, no timer: a migration
          froze them), so the replay still covers them; a live predecessor
          keeps retransmitting its own frames until it is retired;
        * share its dedup table, so a straggler routed to either stage —
          a broken offload's stack is bypassed, an old-epoch retransmit
          arrives after a migration — is suppressed by both.
        """
        if not isinstance(predecessor, _ReliableStage):
            return
        self._seq = itertools.count(next(predecessor._seq))
        self.rtt = predecessor.rtt
        self.backoff = predecessor.backoff
        for seq, message in predecessor._unacked.items():
            if seq not in predecessor._timers:
                self._unacked[seq] = message.copy()
        self._delivered = predecessor._delivered

    def stop(self) -> None:
        self._stopped = True
        for timer in self._timers.values():
            if timer.is_alive:
                timer.interrupt("stack stopped")
        self._timers.clear()


@catalog.add
class ReliableFallback(ChunnelImpl):
    """Software ack/retransmit (always available on any host)."""

    meta = ImplMeta(
        chunnel_type="reliable",
        name="sw",
        priority=10,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.BOTH,
        placement=Placement.HOST_SOFTWARE,
        description="userspace ack/retransmit",
    )

    PER_MESSAGE_COST = 0.5e-6

    def make_stage(self, role: Role) -> ChunnelStage:
        return _ReliableStage(self, role, self.PER_MESSAGE_COST)


@catalog.add
class ReliableToe(ChunnelImpl):
    """SmartNIC reliability offload ("TOE-lite", §2's TCP offload engines).

    Runs the same ack protocol but charges (almost) no host CPU: the NIC
    tracks the unacked window.  Negotiation picks it over the fallback when
    the discovery service registered it at the host and a NIC slot is free.
    """

    meta = ImplMeta(
        chunnel_type="reliable",
        name="toe",
        priority=75,
        scope=Scope.HOST,
        endpoints=Endpoints.ANY,
        placement=Placement.SMARTNIC,
        resources=ResourceVector({NIC_SLOTS: 1}),
        description="NIC-offloaded ack/retransmit",
    )

    PER_MESSAGE_COST = 0.02e-6

    def make_stage(self, role: Role) -> ChunnelStage:
        return _ReliableStage(self, role, self.PER_MESSAGE_COST)
