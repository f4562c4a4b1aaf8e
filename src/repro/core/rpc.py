"""The control plane's one reliable-RPC primitive.

Establishment (``Endpoint._exchange``, which carries every OFFER and
RESUME), the discovery client, and the reconfiguration TRANSITION/ACK
exchange all follow the same loop — attempt-tagged send, bounded wait,
retry with (optionally backed-off, jittered) timeouts, match the reply,
give up after N attempts — and each used to hand-roll it.  This module
is that loop, written once:

* :class:`RetryPolicy` — the timing contract (base timeout, retry count,
  exponential backoff factor, cap, deterministic jitter);
* :func:`call` — the generator that drives one RPC to completion, charging
  a shared :class:`RpcStats`;
* :func:`socket_waiter` / :func:`event_waiter` — the two wait flavours:
  a fresh datagram per attempt window, or a pre-registered event an
  out-of-band deliverer (the connection pump) fulfils;
* :class:`ReplyCache` — the receiver side of the contract: a bounded FIFO
  of request key → cached verdict, replayed on retransmissions so retried
  requests stay at-most-once;
* :class:`RttEstimator` — the RFC 6298 RTO estimator adaptive waits read.

Semantics preserved from the hand-rolled loops (chaos-mode determinism
depends on them): each attempt waits for at most *one* reply up to its
timeout — a non-matching reply wastes the rest of the attempt window — and
a timed-out receive is cancelled so a mailbox getter does not swallow a
later datagram.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Any, Callable, Generator, Optional

from ..errors import ConnectionTimeoutError, DeadlineExceeded

__all__ = [
    "MISSING",
    "RetryPolicy",
    "RpcStats",
    "ReplyCache",
    "RttEstimator",
    "call",
    "socket_waiter",
    "event_waiter",
]

#: Sentinel distinguishing a :class:`ReplyCache` miss from a cached
#: ``None`` reply: ``cache.get(key, MISSING) is MISSING`` is the only
#: reliable miss test for handlers whose verdict may legitimately be None.
MISSING: Any = object()


class RetryPolicy:
    """Timing contract for one class of RPCs.

    ``timeout`` is the first attempt's wait; each further attempt waits
    ``timeout * backoff**attempt`` capped at ``max_timeout``, scaled by a
    deterministic ±``jitter`` fraction when the caller supplies an RNG
    (retransmit desynchronization without breaking reproducibility).

    ``deadline`` is an optional end-to-end budget: the maximum *total*
    elapsed time one :func:`call` may spend across every attempt.  Without
    it, ``timeout * backoff**attempt`` summed over ``retries`` attempts can
    blow far past any caller budget; with it, the final attempt's wait is
    clamped to whatever budget remains and a call that would start an
    attempt past the budget raises :class:`DeadlineExceeded` instead.
    """

    def __init__(
        self,
        timeout: float,
        retries: int,
        backoff: float = 1.0,
        max_timeout: Optional[float] = None,
        jitter: float = 0.0,
        deadline: Optional[float] = None,
    ):
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout!r}")
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries!r}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff!r}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")
        if deadline is not None and deadline < timeout:
            raise ValueError(
                f"deadline must cover at least one attempt "
                f"(deadline={deadline!r} < timeout={timeout!r})"
            )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_timeout = max_timeout
        self.jitter = jitter
        self.deadline = deadline

    def attempt_timeout(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """The wait budget for the given 0-based attempt."""
        base = self.timeout * (self.backoff**attempt)
        if self.max_timeout is not None:
            base = min(base, self.max_timeout)
        if self.jitter and rng is not None:
            base *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RetryPolicy timeout={self.timeout} retries={self.retries} "
            f"backoff={self.backoff}>"
        )


class RpcStats:
    """Shared counters one RPC caller accumulates across calls.

    The chaos experiment reads these; every control-plane dialect charging
    the same counter names is what makes retransmit metrics uniform.
    """

    __slots__ = ("round_trips", "retransmits_total", "late_replies", "failures_total")

    def __init__(self) -> None:
        self.round_trips = 0
        self.retransmits_total = 0
        self.late_replies = 0
        self.failures_total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RpcStats rt={self.round_trips} rtx={self.retransmits_total} "
            f"late={self.late_replies} fail={self.failures_total}>"
        )


class ReplyCache:
    """Bounded FIFO of request key → cached reply (at-most-once dedup).

    Retransmissions arrive within a retry window, so evicting the oldest
    entries once past ``limit`` is safe — by then the requester has either
    its answer or its timeout.  A re-``put`` of an existing key moves it to
    the back of the eviction order: a hot, still-retransmitting request
    must outlive entries nobody has asked about since.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"cache limit must be >= 1, got {limit!r}")
        self.limit = limit
        self._items: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any, default: Any = None) -> Any:
        """The cached reply, or ``default`` on a miss.  Pass
        :data:`MISSING` as the default to distinguish a cached ``None``."""
        return self._items.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.limit:
            self._items.popitem(last=False)

    def clear(self) -> None:
        self._items.clear()

    def __contains__(self, key: Any) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReplyCache {len(self._items)}/{self.limit}>"


#: RFC 6298's ``G``, the least margin an RTO keeps over ``srtt``: a steady
#: simulated path drives ``rttvar`` to zero.  At 1 us ``faults_recovery``
#: resent ~1 frame per op, at 10 us 0.2; 20 us (a fabric round trip's four
#: link crossings) also rides out small reordering delays.
RTO_MIN_MARGIN = 20e-6


class RttEstimator:
    """Smoothed RTT and its variance (RFC 6298); callers apply Karn's rule.
    :meth:`rto` is ``srtt + max(RTO_MIN_MARGIN, 4 * rttvar)`` clamped into
    ``[floor, ceiling]``, and ``ceiling`` alone until the first sample."""

    __slots__ = ("srtt", "rttvar")

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar = 0.0

    def observe(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample

    def rto(self, floor: float, ceiling: float) -> float:
        if self.srtt is None:
            return ceiling
        wanted = self.srtt + max(RTO_MIN_MARGIN, 4.0 * self.rttvar)
        return min(max(wanted, floor), ceiling)


def call(
    env: Any,
    policy: RetryPolicy,
    send: Callable[[int], None],
    wait: Callable[[int, float], Generator[Any, Any, Any]],
    stats: Optional[RpcStats] = None,
    rng: Optional[random.Random] = None,
    describe: str = "rpc",
    trace: Optional[Any] = None,
    conn_id: str = "",
    deadline: Optional[float] = None,
) -> Generator[Any, Any, Any]:
    """Generator: drive one RPC to a matched reply or exhaustion.

    Per attempt: ``send(attempt)`` transmits (the attempt tag lets
    receivers echo it for late-reply detection), then ``wait(attempt,
    timeout)`` — a generator — returns the matched reply or None on
    timeout/mismatch.  A matched reply is returned (counted as a round
    trip); exhausting ``policy.retries`` raises
    :class:`ConnectionTimeoutError` (counted as a failure).  ``wait`` may
    raise to abort early — e.g. a peer-reported negotiation error.

    ``deadline`` is an *absolute* virtual-time budget (``env.now`` units),
    merged with the policy's relative :attr:`RetryPolicy.deadline` into one
    effective limit.  Attempt waits are clamped to the remaining budget;
    once it is spent the call raises :class:`DeadlineExceeded` (counted as
    a failure) carrying elapsed/attempt context.  Nested control-plane
    loops pass the same absolute deadline down so discovery, negotiation,
    and reservation retries share a single elapsed-time budget.

    ``trace`` (a :class:`repro.obs.TraceLog`) records the whole call as
    one ``rpc`` span — attrs carry ``call=describe`` plus the attempt
    count — tagged with ``conn_id`` when the caller has one.
    """
    stats = stats if stats is not None else RpcStats()
    start = env.now
    limit: Optional[float] = None
    if policy.deadline is not None:
        limit = start + policy.deadline
    if deadline is not None:
        limit = deadline if limit is None else min(limit, deadline)
    span = (
        trace.begin("rpc", conn_id, call=describe) if trace is not None else None
    )
    try:
        for attempt in range(policy.retries):
            window = policy.attempt_timeout(attempt, rng)
            if limit is not None:
                remaining = limit - env.now
                if remaining <= 0:
                    stats.failures_total += 1
                    if span is not None:
                        trace.finish(span, status="deadline", attempts=attempt)
                    raise DeadlineExceeded(
                        f"{describe}: deadline exceeded after "
                        f"{env.now - start:.6f}s and {attempt} attempts",
                        elapsed=env.now - start,
                        attempts=attempt,
                    )
                window = min(window, remaining)
            if attempt:
                stats.retransmits_total += 1
            send(attempt)
            reply = yield from wait(attempt, window)
            if reply is None:
                continue
            stats.round_trips += 1
            if span is not None:
                trace.finish(span, attempts=attempt + 1)
            return reply
        stats.failures_total += 1
        if limit is not None and env.now >= limit:
            if span is not None:
                trace.finish(span, status="deadline", attempts=policy.retries)
            raise DeadlineExceeded(
                f"{describe}: deadline exceeded after "
                f"{env.now - start:.6f}s and {policy.retries} attempts",
                elapsed=env.now - start,
                attempts=policy.retries,
            )
        if span is not None:
            trace.finish(span, status="timeout", attempts=policy.retries)
        raise ConnectionTimeoutError(
            f"{describe}: no answer after {policy.retries} attempts"
        )
    except BaseException:
        if span is not None and span.end is None:
            trace.finish(span, status="error")
        raise


def socket_waiter(
    env: Any,
    socket: Any,
    match: Callable[[Any, int], Any],
) -> Callable[[int, float], Generator[Any, Any, Any]]:
    """A ``wait`` over a datagram socket.

    Each attempt window waits for at most one datagram; ``match(dgram,
    attempt)`` returns the reply to deliver or None to discard (a discard
    wastes the remaining window — the pre-refactor semantics all three
    hand-rolled loops shared).  A timed-out receive is cancelled
    (``succeed(None)``) so the mailbox getter cannot swallow a later
    datagram.
    """

    def wait(attempt: int, timeout: float) -> Generator[Any, Any, Any]:
        deadline = env.timeout(timeout)
        receive = socket.recv()
        yield env.any_of([receive, deadline])
        if not receive.processed:
            if not receive.triggered:
                receive.succeed(None)  # cancel (Store.put skips triggered getters)
            return None
        return match(receive.value, attempt)

    return wait


def event_waiter(
    env: Any, event: Any
) -> Callable[[int, float], Generator[Any, Any, Any]]:
    """A ``wait`` over one pre-registered event.

    For exchanges whose replies arrive out-of-band — the reconfiguration
    ACK is delivered by the connection pump into an event the initiator
    parked per epoch — every attempt watches the same event; retransmits
    merely re-send.
    """

    def wait(attempt: int, timeout: float) -> Generator[Any, Any, Any]:
        deadline = env.timeout(timeout)
        yield env.any_of([event, deadline])
        if event.processed:
            return event.value
        return None

    return wait
