"""The rate-limiting Chunnel.

Token-bucket pacing of sends: an application opts into a byte- or
message-rate ceiling on a connection (client-side traffic shaping, of the
kind PicNIC-style systems enforce at the NIC — the paper cites PicNIC in
its §6 sharing discussion).  Meets the Chunnel criteria of §2: application
-relevant (the app opts in, and only its connection is affected — never a
host-wide policy), host-fallback-able, minimal, composable.

Implementation: a software token bucket in the client library.
"""

from __future__ import annotations

from collections import deque
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
from ..core.scope import Endpoints, Placement, Scope
from ..errors import ChunnelArgumentError
from ..sim.eventloop import Interrupt

__all__ = ["RateLimit", "RateLimitFallback"]


@register_spec
class RateLimit(ChunnelSpec):
    """Token-bucket pacing of this connection's sends.

    Parameters
    ----------
    bytes_per_second:
        Sustained rate ceiling.
    burst_bytes:
        Bucket depth: how much may leave back-to-back after idle.
    """

    type_name = "ratelimit"

    def __init__(self, bytes_per_second: float, burst_bytes: int = 16384):
        if bytes_per_second <= 0:
            raise ChunnelArgumentError("rate must be positive")
        if burst_bytes <= 0:
            raise ChunnelArgumentError("burst must be positive")
        super().__init__(
            bytes_per_second=float(bytes_per_second), burst_bytes=burst_bytes
        )


class _TokenBucketStage(ChunnelStage):
    """Pace sends with a token bucket; receives pass untouched.

    Conforming messages go straight down; non-conforming ones queue and a
    pacer process releases them as tokens refill.  Messages larger than
    the bucket are still sent (after draining the full bucket) rather than
    blackholed — an application-relevant Chunnel must not silently eat
    opted-in traffic.
    """

    def __init__(self, impl: ChunnelImpl, role: Role):
        super().__init__(impl, role)
        self.rate = impl.spec.args["bytes_per_second"]
        self.burst = impl.spec.args["burst_bytes"]
        self._tokens = float(self.burst)
        self._last_refill: Optional[float] = None
        self._queue: deque[Message] = deque()
        self._pacer = None
        self.messages_delayed = 0

    def start(self) -> None:
        self._last_refill = self.env.now

    def _refill(self) -> None:
        now = self.env.now
        if self._last_refill is None:
            self._last_refill = now
        self._tokens = min(
            float(self.burst),
            self._tokens + (now - self._last_refill) * self.rate,
        )
        self._last_refill = now

    def on_send(self, msg: Message) -> Iterable[Message]:
        self.charge(RateLimitFallback.PER_MESSAGE_COST)
        self._refill()
        cost = max(msg.size, 1)
        if not self._queue and self._tokens >= cost:
            self._tokens -= cost
            return [msg]
        self.messages_delayed += 1
        self._queue.append(msg)
        if self._pacer is None or not self._pacer.is_alive:
            self._pacer = self.env.process(self._drain(), name="ratelimit")
        return []

    def _drain(self):
        while self._queue:
            head = self._queue[0]
            cost = max(head.size, 1)
            self._refill()
            needed = min(cost, self.burst) - self._tokens
            if needed > 0:
                try:
                    yield self.env.timeout(needed / self.rate)
                except Interrupt:
                    return
                self._refill()
            self._tokens = max(self._tokens - cost, 0.0)
            self._queue.popleft()
            self.send_below(head)

    def stop(self) -> None:
        if self._pacer is not None and self._pacer.is_alive:
            self._pacer.interrupt("stack stopped")
        self._queue.clear()


@catalog.add
class RateLimitFallback(ChunnelImpl):
    """Software token bucket (always available)."""

    meta = ImplMeta(
        chunnel_type="ratelimit",
        name="sw",
        priority=10,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.CLIENT,
        placement=Placement.HOST_SOFTWARE,
        description="userspace token bucket",
    )

    PER_MESSAGE_COST = 0.15e-6

    def make_stage(self, role: Role) -> Optional[ChunnelStage]:
        return _TokenBucketStage(self, role) if role is Role.CLIENT else None

