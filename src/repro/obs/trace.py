"""Connection-lifecycle tracing on virtual time.

A :class:`TraceLog` records structured spans stamped with the simulation
clock: the phases a connection moves through (``negotiate`` → ``reserve``
→ ``establish`` → ``data`` → ``reconfig`` epoch N → ``teardown``), the
RPC exchanges the control plane rides on, and the chaos controller's
fault actions.  All times are virtual, so two same-seed runs record
identical spans — tracing, like the metrics registry, never perturbs
determinism.

Spans come in two flavours:

* **intervals** — ``begin(phase, conn_id)`` returns an open
  :class:`Span`; ``finish(span)`` stamps the end time and a status
  (``"ok"`` / ``"error"`` / anything the caller reports);
* **events** — ``event(phase, conn_id)`` records a zero-duration span,
  for instants like a chaos action or a teardown.

Canonical phase names used by the core (free-form strings; these are the
ones the establishment pipeline, RPC core, reconfiguration engine, and
fault injector emit):

====================  ====================================================
``negotiate``         client connect: discovery query + offer/accept
``resume``            one-RTT resumption attempt (client send / server
                      revalidation; status ``fallback``/``reject`` on miss)
``reserve``           resource reservation during a decision
``lease_check``       one check of a lease the runtime holds, from sending
                      it to the verdict (status ``ok``/``denied``/
                      ``timeout``); may end after the accept went out
``establish``         instantiate + setup + after-establish pipeline
``data``              first application payload delivered (per connection)
``reconfig``          one transition attempt (attrs carry epoch/outcome)
``migrate``           one mid-connection failover attempt (client span
                      from suspicion to commit/park; server adoption
                      events carry the migration epoch)
``park``              a connection parked degraded (no standby), and the
                      instant it resumed (attrs carry ``resumed``)
``teardown``          connection close
``rpc``               one reliable-RPC call (attrs carry attempts/outcome)
``chaos``             one fault-controller action
====================  ====================================================
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Span", "TraceLog"]


class Span:
    """One traced interval (or instant, when ``end == start``)."""

    __slots__ = ("phase", "conn_id", "start", "end", "status", "attrs")

    def __init__(
        self,
        phase: str,
        conn_id: str,
        start: float,
        end: Optional[float] = None,
        status: str = "open",
        attrs: Optional[dict] = None,
    ):
        self.phase = phase
        self.conn_id = conn_id
        self.start = start
        self.end = end
        self.status = status
        self.attrs: dict[str, Any] = dict(attrs or {})

    @property
    def duration(self) -> Optional[float]:
        """Seconds of virtual time covered, or None while still open."""
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        window = (
            f"[{self.start:.6f}..{'' if self.end is None else f'{self.end:.6f}'}]"
        )
        return f"<Span {self.phase} {self.conn_id} {window} {self.status}>"


#: Shared sentinel returned once a capped log overflows: no :class:`Span`
#: (or attrs dict) is built for a span that will not be kept, so tracing
#: past the cap costs one length check.  ``finish`` on it is a no-op.
_DROPPED_SPAN = Span("", "", 0.0, end=0.0, status="dropped")


class TraceLog:
    """Append-only log of lifecycle spans for one simulated world."""

    def __init__(self, env):
        self.env = env
        self.spans: list[Span] = []
        #: Optional cap on recorded spans.  Fleet-scale worlds set this so
        #: tracing stays O(limit): the first ``limit`` spans are kept,
        #: later ones are counted in ``dropped`` (deterministic — event
        #: order is seeded, so two same-seed runs drop identically).
        self.limit: Optional[int] = None
        self.dropped = 0

    # -- recording ----------------------------------------------------------
    def begin(self, phase: str, conn_id: str = "", **attrs: Any) -> Span:
        """Open an interval span at the current virtual time."""
        if self.limit is not None and len(self.spans) >= self.limit:
            self.dropped += 1
            return _DROPPED_SPAN
        span = Span(phase, conn_id, start=self.env.now, attrs=attrs)
        self.spans.append(span)
        return span

    def finish(self, span: Span, status: str = "ok", **attrs: Any) -> Span:
        """Close ``span`` now; extra attrs merge into the span's."""
        if span is _DROPPED_SPAN:
            return span
        span.end = self.env.now
        span.status = status
        span.attrs.update(attrs)
        return span

    def event(self, phase: str, conn_id: str = "", **attrs: Any) -> Span:
        """Record an instant (a closed zero-duration span)."""
        if self.limit is not None and len(self.spans) >= self.limit:
            self.dropped += 1
            return _DROPPED_SPAN
        now = self.env.now
        span = Span(phase, conn_id, start=now, end=now, status="ok", attrs=attrs)
        self.spans.append(span)
        return span

    # -- queries ------------------------------------------------------------
    def select(
        self, phase: Optional[str] = None, conn_id: Optional[str] = None
    ) -> list[Span]:
        """Spans filtered by phase and/or connection id (insertion order —
        i.e. by start time)."""
        return [
            span
            for span in self.spans
            if (phase is None or span.phase == phase)
            and (conn_id is None or span.conn_id == conn_id)
        ]

    def lifecycle(self, conn_id: str) -> list[str]:
        """The phase sequence one connection moved through."""
        return [span.phase for span in self.select(conn_id=conn_id)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceLog {len(self.spans)} spans>"
