"""The negotiation-result cache behind one-RTT resumption (PROTOCOL.md §7).

Bertha's §4.3 negotiation runs a full DAG-exchange → offer-gathering →
policy-rank → reservation walk on *every* connect — the overhead the CCR
follow-up argues should be amortized across connections to the same peer
under an unchanged policy.  This module is the amortization state: a
bounded LRU+TTL map from a resumption key to the previously negotiated
binding, kept symmetrically by clients (keyed on the peer) and servers
(keyed on the client entity).

The cache is a pure optimization and is **disabled by default**
(``Runtime(negotiation_cache_size=0)``): with it off, not a single wire
byte or timing changes, which is what keeps the recorded chaos baselines
byte-identical.  Correctness never rests on invalidation — a resuming
server still revalidates every resource reservation against discovery, so
a stale entry costs one rejected round trip, never a stale binding.
Invalidation exists to keep the hit rate honest:

* **tags** — each entry carries a tag set (discovery record ids its choice
  uses, the DAG fingerprint); revocation pushes and reconfiguration
  commits evict by tag;
* **TTL** — entries older than ``ttl`` virtual seconds read as misses;
* **policy epoch** — bumping a runtime's policy epoch clears its cache
  (the epoch is also part of every key, so pre-bump entries could never
  be returned anyway).

Counters (``hits``/``misses``/``invalidations``/``fallbacks``) are plain
attributes the owning :class:`~repro.core.runtime.Runtime` binds into the
world's metrics registry under ``negcache.<entity>.*``.

A RESUME names what both ends cached instead of carrying it: the
:func:`binding_digest` of the accepted ``(dag, choice)`` and the
:func:`shape_digest` of the client's DAG, each computed once, when an
entry is stored.  A cold OFFER that names offers by reference carries
the same kind of digest over the lists it expands to
(:func:`offers_digest`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional

from .chunnel import Offer
from .dag import ChunnelDag
from .wire import Digest, canonical_encoder

__all__ = [
    "CacheEntry",
    "NegotiationCache",
    "binding_digest",
    "offers_digest",
    "shape_digest",
]

_binding_bytes = canonical_encoder(tuple[ChunnelDag, dict[int, Offer]])
_offers_bytes = canonical_encoder(
    tuple[dict[str, list[Offer]], dict[str, list[Offer]]]
)
_shape_bytes = canonical_encoder(Any)


def _digest(data: bytes) -> Digest:
    """The first 16 bytes of ``data``'s SHA-256, as hex."""
    return Digest(hashlib.sha256(data).hexdigest()[: Digest.HEX_DIGITS])


def binding_digest(dag: ChunnelDag, choice: dict[int, Offer]) -> Digest:
    """The digest of a negotiated binding: over the canonical wire encoding
    of ``(dag, choice)``, which is the same bytes at the deciding server
    and at the client that decoded them from the ACCEPT (PROTOCOL.md §7.1).
    Any difference in an argument, a record id or an offer's resources
    changes it."""
    return _digest(_binding_bytes((dag, choice)))


def offers_digest(
    offers: dict[str, list[Offer]], network_offers: dict[str, list[Offer]]
) -> Digest:
    """The digest of an OFFER's fully expanded client and network offer
    lists: the client computes it before naming offers by reference, the
    listener over what the references resolve to (PROTOCOL.md §1.2)."""
    return _digest(_offers_bytes((offers, network_offers)))


def shape_digest(dag: ChunnelDag) -> Digest:
    """The digest of ``dag.canonical_shape()``: the server's resume key
    names the client DAG by it."""
    return _digest(_shape_bytes(dag.canonical_shape()))


@dataclass
class CacheEntry:
    """One cached negotiation result."""

    value: dict
    created_at: float
    tags: frozenset = field(default_factory=frozenset)


class NegotiationCache:
    """Bounded LRU of resumption key → negotiated binding, with TTL and
    tag-based invalidation.

    ``size`` 0 disables the cache entirely: lookups miss without counting,
    stores are dropped, and no owner behaviour changes.  ``clock`` supplies
    the current virtual time for TTL checks (``env.now``).
    """

    def __init__(
        self,
        size: int = 0,
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if size < 0:
            raise ValueError(f"cache size must be >= 0, got {size!r}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive, got {ttl!r}")
        self.size = size
        self.ttl = ttl
        self._clock = clock or (lambda: 0.0)
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.fallbacks = 0

    @property
    def enabled(self) -> bool:
        return self.size > 0

    # -- the fast path ------------------------------------------------------
    def lookup(self, key: Hashable) -> Optional[dict]:
        """The cached binding for ``key``, or None (counted as hit/miss).

        An entry past its TTL is evicted and reads as a miss; a hit moves
        the entry to the back of the LRU order.
        """
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is not None and self.ttl is not None:
            if (self._clock() - entry.created_at) > self.ttl:
                del self._entries[key]
                entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.value

    def store(
        self, key: Hashable, value: dict, tags: Iterable[Any] = ()
    ) -> None:
        """Remember a negotiated binding (no-op while disabled)."""
        if not self.enabled:
            return
        self._entries[key] = CacheEntry(
            value=value, created_at=self._clock(), tags=frozenset(tags)
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.size:
            self._entries.popitem(last=False)

    # -- invalidation -------------------------------------------------------
    def invalidate_tag(self, tag: Any) -> int:
        """Evict every entry carrying ``tag``; returns the eviction count.

        Wired to discovery revocation pushes (tag = record id) and to
        reconfiguration commits (tag = DAG fingerprint).
        """
        stale = [k for k, e in self._entries.items() if tag in e.tags]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    @staticmethod
    def instance_tag(host: str) -> str:
        """The tag under which entries bound to a serving host are stored
        (``instance:<host>``).  Connect and migration store sites stamp
        it; :meth:`suspect_instance` evicts by it."""
        return f"instance:{host}"

    def suspect_instance(self, host: str) -> int:
        """Evict every entry bound to a suspected/crashed serving host.

        Failure suspicion (PROTOCOL.md §9) calls this the moment a peer
        is declared dead — *not* waiting for TTL or a revocation push —
        so no connect or migration resumes against the corpse and burns
        a timeout chain inside its deadline budget.  Returns the
        eviction count.
        """
        return self.invalidate_tag(self.instance_tag(host))

    def invalidate_all(self) -> int:
        """Evict everything (policy-epoch bump); returns the count."""
        count = len(self._entries)
        self._entries.clear()
        self.invalidations += count
        return count

    def note_fallback(self, key: Hashable) -> None:
        """A resumption attempt for ``key`` was rejected or timed out: the
        entry is evicted (it just proved stale) and the fallback counted —
        the full-negotiation path the caller now takes will re-store a
        fresh entry on success."""
        self.fallbacks += 1
        self._entries.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NegotiationCache {len(self._entries)}/{self.size} "
            f"hits={self.hits} misses={self.misses}>"
        )
