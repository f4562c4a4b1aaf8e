"""Addresses and datagrams.

Everything the simulated network carries is a :class:`Datagram`: an
addressed, sized message whose ``payload`` may be raw bytes or, above a
serialization Chunnel, an arbitrary Python object (the simulator charges
transmission cost based on the explicit ``size`` field, so object payloads
still pay realistic byte costs).

``headers`` is a mutable mapping Chunnels use for their on-wire metadata
(sequence numbers, shard hints, encryption markers, negotiation payloads).
``hops`` records the data-path elements the datagram visited, which tests and
experiments use to assert *where* a Chunnel implementation actually ran.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Address", "Datagram"]

_datagram_ids = itertools.count(1)


@dataclass(frozen=True, order=True)
class Address:
    """A (entity, port) pair; entities are hosts or containers by name."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("address needs a non-empty host name")
        if not 0 < self.port < 65536:
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        # Addresses are stringified on every socket delivery (visit labels,
        # trace attrs); memoize on the instance since the fields are frozen.
        text = self.__dict__.get("_str")
        if text is None:
            text = f"{self.host}:{self.port}"
            object.__setattr__(self, "_str", text)
        return text


@dataclass(slots=True)
class Datagram:
    """One message in flight.

    Parameters
    ----------
    src, dst:
        Source and destination addresses.  Packet programs (switch rules,
        XDP) may rewrite ``dst`` en route.
    payload:
        Bytes or an application object.
    size:
        Wire size in bytes.  Chunnels that change representation (serialize,
        encrypt, http2 framing) must update it.
    headers:
        Chunnel metadata travelling with the datagram.
    """

    src: Address
    dst: Address
    payload: Any = b""
    size: int = 0
    headers: dict[str, Any] = field(default_factory=dict)
    hops: list[str] = field(default_factory=list)
    sent_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_datagram_ids))

    def __post_init__(self) -> None:
        if self.size == 0 and isinstance(self.payload, (bytes, bytearray)):
            self.size = len(self.payload)
        if self.size < 0:
            raise ValueError("datagram size must be non-negative")

    def visit(self, element: str) -> None:
        """Record that the datagram passed through ``element``."""
        self.hops.append(element)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Datagram #{self.uid} {self.src}->{self.dst} "
            f"size={self.size} headers={sorted(self.headers)}>"
        )
