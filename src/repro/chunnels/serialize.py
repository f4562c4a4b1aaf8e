"""The serialization Chunnel (§3.2, "Serialization").

Modeling serialization as a Chunnel means an application sends and receives
*objects*, and which encoder runs — and where — is negotiated per
connection.  The paper's motivation: serialization is a major overhead in
distributed applications, new libraries (Cap'n Proto, FlatBuffers) and
hardware offloads (FPGA serializers) keep appearing, and today adopting any
of them means rebuilding the application.

Implementations here:

* ``SerializeFallback`` — host-software encoding with a realistic per-byte
  CPU cost (~1.5 GB/s, protobuf-class).
* ``SerializeAccelerated`` — stands in for a hardware-accelerated
  serializer (the paper cites FPGA offloads); same wire format, ~20 GB/s
  effective, SmartNIC placement and priority so negotiation prefers it
  where the device exists.

The default wire format, :class:`BincodeCodec`, is a compact, deterministic,
self-describing binary encoding of Python primitives in the spirit of the
``bincode`` crate the paper's prototype uses.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterable

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
from ..core.scope import Endpoints, Placement, Scope
from ..errors import ChunnelArgumentError

__all__ = [
    "Serialize",
    "Codec",
    "BincodeCodec",
    "JsonCodec",
    "register_codec",
    "get_codec",
    "SerializeFallback",
    "SerializeAccelerated",
]


# --------------------------------------------------------------------------
# Codecs
# --------------------------------------------------------------------------
class Codec:
    """An object ↔ bytes encoding: ``encode(obj) -> bytes`` (deterministic)
    and its inverse ``decode(data)``."""

    name: str = ""


_codecs: dict[str, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    """Make a codec negotiable by name (overwrites are an error)."""
    if not codec.name:
        raise ChunnelArgumentError("codec needs a non-empty name")
    if codec.name in _codecs:
        raise ChunnelArgumentError(f"codec {codec.name!r} already registered")
    _codecs[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec."""
    try:
        return _codecs[name]
    except KeyError:
        raise ChunnelArgumentError(
            f"unknown codec {name!r} (registered: {sorted(_codecs)})"
        ) from None


class BincodeCodec(Codec):
    """Compact tagged binary encoding of Python primitives.

    Wire grammar (one byte tag, then payload):

    ====  ======================================
    tag   payload
    ====  ======================================
    N     none
    T/F   true / false
    i     int64   (8 bytes, big endian, signed)
    I     big int (4-byte length + magnitude bytes + sign byte)
    d     float64 (8 bytes, IEEE-754)
    b     bytes   (4-byte length + raw)
    s     str     (4-byte length + UTF-8)
    l     list    (4-byte count + elements)
    m     dict    (4-byte count + key/value pairs)
    ====  ======================================

    Deterministic: dict entries are encoded in insertion order (callers
    wanting canonical output sort keys themselves).
    """

    name = "bincode"
    _I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

    def encode(self, obj: Any) -> bytes:
        out = bytearray()
        self._encode_into(obj, out)
        return bytes(out)

    def _encode_into(self, obj: Any, out: bytearray) -> None:
        if obj is None:
            out += b"N"
        elif obj is True:
            out += b"T"
        elif obj is False:
            out += b"F"
        elif isinstance(obj, int):
            if self._I64_MIN <= obj <= self._I64_MAX:
                out += b"i"
                out += struct.pack(">q", obj)
            else:
                magnitude = abs(obj).to_bytes(
                    (abs(obj).bit_length() + 7) // 8, "big"
                )
                out += b"I"
                out += struct.pack(">I", len(magnitude))
                out += magnitude
                out += b"-" if obj < 0 else b"+"
        elif isinstance(obj, float):
            out += b"d"
            out += struct.pack(">d", obj)
        elif isinstance(obj, (bytes, bytearray)):
            out += b"b"
            out += struct.pack(">I", len(obj))
            out += bytes(obj)
        elif isinstance(obj, str):
            raw = obj.encode("utf-8")
            out += b"s"
            out += struct.pack(">I", len(raw))
            out += raw
        elif isinstance(obj, (list, tuple)):
            out += b"l"
            out += struct.pack(">I", len(obj))
            for item in obj:
                self._encode_into(item, out)
        elif isinstance(obj, dict):
            out += b"m"
            out += struct.pack(">I", len(obj))
            for key, value in obj.items():
                self._encode_into(key, out)
                self._encode_into(value, out)
        else:
            raise ChunnelArgumentError(
                f"bincode cannot encode {type(obj).__name__}: {obj!r}"
            )

    def decode(self, data: bytes) -> Any:
        """Strict inverse of :meth:`encode`: any malformed input raises
        :class:`ChunnelArgumentError`."""
        try:
            obj, offset = self._decode_from(memoryview(data), 0)
        except struct.error as exc:
            raise ChunnelArgumentError(f"bincode: truncated input ({exc})") from exc
        except RecursionError:  # nested deeper than the interpreter's stack
            raise ChunnelArgumentError("bincode: nested too deeply") from None
        if offset != len(data):
            raise ChunnelArgumentError(
                f"bincode: {len(data) - offset} trailing bytes"
            )
        return obj

    @staticmethod
    def _take(view: memoryview, offset: int) -> tuple[bytes, int]:
        """A length-prefixed byte string at ``offset``, and the offset past it."""
        (length,) = struct.unpack_from(">I", view, offset)
        offset += 4
        if offset + length > len(view):
            raise ChunnelArgumentError("bincode: truncated input")
        return view[offset : offset + length].tobytes(), offset + length

    def _decode_from(self, view: memoryview, offset: int) -> tuple[Any, int]:
        if offset >= len(view):
            raise ChunnelArgumentError("bincode: truncated input")
        tag = view[offset : offset + 1].tobytes()
        offset += 1
        if tag == b"N":
            return None, offset
        if tag == b"T":
            return True, offset
        if tag == b"F":
            return False, offset
        if tag == b"i":
            return struct.unpack_from(">q", view, offset)[0], offset + 8
        if tag == b"I":
            magnitude, offset = self._take(view, offset)
            sign = view[offset : offset + 1].tobytes()
            if sign not in (b"-", b"+"):
                raise ChunnelArgumentError(f"bincode: bad big-int sign {sign!r}")
            value = int.from_bytes(magnitude, "big")
            return (-value if sign == b"-" else value), offset + 1
        if tag == b"d":
            return struct.unpack_from(">d", view, offset)[0], offset + 8
        if tag == b"b":
            return self._take(view, offset)
        if tag == b"s":
            raw, offset = self._take(view, offset)
            try:
                return raw.decode("utf-8"), offset
            except UnicodeDecodeError as exc:
                raise ChunnelArgumentError(f"bincode: invalid UTF-8 ({exc})") from None
        if tag == b"l":
            (count,) = struct.unpack_from(">I", view, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = self._decode_from(view, offset)
                items.append(item)
            return items, offset
        if tag == b"m":
            (count,) = struct.unpack_from(">I", view, offset)
            offset += 4
            result = {}
            for _ in range(count):
                key, offset = self._decode_from(view, offset)
                if isinstance(key, (list, dict)):
                    raise ChunnelArgumentError(
                        f"bincode: a {type(key).__name__} cannot be a map key"
                    )
                value, offset = self._decode_from(view, offset)
                result[key] = value
            return result, offset
        raise ChunnelArgumentError(f"bincode: unknown tag {tag!r}")


class JsonCodec(Codec):
    """UTF-8 JSON; larger and slower, kept for interoperability tests."""

    name = "json"

    def encode(self, obj: Any) -> bytes:
        return json.dumps(obj, separators=(",", ":"), sort_keys=False).encode()

    def decode(self, data: bytes) -> Any:
        return json.loads(data.decode("utf-8"))


register_codec(BincodeCodec())
register_codec(JsonCodec())


# --------------------------------------------------------------------------
# Spec and implementations
# --------------------------------------------------------------------------
@register_spec
class Serialize(ChunnelSpec):
    """Application sends objects; the connection carries bytes."""

    type_name = "serialize"

    def __init__(self, codec: str = "bincode"):
        get_codec(codec)  # validate eagerly
        super().__init__(codec=codec)


class _SerializeStage(ChunnelStage):
    """Encode on send, decode on receive, charging CPU per byte."""

    def __init__(self, impl: "ChunnelImpl", role: Role, bytes_per_second: float):
        super().__init__(impl, role)
        self.codec = get_codec(impl.spec.args["codec"])
        self.seconds_per_byte = 1.0 / bytes_per_second
        self.bytes_encoded = 0
        self.bytes_decoded = 0

    def on_send(self, msg: Message) -> Iterable[Message]:
        encoded = self.codec.encode(msg.payload)
        self.bytes_encoded += len(encoded)
        self.charge(len(encoded) * self.seconds_per_byte)
        msg.payload = encoded
        msg.size = len(encoded)
        msg.headers["ser_codec"] = self.codec.name
        return [msg]

    def on_recv(self, msg: Message) -> Iterable[Message]:
        if msg.headers.get("ser_codec") != self.codec.name:
            # Not serialized by our peer stage (e.g. a control message);
            # pass through untouched.
            return [msg]
        data = msg.payload
        self.bytes_decoded += len(data)
        self.charge(len(data) * self.seconds_per_byte)
        msg.payload = self.codec.decode(data)
        return [msg]


@catalog.add
class SerializeFallback(ChunnelImpl):
    """Host-software serializer (always available)."""

    meta = ImplMeta(
        chunnel_type="serialize",
        name="sw",
        priority=10,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.BOTH,
        placement=Placement.HOST_SOFTWARE,
        description="software codec, ~1.5 GB/s",
    )

    BYTES_PER_SECOND = 1.5e9

    def make_stage(self, role: Role) -> ChunnelStage:
        return _SerializeStage(self, role, self.BYTES_PER_SECOND)


@catalog.add
class SerializeAccelerated(ChunnelImpl):
    """Hardware-accelerated serializer (FPGA/SmartNIC class).

    Same wire format as the fallback (the two interoperate), but the host
    CPU cost approximates DMA-and-forget.  Registered with the discovery
    service at hosts whose NIC carries the accelerator.
    """

    meta = ImplMeta(
        chunnel_type="serialize",
        name="fpga",
        priority=70,
        scope=Scope.HOST,
        endpoints=Endpoints.ANY,
        placement=Placement.SMARTNIC,
        resources=ResourceVector({NIC_SLOTS: 1}),
        description="FPGA serializer, ~20 GB/s effective",
    )

    BYTES_PER_SECOND = 20e9

    def make_stage(self, role: Role) -> ChunnelStage:
        return _SerializeStage(self, role, self.BYTES_PER_SECOND)
