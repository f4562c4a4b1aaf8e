"""The control-plane codec: one table, compact frames, strict decode.

Negotiation payloads are data, never shared Python objects: every control
message travels as the bytes of a *frame* — magic, kind id and schema
version, then the message's fields **by position** as compact JSON — and
its size is the frame's length, floored at :data:`MIN_MESSAGE_SIZE`.

The codec table (:func:`register_wire_type`) holds each wire class's field
order and field types (``str``, ``int``, ``float``, ``bool``, enums,
:class:`Digest`, ``Optional``, ``List``, fixed ``Tuple``, ``Dict[str, X]``,
``Dict[int, X]`` as ``[key, value]`` pairs, other wire classes, ``Any``),
compiled once at import.  ``Any`` is the one self-describing encoding (:func:`encode` /
:func:`decode`): JSON scalars, lists and string-keyed dicts as themselves,
``bytes`` and wire-class instances as ``{"@": [tag, *fields]}``.

Decoding is strict at every depth — wrong arity, wrong type, an unknown
kind id or tag, a newer version or trailing bytes raise :class:`WireError`
— and canonical: whatever decodes re-encodes to exactly its own bytes.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing
from typing import Any, Callable, Optional

from ..errors import BerthaError

__all__ = [
    "encode",
    "encode_sized",
    "decode",
    "decode_frame",
    "register_wire_type",
    "register_frame_type",
    "wire_kind",
    "canonical_encoder",
    "Digest",
    "WireError",
    "MIN_MESSAGE_SIZE",
    "EPOCH_HEADER",
    "CTL_HEADER",
]

#: Floor for a control datagram's size: headers and framing dominate tiny
#: control messages, so nothing goes on the wire for less than this.
MIN_MESSAGE_SIZE = 64

#: Data-plane header carrying the sender's stack epoch.  Absent on messages
#: from a connection that has never transitioned (epoch 0 is implicit), so
#: the steady-state wire format — and its cost — is unchanged.  See
#: PROTOCOL.md §"Live reconfiguration".
EPOCH_HEADER = "bertha_epoch"

#: Data-plane header marking a datagram as an in-band control message
#: (TRANSITION and its acknowledgement).  The receiving connection's pump
#: intercepts these before they reach the Chunnel stack.
CTL_HEADER = "bertha_ctl"

#: First two bytes of every control frame (never valid ASCII or UTF-8).
MAGIC = b"\xbe\xa7"
_HEADER_LEN = 4
#: The reserved key of a tagged value in the self-describing encoding.
_TAG_KEY = "@"

#: The C encoder and scanner behind ``json.dumps`` / ``json.loads``, built
#: once: compact separators, ASCII output, no circularity check.
_encode_chunks = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", False, False, True,
)
_scan = json.JSONDecoder().scan_once


def _dumps(value: Any) -> str:
    return "".join(_encode_chunks(value, 0))


class WireError(BerthaError):
    """A value cannot be encoded, or a wire message is malformed."""


class Digest(str):
    """A field type: a 16-byte digest, as 32 lowercase hex digits.

    Travels as a JSON string; decoding rejects any other length or digit.
    """

    HEX_DIGITS = 32


def _decode_digest(value: Any) -> str:
    if (
        value.__class__ is not str
        or len(value) != Digest.HEX_DIGITS
        or value.strip("0123456789abcdef")
    ):
        raise WireError(
            f"expected {Digest.HEX_DIGITS} lowercase hex digits, got {value!r:.48}"
        )
    return value


# --------------------------------------------------------------------------
# The codec table
# --------------------------------------------------------------------------
class _Codec:
    """One wire class: its tag, field order and compiled field codecs.

    ``encode_fields`` (instance → field list) and ``decode_fields`` (field
    list → instance, strictly) are generated once per class, the way
    :mod:`dataclasses` generates ``__init__``: scalar fields are checked
    inline, nested fields call their own compiled codecs, and a dataclass
    without ``__post_init__`` is filled in without running ``__init__``.
    """

    __slots__ = ("tag", "names", "types", "encode_fields", "decode_fields",
                 "kind_id", "version", "header")

    def __init__(self, tag, cls, fields, get, build):
        self.tag = tag
        self.names = tuple(name for name, _ in fields)
        self.types = tuple(_describe(tp) for _, tp in fields)
        self.encode_fields, self.decode_fields = _generate(
            tag, cls, fields, get, build
        )
        self.kind_id = 0
        self.version = 0
        self.header = b""


def _bad_field(name: str, expected: str, value: Any) -> None:
    raise WireError(f"{name}: expected {expected}, got {type(value).__name__}")


def _generate(tag, cls, fields, get, build):
    """Source-generate one class's ``encode_fields`` / ``decode_fields``.

    A fixed ``Tuple`` field type is generated the same way, as ``cls=tuple``
    with fields named by position.  Generated code reads attributes and
    checks scalar fields inline, where closures over the per-field codecs
    would pay a call per field.
    """
    names = [name for name, _ in fields]
    args = ", ".join(f"f{i}" for i in range(len(fields)))
    scope = {
        "WireError": WireError,
        "BerthaError": BerthaError,
        "bad": _bad_field,
        "shape": _shape,
        "prefix": f"malformed {tag}: ",
        "get": get,
        "build": build or cls,
        "new": object.__new__,
        "cls": cls,
    }
    values = [
        f"value[{i}]" if cls is tuple else f"v[{i}]" if get else f"value.{name}"
        for i, name in enumerate(names)
    ]
    parts, checks = [], []
    for i, (name, tp) in enumerate(fields):
        enc, dec = _compile(tp)
        scope[f"enc{i}"], scope[f"dec{i}"] = enc, dec
        parts.append(values[i] if enc is None else f"enc{i}({values[i]})")
        if tp in (str, int, float, bool):
            checks.append(
                f"        if f{i}.__class__ is not {tp.__name__}: bad({name!r}, {tp.__name__!r}, f{i})"
            )
        else:
            checks.append(f"        f{i} = dec{i}(f{i})")
    plain = not hasattr(cls, "__post_init__") and not hasattr(cls, "__slots__")
    if cls is tuple:
        construct = [f"        return ({args},)"]
    elif build is None and dataclasses.is_dataclass(cls) and plain:
        construct = ["        o = new(cls)", "        d = o.__dict__"]
        construct += [f"        d[{name!r}] = f{i}" for i, name in enumerate(names)]
        construct.append("        return o")
    else:
        construct = [f"        return build({args})"]
    source = "\n".join(
        [
            "def encode_fields(value):",
            "    v = get(value)" if get else "",
            f"    return [{', '.join(parts)}]",
            "",
            "def decode_fields(items):",
            f"    if items.__class__ is not list or len(items) != {len(fields)}:",
            f"        raise WireError(prefix + 'expected {len(fields)} fields, got ' + shape(items))",
            f"    {args}, = items" if fields else "",
            "    try:",
            *checks,
            *construct,
            "    except (TypeError, ValueError, BerthaError) as error:",
            "        raise WireError(prefix + str(error)) from None",
        ]
    )
    exec(source, scope)  # noqa: S102 - generated from the field table only
    return scope["encode_fields"], scope["decode_fields"]


def _shape(value) -> str:
    return f"{len(value)}" if type(value) is list else type(value).__name__


#: Class -> codec (subclasses are memoized under their concrete type).
_codecs: dict[type, _Codec] = {}
#: Tag -> codec, for the self-describing encoding.
_by_tag: dict[str, _Codec] = {}
#: Kind id -> codec for frame types (index 0 is never a kind).
_frames: list[Optional[_Codec]] = [None]


def register_wire_type(
    tag: str,
    cls: type,
    fields: Optional[typing.Sequence[tuple[str, Any]]] = None,
    get: Optional[Callable[[Any], tuple]] = None,
    build: Optional[Callable[..., Any]] = None,
) -> None:
    """Add ``cls`` to the codec table under ``tag``.

    ``fields`` is the ``(name, type)`` sequence in wire order, by default
    the dataclass fields of ``cls`` with their resolved annotations;
    ``get`` maps an instance to its field values (default: the attributes
    of those names); ``build`` constructs an instance from them by position
    (default: ``cls``).
    """
    if tag in _by_tag or tag == "bytes":
        raise WireError(f"wire tag {tag!r} already registered")
    if fields is None:
        hints = typing.get_type_hints(cls)
        fields = [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]
    codec = _Codec(tag, cls, fields, get, build)
    _codecs[cls] = codec
    _by_tag[tag] = codec


def register_frame_type(cls: type, version: int) -> None:
    """Give the registered wire class ``cls`` the next frame kind id."""
    codec = _codecs[cls]
    codec.kind_id, codec.version = len(_frames), version
    codec.header = MAGIC + bytes((codec.kind_id, version))  # ids stop at 255
    _frames.append(codec)


def retire_frame_ids(count: int) -> None:
    """Keep the next ``count`` kind ids unused: those of removed frame types."""
    _frames.extend([None] * count)


def _codec_for(cls: type) -> Optional[_Codec]:
    """The codec for ``cls`` or its nearest registered base.

    A subclass hit found by walking the registry is memoized into
    ``_codecs`` under the concrete type, so only the *first* encode of a
    subclass pays the O(registry) scan.
    """
    codec = _codecs.get(cls)
    if codec is None:
        for base, candidate in _codecs.items():
            if issubclass(cls, base):
                codec = candidate
                _codecs[cls] = candidate
                break  # mutation is safe: the iteration stops here
    return codec


# --------------------------------------------------------------------------
# Field types
# --------------------------------------------------------------------------
def _expect(value: Any, cls: type, what: str) -> Any:
    if value.__class__ is not cls:
        raise WireError(f"expected {what}, got {type(value).__name__}")
    return value


def _compile(tp) -> tuple[Optional[Callable], Callable]:
    """``(encoder or None for as-is, strict decoder)`` for one field type."""
    if tp is Any:
        return encode, decode
    if tp in (str, int, float, bool):
        return None, lambda value: _expect(value, tp, tp.__name__)
    if tp is Digest:
        return None, _decode_digest
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return _compile_enum(tp)
    if tp in _codecs:
        return _codecs[tp].encode_fields, _codecs[tp].decode_fields
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:  # Optional[X]
        enc, dec = _compile(args[0] if args[1] is type(None) else args[1])
        return (
            None if enc is None else lambda v: None if v is None else enc(v),
            lambda v: None if v is None else dec(v),
        )
    if origin is list:
        enc, dec = _compile(args[0])
        return (
            None if enc is None else lambda v: [enc(item) for item in v],
            lambda v: [dec(item) for item in _expect(v, list, "a list")],
        )
    if origin is dict and args[0] is str:
        enc, dec = _compile(args[1])
        return (
            None if enc is None else lambda v: {k: enc(item) for k, item in v.items()},
            lambda v: {k: dec(item) for k, item in _expect(v, dict, "an object").items()},
        )
    if origin is tuple:
        fields = [(str(i), arg) for i, arg in enumerate(args)]
        return _generate(_describe(tp), tuple, fields, None, None)
    if origin is dict and args[0] is int:
        return _compile_pairs(_compile(tuple[int, args[1]]))
    raise WireError(f"no wire codec for field type {tp!r}")


def _compile_enum(tp: type[enum.Enum]):
    """Enums travel as their values, type-checked before the lookup (so
    ``true`` is not ``Scope(1)``)."""
    to_wire = {member: member.value for member in tp}
    from_wire = {member.value: member for member in tp}
    value_type = type(next(iter(from_wire)))

    def dec(value):
        if value.__class__ is not value_type or value not in from_wire:
            raise WireError(f"invalid {tp.__name__}: {value!r}")
        return from_wire[value]

    return to_wire.__getitem__, dec


def _compile_pairs(pair):
    """An int-keyed dict travels as a list of ``[key, value]`` pairs."""
    enc, dec = pair

    def decode_pairs(value):
        out = dict([dec(item) for item in _expect(value, list, "a pair list")])
        if len(out) != len(value):
            raise WireError("duplicate keys in a pair list")
        return out

    return (lambda value: [enc(item) for item in value.items()]), decode_pairs


def _describe(tp) -> str:
    """A short, stable spelling of a field type for PROTOCOL.md."""
    if tp is Any:
        return "any"
    if tp is Digest:
        return "digest"
    if isinstance(tp, type):
        codec = _codecs.get(tp)
        return codec.tag if codec is not None else tp.__name__
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        inner = args[0] if args[1] is type(None) else args[1]
        return f"optional[{_describe(inner)}]"
    name = {list: "list", tuple: "tuple", dict: "dict"}.get(origin, str(origin))
    return f"{name}[{', '.join(_describe(arg) for arg in args)}]"


# --------------------------------------------------------------------------
# The self-describing value encoding (``Any`` fields)
# --------------------------------------------------------------------------
def encode(value: Any) -> Any:
    """Encode ``value`` into JSON-able structures.

    Raises :class:`WireError` for unsupported types (including arbitrary
    callables — negotiation payloads must be data, see the sharding
    function discussion in :mod:`repro.chunnels.sharding`).
    """
    cls = value.__class__
    if value is None or cls is str or cls is int or cls is float or cls is bool:
        return value
    if cls is list or cls is tuple:
        return [encode(item) for item in value]
    if cls is dict:
        return _encode_dict(value)
    if cls is bytes:
        return {_TAG_KEY: ["bytes", value.hex()]}
    # Slow path: subclasses of the above, then the codec table.
    for base in (bool, int, float, str, list, tuple, dict, bytes):
        if isinstance(value, base):
            return encode(base(value))
    codec = _codec_for(cls)
    if codec is None:
        raise WireError(f"cannot encode {cls.__name__} for the wire: {value!r}")
    return {_TAG_KEY: [codec.tag, *codec.encode_fields(value)]}


def _encode_dict(value: dict) -> dict:
    out = {}
    for key, item in value.items():
        if type(key) is not str:
            raise WireError(f"wire dict keys must be strings, got {key!r}")
        if key == _TAG_KEY:
            raise WireError(f"dict key {key!r} is reserved")
        out[key] = encode(item)
    return out


def decode(value: Any) -> Any:
    """Strict inverse of :func:`encode`."""
    cls = value.__class__
    if value is None or cls is str or cls is int or cls is float or cls is bool:
        return value
    if cls is list:
        return [decode(item) for item in value]
    if cls is not dict:
        raise WireError(f"malformed wire value: {value!r}")
    if _TAG_KEY not in value:
        return {key: decode(item) for key, item in value.items()}
    body = value[_TAG_KEY]
    if len(value) != 1 or type(body) is not list or not body or type(body[0]) is not str:
        raise WireError(f"malformed tagged value: {value!r}")
    tag = body[0]
    if tag == "bytes":
        hexed = body[1] if len(body) == 2 else None
        try:
            if bytes.fromhex(hexed).hex() == hexed:
                return bytes.fromhex(hexed)
        except (TypeError, ValueError):
            pass
        raise WireError(f"malformed bytes value: {value!r}")
    codec = _by_tag.get(tag)
    if codec is None:
        raise WireError(f"unknown wire tag {tag!r}")
    return codec.decode_fields(body[1:])


# --------------------------------------------------------------------------
# Frames
# --------------------------------------------------------------------------
def encode_sized(message: Any) -> tuple[bytes, int]:
    """The frame of a control message and its wire size.

    The size is the payload's length, floored at :data:`MIN_MESSAGE_SIZE`.
    """
    codec = _codecs.get(message.__class__)
    if codec is None or not codec.kind_id:
        raise WireError(f"not a control message: {message!r}")
    try:
        body = _dumps(codec.encode_fields(message))
    except (TypeError, ValueError) as error:
        raise WireError(f"cannot encode {codec.tag}: {error}") from None
    payload = codec.header + body.encode("ascii")
    size = len(payload)
    return payload, size if size > MIN_MESSAGE_SIZE else MIN_MESSAGE_SIZE


def canonical_encoder(tp: Any) -> Callable[[Any], bytes]:
    """``value -> bytes``: the canonical encoding of a value of field type
    ``tp``, exactly as it sits in a frame body.  Strict decoding is
    canonical, so a value and its decoded copy at the peer encode alike."""
    enc = _compile(tp)[0] or (lambda value: value)
    return lambda value: _dumps(enc(value)).encode("ascii")


def _frame_codec(payload: Any) -> Optional[_Codec]:
    """The codec named by a frame's header, or None if it names none."""
    if payload.__class__ is bytes and len(payload) >= _HEADER_LEN and payload[:2] == MAGIC:
        if 0 < payload[2] < len(_frames):
            return _frames[payload[2]]
    return None


def _frame_body(payload: bytes) -> Any:
    """The parsed JSON body of a frame, which must be canonical."""
    try:
        text = payload[_HEADER_LEN:].decode("ascii")
        items, end = _scan(text, 0)
        canonical = end == len(text) and _dumps(items) == text
    except (ValueError, RecursionError, StopIteration) as error:
        raise WireError(f"malformed frame body: {error!r}") from None
    if not canonical:
        raise WireError("frame body is not in canonical form")
    return items


def decode_frame(payload: Any) -> Any:
    """Decode a control frame, strictly; see the module docstring."""
    codec = _frame_codec(payload)
    if codec is None:
        raise WireError(f"unknown wire tag: not a known control frame: {payload!r:.40}")
    if payload[3] < 1:
        raise WireError(f"{codec.tag}: missing or invalid protocol version")
    if payload[3] > codec.version:
        raise WireError(f"{codec.tag}: version {payload[3]} is newer than {codec.version}")
    items = _frame_body(payload)
    try:
        return codec.decode_fields(items)
    except RecursionError:  # nested deeper than the interpreter's stack
        raise WireError(f"malformed {codec.tag}: nested too deeply") from None


def frame_fields(payload: Any) -> Optional[list]:
    """The raw field list of a well-framed payload whose kind id or fields
    fail to decode, or None — enough to address an error reply."""
    try:
        if payload.__class__ is not bytes or payload[:2] != MAGIC:
            return None
        items = _frame_body(payload)
    except WireError:
        return None
    return items if type(items) is list else None


def wire_kind(payload: Any) -> Optional[str]:
    """The kind of a control frame, or None for any other payload.

    Lets tests and fault injectors match control messages by kind without
    decoding them.
    """
    codec = _frame_codec(payload)
    return None if codec is None else codec.tag


def _register_builtin_types() -> None:
    from ..sim.datagram import Address

    register_wire_type("address", Address)


_register_builtin_types()
