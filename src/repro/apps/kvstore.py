"""The sharded key-value store (Listings 4 & 5, Figure 5).

The paper's evaluation server: "a key-value store which uses the hashmap
implementation from Rust's standard library and serialization from the
widely-used bincode crate atop UDP RPCs", sharded across worker threads by
a Chunnel.  Here:

* :class:`KvCodec` — a fixed-layout binary request/response encoding whose
  bytes ``[1..5)`` are the key hash, so *every* shard placement — client
  library, XDP program, or switch — computes the shard from the same four
  wire bytes (the paper's ``hash(p.payload[10..14]) % 3``).
* :class:`ShardWorker` — one shard: a plain socket + an in-memory dict +
  a configurable per-request service time.  Workers reply directly to the
  requesting client (datagram-based transport lets offloads avoid
  terminating connections — the Listing 4 caption).
* :class:`KvServer` — spawns the workers, builds the
  ``serialize |> shard`` DAG with the worker addresses, and listens.
* :class:`KvClient` — an empty-DAG Bertha client (Listing 5): the Chunnels
  used are dictated entirely by the server.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Optional

from ..chunnels.serialize import Codec, get_codec, register_codec
from ..chunnels.sharding import REPLY_TO_HEADER, HashBytes, Shard
from ..core.dag import ChunnelDag, wrap
from ..core.runtime import Runtime
from ..errors import ChunnelArgumentError
from ..sim.datagram import Address, Datagram
from ..sim.eventloop import Interrupt
from ..sim.transport import UdpSocket

__all__ = [
    "KvCodec",
    "KV_SHARD_FN",
    "ShardWorker",
    "KvServer",
    "KvClient",
    "kv_request",
    "kv_response",
]

_OP_CODES = {"get": 0, "put": 1, "delete": 2, "scan": 3, "rmw": 4}
_OP_NAMES = {code: name for name, code in _OP_CODES.items()}
_STATUS_CODES = {"ok": 0, "not_found": 1, "error": 2}
_STATUS_NAMES = {code: name for name, code in _STATUS_CODES.items()}

_REQUEST_TAG = 0x10
_RESPONSE_TAG = 0x20

#: Shard on the 4-byte key hash at a fixed wire offset (byte 1).  Keeping
#: the hash at a fixed offset is what makes the XDP and switch shard
#: implementations possible — they parse raw packet bytes.
KV_SHARD_FN = HashBytes(offset=1, length=4)


def key_hash(key: str) -> int:
    """The 32-bit key hash carried in every request."""
    return zlib.crc32(key.encode()) & 0xFFFFFFFF


def kv_request(op: str, key: str, value: bytes = b"") -> dict:
    """Build a request object (what the application sends)."""
    if op not in _OP_CODES:
        raise ChunnelArgumentError(f"unknown op {op!r}")
    return {"type": "request", "op": op, "key": key, "value": value}


def kv_response(status: str, value: bytes = b"") -> dict:
    """Build a response object (what workers send back)."""
    if status not in _STATUS_CODES:
        raise ChunnelArgumentError(f"unknown status {status!r}")
    return {"type": "response", "status": status, "value": value}


class KvCodec(Codec):
    """Fixed-layout binary encoding for KV requests/responses.

    Request:  ``tag(1) | keyhash(4) | op(1) | keylen(2) | key | value``
    Response: ``tag(1) | status(1) | vallen(4) | value``

    The key hash sits at bytes ``[1..5)`` of every request so shard
    functions can read it without parsing variable-length fields.
    """

    name = "kv"

    def encode(self, obj: Any) -> bytes:
        if not isinstance(obj, dict) or "type" not in obj:
            raise ChunnelArgumentError(f"kv codec cannot encode {obj!r}")
        if obj["type"] == "request":
            key = obj["key"]
            value = bytes(obj.get("value") or b"")
            raw_key = key.encode()
            return (
                struct.pack(
                    ">BIBH",
                    _REQUEST_TAG,
                    key_hash(key),
                    _OP_CODES[obj["op"]],
                    len(raw_key),
                )
                + raw_key
                + value
            )
        if obj["type"] == "response":
            value = bytes(obj.get("value") or b"")
            return (
                struct.pack(
                    ">BBI", _RESPONSE_TAG, _STATUS_CODES[obj["status"]], len(value)
                )
                + value
            )
        raise ChunnelArgumentError(f"kv codec cannot encode type {obj['type']!r}")

    def decode(self, data: bytes) -> Any:
        if not data:
            raise ChunnelArgumentError("kv codec: empty input")
        tag = data[0]
        if tag == _REQUEST_TAG:
            if len(data) < 8:
                raise ChunnelArgumentError(
                    f"kv codec: truncated request header ({len(data)} bytes)"
                )
            wire_hash, op_code, key_len = struct.unpack_from(">IBH", data, 1)
            if op_code not in _OP_NAMES:
                raise ChunnelArgumentError(
                    f"kv codec: unknown op code {op_code:#x}"
                )
            key_start = 8
            if len(data) < key_start + key_len:
                # A short buffer would otherwise slice to a shorter key and
                # "succeed" with the wrong key — chaos-corrupted datagrams
                # must fail decode, not become silent wrong-key operations.
                raise ChunnelArgumentError(
                    f"kv codec: truncated key (need {key_len} bytes, "
                    f"have {len(data) - key_start})"
                )
            raw_key = data[key_start : key_start + key_len]
            try:
                key = raw_key.decode()
            except UnicodeDecodeError as error:
                raise ChunnelArgumentError(
                    f"kv codec: undecodable key bytes ({error})"
                ) from None
            if key_hash(key) != wire_hash:
                raise ChunnelArgumentError(
                    f"kv codec: key hash mismatch (wire {wire_hash:#010x}, "
                    f"computed {key_hash(key):#010x})"
                )
            value = data[key_start + key_len :]
            return {
                "type": "request",
                "op": _OP_NAMES[op_code],
                "key": key,
                "value": bytes(value),
            }
        if tag == _RESPONSE_TAG:
            if len(data) < 6:
                raise ChunnelArgumentError(
                    f"kv codec: truncated response header ({len(data)} bytes)"
                )
            status_code, value_len = struct.unpack_from(">BI", data, 1)
            if status_code not in _STATUS_NAMES:
                raise ChunnelArgumentError(
                    f"kv codec: unknown status code {status_code:#x}"
                )
            if len(data) < 6 + value_len:
                raise ChunnelArgumentError(
                    f"kv codec: truncated value (need {value_len} bytes, "
                    f"have {len(data) - 6})"
                )
            value = data[6 : 6 + value_len]
            return {
                "type": "response",
                "status": _STATUS_NAMES[status_code],
                "value": bytes(value),
            }
        raise ChunnelArgumentError(f"kv codec: unknown tag {tag:#x}")


try:
    get_codec("kv")
except ChunnelArgumentError:
    register_codec(KvCodec())


class ShardWorker:
    """One shard: socket + hashmap + per-request service time.

    Requests arrive as raw datagrams (possibly redirected to us by an XDP
    or switch program, or forwarded by the userspace sharder) carrying
    kv-codec bytes.  The reply goes directly to the requesting client —
    either the datagram source or the explicit ``shard_reply_to`` header
    the userspace sharder adds when it re-sends.
    """

    def __init__(
        self,
        entity,
        port: int,
        store: Optional[dict] = None,
        service_time: float = 1.5e-6,
    ):
        self.entity = entity
        self.env = entity.env
        self.socket = UdpSocket(entity, port)
        self.store: dict[str, bytes] = store if store is not None else {}
        self.service_time = service_time
        self.codec = get_codec("kv")
        self.requests_served = 0
        self.errors = 0
        self._proc = self.env.process(self._run(), name=f"kv-worker:{port}")

    @property
    def address(self) -> Address:
        return self.socket.address

    def _run(self):
        while True:
            try:
                dgram: Datagram = yield self.socket.recv()
            except Interrupt:
                return
            yield self.env.timeout(self.service_time)
            response = self._apply(dgram)
            reply_to = dgram.headers.get(REPLY_TO_HEADER)
            dst = Address(reply_to[0], reply_to[1]) if reply_to else dgram.src
            encoded = self.codec.encode(response)
            headers = {"ser_codec": "kv"}
            if "rpc_id" in dgram.headers:
                # Echo the client's correlation id so open-loop load
                # generators can match responses to requests.
                headers["rpc_id"] = dgram.headers["rpc_id"]
            self.socket.send(encoded, dst, size=len(encoded), headers=headers)

    def _apply(self, dgram: Datagram) -> dict:
        try:
            request = self.codec.decode(bytes(dgram.payload))
        except (ChunnelArgumentError, struct.error, UnicodeDecodeError):
            self.errors += 1
            return kv_response("error")
        self.requests_served += 1
        op, key = request["op"], request["key"]
        if op == "get":
            value = self.store.get(key)
            if value is None:
                return kv_response("not_found")
            return kv_response("ok", value)
        if op == "put":
            self.store[key] = request["value"]
            return kv_response("ok")
        if op == "delete":
            existed = self.store.pop(key, None) is not None
            return kv_response("ok" if existed else "not_found")
        if op == "scan":
            # Range scan within this shard: keys are ordered, the scan
            # length rides in the request value (4 bytes, big endian).
            # (A shard sees only its own keys — cross-shard scans are the
            # client's to assemble, as in range-sharded stores.)
            length = int.from_bytes(request["value"][:4] or b"\x00", "big")
            selected = [k for k in sorted(self.store) if k >= key][:length]
            blob = b"\x00".join(k.encode() for k in selected)
            return kv_response("ok", blob)
        if op == "rmw":
            # Read-modify-write (YCSB workload F): append the new value to
            # the existing one atomically within the shard.
            current = self.store.get(key, b"")
            self.store[key] = current + request["value"]
            return kv_response("ok", self.store[key])
        self.errors += 1
        return kv_response("error")



class KvServer:
    """The sharded KV server of Listing 4."""

    def __init__(
        self,
        runtime: Runtime,
        port: int,
        shards: int = 3,
        worker_service_time: float = 1.5e-6,
        worker_base_port: int = 7101,
        service_name: Optional[str] = None,
        extra_dag: Optional[ChunnelDag] = None,
        auto_reconfig: bool = False,
    ):
        self.runtime = runtime
        self.workers = [
            ShardWorker(
                runtime.entity,
                worker_base_port + index,
                service_time=worker_service_time,
            )
            for index in range(shards)
        ]
        shard_spec = Shard(
            choices=[worker.address for worker in self.workers],
            shard_fn=KV_SHARD_FN,
        )
        from ..chunnels.serialize import Serialize

        dag = wrap(Serialize(codec="kv") >> shard_spec)
        if extra_dag is not None:
            dag = dag >> extra_dag
        self.endpoint = runtime.new("my-kv-srv", dag)
        self.listener = self.endpoint.listen(
            port=port, service_name=service_name, auto_reconfig=auto_reconfig
        )

    @property
    def requests_served(self) -> int:
        return sum(worker.requests_served for worker in self.workers)



class KvClient:
    """The Listing 5 client: an empty DAG; the server dictates everything."""

    def __init__(self, runtime: Runtime, name: str = "kv-client"):
        self.runtime = runtime
        self.endpoint = runtime.new(name)  # wrap!() — no chunnels
        self.conn = None

    def connect(self, target, **kwargs):
        """Generator: establish the negotiated connection.  ``kwargs`` pass
        through to :meth:`Endpoint.connect` (timeout/retries — lossy-network
        runs need a larger retransmission budget)."""
        conn = yield from self.endpoint.connect(target, **kwargs)
        self.conn = conn
        return conn

    def get(self, key: str):
        """Generator → response dict for a GET."""
        return (yield from self.request(kv_request("get", key)))

    def put(self, key: str, value: bytes):
        """Generator → response dict for a PUT."""
        return (yield from self.request(kv_request("put", key, value)))

    def delete(self, key: str):
        """Generator → response dict for a DELETE."""
        return (yield from self.request(kv_request("delete", key)))

    def scan(self, start_key: str, length: int = 10):
        """Generator → response dict for a SCAN (keys >= start_key, one
        shard's view; YCSB workload E).  ``length`` 0 is a valid empty
        scan; lengths that don't fit the 4-byte wire field are rejected
        here rather than crashing in ``int.to_bytes``."""
        if not isinstance(length, int) or length < 0 or length > 0xFFFFFFFF:
            raise ChunnelArgumentError(
                f"scan length must be a 32-bit unsigned int, got {length!r}"
            )
        return (
            yield from self.request(
                kv_request("scan", start_key, length.to_bytes(4, "big"))
            )
        )

    def rmw(self, key: str, value: bytes):
        """Generator → response dict for a read-modify-write (YCSB F)."""
        return (yield from self.request(kv_request("rmw", key, value)))

    def request(self, request: dict):
        """Generator: send one request, wait for its response."""
        if self.conn is None:
            raise ChunnelArgumentError("connect() first")
        self.conn.send(request)
        reply = yield self.conn.recv()
        return reply.payload

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
