"""Tests for the sharded key-value store application."""

import pytest

from repro.apps import KV_SHARD_FN, KvClient, KvCodec, KvServer, kv_request, kv_response
from repro.chunnels import SerializeFallback, ShardClientFallback, ShardServerFallback
from repro.core import Runtime
from repro.errors import ChunnelArgumentError
from repro.sim import Address

from ..conftest import run


class TestKvCodec:
    def test_request_roundtrip(self):
        codec = KvCodec()
        request = kv_request("put", "user42", b"value-bytes")
        assert codec.decode(codec.encode(request)) == request

    def test_response_roundtrip(self):
        codec = KvCodec()
        response = kv_response("ok", b"some value")
        assert codec.decode(codec.encode(response)) == response

    def test_get_has_empty_value(self):
        codec = KvCodec()
        decoded = codec.decode(codec.encode(kv_request("get", "k")))
        assert decoded["value"] == b""

    def test_key_hash_at_fixed_offset(self):
        """The property the XDP/switch shard implementations rely on."""
        import struct
        import zlib

        codec = KvCodec()
        for key in ("a", "user0001", "长键"):
            encoded = codec.encode(kv_request("get", key))
            (wire_hash,) = struct.unpack_from(">I", encoded, 1)
            assert wire_hash == zlib.crc32(key.encode()) & 0xFFFFFFFF

    def test_shard_fn_reads_the_hash_window(self):
        codec = KvCodec()
        a = codec.encode(kv_request("get", "same-key"))
        b = codec.encode(kv_request("put", "same-key", b"xxx"))
        assert KV_SHARD_FN.bucket(a, {}, 3) == KV_SHARD_FN.bucket(b, {}, 3)

    def test_invalid_inputs(self):
        codec = KvCodec()
        with pytest.raises(ChunnelArgumentError):
            codec.encode({"no": "kind"})
        with pytest.raises(ChunnelArgumentError):
            codec.decode(b"")
        with pytest.raises(ChunnelArgumentError):
            codec.decode(b"\x99rest")
        with pytest.raises(ChunnelArgumentError):
            kv_request("explode", "k")
        with pytest.raises(ChunnelArgumentError):
            kv_response("weird")


def kv_world(world, client_push=True, shards=3):
    server_rt = world.runtime("srv")
    client_rt = world.runtime("cl")
    server_rt.register_chunnel(SerializeFallback)
    server_rt.register_chunnel(ShardServerFallback)
    client_rt.register_chunnel(SerializeFallback)
    if client_push:
        client_rt.register_chunnel(ShardClientFallback)
    server = KvServer(server_rt, port=7100, shards=shards)
    return server, client_rt


class TestKvStore:
    def test_put_get_delete_cycle(self, two_hosts):
        server, client_rt = kv_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            put = yield from client.put("alpha", b"1")
            got = yield from client.get("alpha")
            deleted = yield from client.delete("alpha")
            missing = yield from client.get("alpha")
            return put, got, deleted, missing

        put, got, deleted, missing = run(two_hosts.env, scenario(two_hosts.env))
        assert put["status"] == "ok"
        assert (got["status"], got["value"]) == ("ok", b"1")
        assert deleted["status"] == "ok"
        assert missing["status"] == "not_found"

    def test_delete_missing_key(self, two_hosts):
        server, client_rt = kv_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            return (yield from client.delete("never-existed"))

        assert run(two_hosts.env, scenario(two_hosts.env))["status"] == "not_found"

    def test_keys_spread_across_shards(self, two_hosts):
        server, client_rt = kv_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            for index in range(30):
                yield from client.put(f"key-{index}", b"v")
            return [len(worker.store) for worker in server.workers]

        per_shard = run(two_hosts.env, scenario(two_hosts.env))
        assert sum(per_shard) == 30
        assert all(count > 0 for count in per_shard)

    def test_reads_after_writes_are_consistent_per_key(self, two_hosts):
        server, client_rt = kv_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            for index in range(10):
                yield from client.put(f"k{index}", b"v%d" % index)
            results = []
            for index in range(10):
                reply = yield from client.get(f"k{index}")
                results.append(reply["value"])
            return results

        values = run(two_hosts.env, scenario(two_hosts.env))
        assert values == [b"v%d" % i for i in range(10)]

    def test_works_with_server_fallback_sharding(self, two_hosts):
        server, client_rt = kv_world(two_hosts, client_push=False)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("via-fallback", b"works")
            reply = yield from client.get("via-fallback")
            node = client.conn.dag.find("shard")[0]
            return reply, type(client.conn.impls[node]).__name__

        reply, impl = run(two_hosts.env, scenario(two_hosts.env))
        assert reply["value"] == b"works"
        assert impl == "ShardServerFallback"

    def test_request_before_connect_raises(self, two_hosts):
        _server, client_rt = kv_world(two_hosts)
        client = KvClient(client_rt)

        def scenario(env):
            yield env.timeout(0)
            yield from client.get("x")

        with pytest.raises(ChunnelArgumentError):
            run(two_hosts.env, scenario(two_hosts.env))

    def test_server_counts_requests(self, two_hosts):
        server, client_rt = kv_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            for index in range(5):
                yield from client.put(f"c{index}", b"x")
            return server.requests_served, sum(len(w.store) for w in server.workers)

        served, keys = run(two_hosts.env, scenario(two_hosts.env))
        assert served == 5
        assert keys == 5


class TestScanAndRmw:
    """YCSB workloads E (scan) and F (read-modify-write) operations."""

    def test_scan_returns_sorted_keys_from_shard(self, two_hosts):
        server, client_rt = kv_world(two_hosts, shards=1)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            for index in range(9, -1, -1):  # insert in reverse order
                yield from client.put(f"k{index}", b"v")
            reply = yield from client.scan("k3", length=4)
            return reply

        reply = run(two_hosts.env, scenario(two_hosts.env))
        assert reply["status"] == "ok"
        keys = reply["value"].split(b"\x00")
        assert keys == [b"k3", b"k4", b"k5", b"k6"]

    def test_scan_length_encoded_in_value(self):
        from repro.apps.kvstore import KvCodec

        codec = KvCodec()
        encoded = codec.encode(kv_request("scan", "start", (7).to_bytes(4, "big")))
        decoded = codec.decode(encoded)
        assert decoded["op"] == "scan"
        assert int.from_bytes(decoded["value"][:4], "big") == 7

    def test_rmw_appends_atomically(self, two_hosts):
        server, client_rt = kv_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("log", b"a")
            yield from client.rmw("log", b"b")
            reply = yield from client.rmw("log", b"c")
            final = yield from client.get("log")
            return reply["value"], final["value"]

        after_rmw, final = run(two_hosts.env, scenario(two_hosts.env))
        assert after_rmw == b"abc"
        assert final == b"abc"

    def test_rmw_on_missing_key_creates_it(self, two_hosts):
        server, client_rt = kv_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            reply = yield from client.rmw("fresh", b"xyz")
            return reply

        reply = run(two_hosts.env, scenario(two_hosts.env))
        assert (reply["status"], reply["value"]) == ("ok", b"xyz")


class TestKvCodecValidation:
    """Regression: truncated/corrupt buffers must raise, not decode to a
    silently wrong key (chaos-corrupted datagrams became wrong-key ops)."""

    def _encoded(self, op="put", key="user42", value=b"payload"):
        return KvCodec().encode(kv_request(op, key, value))

    def test_truncated_request_header_raises(self):
        codec = KvCodec()
        with pytest.raises(ChunnelArgumentError, match="truncated request"):
            codec.decode(b"\x10\x00\x00")

    def test_truncated_key_raises(self):
        codec = KvCodec()
        encoded = self._encoded(key="a-long-key-name")
        # Cut mid-key: the old decoder sliced a shorter key and "succeeded".
        with pytest.raises(ChunnelArgumentError, match="truncated key"):
            codec.decode(encoded[:12])

    def test_key_hash_mismatch_raises(self):
        import struct

        codec = KvCodec()
        encoded = bytearray(self._encoded(key="victim"))
        struct.pack_into(">I", encoded, 1, 0xDEADBEEF)  # corrupt the hash
        with pytest.raises(ChunnelArgumentError, match="hash mismatch"):
            codec.decode(bytes(encoded))

    def test_corrupted_key_bytes_caught_by_hash(self):
        codec = KvCodec()
        encoded = bytearray(self._encoded(key="abcdef"))
        encoded[9] ^= 0xFF  # flip a key byte; hash no longer matches
        with pytest.raises(ChunnelArgumentError):
            codec.decode(bytes(encoded))

    def test_unknown_op_code_raises(self):
        codec = KvCodec()
        encoded = bytearray(self._encoded())
        encoded[5] = 0x7F
        with pytest.raises(ChunnelArgumentError, match="unknown op"):
            codec.decode(bytes(encoded))

    def test_truncated_response_value_raises(self):
        codec = KvCodec()
        encoded = codec.encode(kv_response("ok", b"0123456789"))
        with pytest.raises(ChunnelArgumentError, match="truncated value"):
            codec.decode(encoded[:10])

    def test_unknown_status_code_raises(self):
        codec = KvCodec()
        encoded = bytearray(codec.encode(kv_response("ok", b"v")))
        encoded[1] = 0x7F
        with pytest.raises(ChunnelArgumentError, match="unknown status"):
            codec.decode(bytes(encoded))

    def test_worker_counts_corrupt_request_as_error(self, two_hosts):
        from repro.apps.kvstore import ShardWorker

        server_rt = two_hosts.runtime("srv")
        worker = ShardWorker(server_rt.entity, 7199)
        corrupt = bytearray(KvCodec().encode(kv_request("put", "key", b"v")))
        corrupt[9] ^= 0xFF
        dgram_like = type(
            "D", (), {"payload": bytes(corrupt), "headers": {}, "src": None}
        )()
        response = worker._apply(dgram_like)
        assert response["status"] == "error"
        assert worker.errors == 1
        assert worker.requests_served == 0


class TestScanLengthValidation:
    """Regression: an explicit scan length of 0 was coerced to 1."""

    def test_scan_length_zero_returns_empty(self, two_hosts):
        server, client_rt = kv_world(two_hosts, shards=1)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("k1", b"v")
            reply = yield from client.scan("k0", length=0)
            return reply

        reply = run(two_hosts.env, scenario(two_hosts.env))
        assert reply["status"] == "ok"
        assert reply["value"] == b""

    def test_client_rejects_out_of_range_lengths(self, two_hosts):
        client_rt = two_hosts.runtime("cl")
        client = KvClient(client_rt)
        for bad in (-1, 1 << 32, "ten", 2.5):
            with pytest.raises(ChunnelArgumentError):
                # .scan is a generator; validation must fire eagerly on
                # construction-time argument checking via next().
                gen = client.scan("k", bad)
                next(gen)
