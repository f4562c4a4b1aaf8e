"""Tests for encrypt, http2 framing, tcp, and tls."""

import pytest

from repro.chunnels import (
    Encrypt,
    EncryptFallback,
    Http2,
    Http2Fallback,
    Serialize,
    SerializeFallback,
    Tcp,
    TcpFallback,
    Tls,
    TlsFallback,
    keystream_cipher,
)
from repro.core import wrap
from repro.errors import ChunnelArgumentError
from repro.sim import LossProgram

from ..conftest import run
from .helpers import build_pair, connect, request_reply


def echo_once(dag, impls, payload, size=None):
    """Build a pair, send one request, echo it; returns (request, reply)."""
    pair = build_pair(dag, client_impls=impls, server_impls=impls)

    def scenario(env):
        yield from connect(pair)
        request, reply = yield from request_reply(pair, payload, size=size)
        return pair, request, reply

    return run(pair.env, scenario(pair.env))


class TestKeystreamCipher:
    def test_involution(self):
        key, nonce, data = b"k" * 32, 7, b"secret payload" * 10
        once = keystream_cipher(key, nonce, data)
        assert once != data
        assert keystream_cipher(key, nonce, once) == data

    def test_nonce_changes_ciphertext(self):
        key, data = b"k" * 32, b"same plaintext"
        assert keystream_cipher(key, 1, data) != keystream_cipher(key, 2, data)

    def test_key_changes_ciphertext(self):
        data = b"same plaintext"
        assert keystream_cipher(b"a" * 32, 1, data) != keystream_cipher(
            b"b" * 32, 1, data
        )


class TestEncryptChunnel:
    def test_plaintext_restored_end_to_end(self):
        _pair, request, reply = echo_once(
            wrap(Encrypt()), [EncryptFallback], b"attack at dawn"
        )
        assert request.payload == b"attack at dawn"
        assert reply.payload == b"attack at dawn"

    def test_ciphertext_on_the_wire(self):
        pair = build_pair(
            wrap(Encrypt()),
            client_impls=[EncryptFallback],
            server_impls=[EncryptFallback],
        )
        captured = []
        original_transmit = pair.net.transmit

        def spy(dgram, after=0.0):
            captured.append(dgram)
            original_transmit(dgram, after)

        pair.net.transmit = spy

        def scenario(env):
            yield from connect(pair)
            pair.client_conn.send(b"plaintext!", size=10)
            msg = yield pair.server_conn.recv()
            return msg.payload

        assert run(pair.env, scenario(pair.env)) == b"plaintext!"
        data_frames = [d for d in captured if d.headers.get("enc")]
        assert data_frames
        assert all(d.payload != b"plaintext!" for d in data_frames)

    def test_wire_size_includes_overhead(self):
        _pair, request, _reply = echo_once(
            wrap(Encrypt()), [EncryptFallback], b"x" * 100
        )
        # Received size is restored after decryption.
        assert request.size == 100

    def test_needs_bytes(self):
        pair = build_pair(
            wrap(Encrypt()),
            client_impls=[EncryptFallback],
            server_impls=[EncryptFallback],
        )

        def scenario(env):
            yield from connect(pair)
            pair.client_conn.send({"not": "bytes"})
            yield env.timeout(0)

        with pytest.raises(ChunnelArgumentError):
            run(pair.env, scenario(pair.env))

    def test_serialize_above_encrypt_composes(self):
        _pair, request, _reply = echo_once(
            wrap(Serialize() >> Encrypt()),
            [SerializeFallback, EncryptFallback],
            {"nested": [1, 2, 3]},
        )
        assert request.payload == {"nested": [1, 2, 3]}


class TestHttp2Framing:
    def test_frame_roundtrip(self):
        _pair, request, _reply = echo_once(
            wrap(Http2()), [Http2Fallback], b"body bytes"
        )
        assert request.payload == b"body bytes"

    def test_frame_overhead_on_wire(self):
        pair = build_pair(
            wrap(Http2()),
            client_impls=[Http2Fallback],
            server_impls=[Http2Fallback],
        )
        sizes = []
        original_transmit = pair.net.transmit

        def spy(dgram, after=0.0):
            sizes.append(dgram.size)
            original_transmit(dgram, after)

        pair.net.transmit = spy

        def scenario(env):
            yield from connect(pair)
            pair.client_conn.send(b"x" * 50, size=50)
            msg = yield pair.server_conn.recv()
            return msg.size

        received_size = run(pair.env, scenario(pair.env))
        assert received_size == 50
        data_sizes = [s for s in sizes if s >= 50]
        assert 59 in data_sizes  # 50 + 9-byte frame header

    def test_frame_counters(self):
        pair, _request, _reply = echo_once(
            wrap(Http2()), [Http2Fallback], b"counted"
        )
        client_stage = pair.client_conn.stack.stages[0]
        assert client_stage.frames_sent == 1
        assert client_stage.frames_received == 1


class TestTcpChunnel:
    def test_lossy_path_delivers_in_order(self):
        pair = build_pair(
            wrap(Tcp(timeout=100e-6)),
            client_impls=[TcpFallback],
            server_impls=[TcpFallback],
        )
        pair.net.switches["tor"].install(
            LossProgram(
                "loss",
                predicate=lambda d: d.headers.get("rel_kind") == "data",
                drop_rate=0.25,
                seed=11,
            )
        )

        def scenario(env):
            yield from connect(pair)
            for index in range(15):
                pair.client_conn.send(b"%02d" % index, size=2)
            got = []
            for _ in range(15):
                msg = yield pair.server_conn.recv()
                got.append(bytes(msg.payload))
            return got

        got = run(pair.env, scenario(pair.env))
        assert got == [b"%02d" % i for i in range(15)]


class TestTlsChunnel:
    def test_confidential_reliable_in_order(self):
        pair = build_pair(
            wrap(Tls(timeout=100e-6)),
            client_impls=[TlsFallback],
            server_impls=[TlsFallback],
        )
        pair.net.switches["tor"].install(
            LossProgram(
                "loss",
                predicate=lambda d: d.headers.get("rel_kind") == "data",
                drop_first=1,
            )
        )
        captured = []
        original_transmit = pair.net.transmit

        def spy(dgram, after=0.0):
            captured.append(dgram)
            original_transmit(dgram, after)

        pair.net.transmit = spy

        def scenario(env):
            yield from connect(pair)
            pair.client_conn.send(b"secret-1", size=8)
            pair.client_conn.send(b"secret-2", size=8)
            got = []
            for _ in range(2):
                msg = yield pair.server_conn.recv()
                got.append(bytes(msg.payload))
            return got

        got = run(pair.env, scenario(pair.env))
        assert got == [b"secret-1", b"secret-2"]
        wire_payloads = [
            bytes(d.payload) for d in captured if d.headers.get("tls")
        ]
        assert wire_payloads
        assert b"secret-1" not in wire_payloads


class TestTcpWindow:
    """Flow control: the §2-bundled third TCP function."""

    def make(self, window):
        return build_pair(
            wrap(Tcp(timeout=300e-6, window=window)),
            client_impls=[TcpFallback],
            server_impls=[TcpFallback],
        )

    def test_window_bounds_in_flight_messages(self):
        pair = self.make(window=2)
        in_flight_high_water = [0]
        original_transmit = pair.net.transmit

        def spy(dgram, after=0.0):
            stage = pair.client_conn.stack.stages[0]
            in_flight_high_water[0] = max(
                in_flight_high_water[0], len(stage._unacked)
            )
            original_transmit(dgram, after)

        def scenario(env):
            yield from connect(pair)
            pair.net.transmit = spy
            for index in range(10):
                pair.client_conn.send(b"%02d" % index, size=2)
            got = []
            for _ in range(10):
                msg = yield pair.server_conn.recv()
                got.append(bytes(msg.payload))
            stage = pair.client_conn.stack.stages[0]
            return got, stage.window_stalls

        got, stalls = run(pair.env, scenario(pair.env))
        assert got == [b"%02d" % i for i in range(10)]
        assert stalls == 8  # everything beyond the first window queued
        assert in_flight_high_water[0] <= 2

    def test_close_drops_sends_queued_behind_the_window(self):
        pair = self.make(window=1)

        def scenario(env):
            yield from connect(pair)
            for index in range(4):
                pair.client_conn.send(b"%d" % index, size=1)
            stage = pair.client_conn.stack.stages[0]
            queued = len(stage._send_queue)
            pair.client_conn.close()
            return queued, len(stage._send_queue)

        assert run(pair.env, scenario(pair.env)) == (3, 0)

    def test_acks_reopen_the_window(self):
        pair = self.make(window=1)

        def scenario(env):
            yield from connect(pair)
            for index in range(5):
                pair.client_conn.send(b"%d" % index, size=1)
            got = []
            for _ in range(5):
                msg = yield pair.server_conn.recv()
                got.append(bytes(msg.payload))
            stage = pair.client_conn.stack.stages[0]
            return got, len(stage._send_queue)

        got, leftover = run(pair.env, scenario(pair.env))
        assert got == [b"0", b"1", b"2", b"3", b"4"]
        assert leftover == 0  # queue fully drained by acks

    def test_window_preserves_order_under_loss(self):
        pair = self.make(window=3)
        pair.net.switches["tor"].install(
            LossProgram(
                "loss",
                predicate=lambda d: d.headers.get("rel_kind") == "data",
                drop_rate=0.2,
                seed=5,
            )
        )

        def scenario(env):
            yield from connect(pair)
            for index in range(12):
                pair.client_conn.send(b"%02d" % index, size=2)
            got = []
            for _ in range(12):
                msg = yield pair.server_conn.recv()
                got.append(bytes(msg.payload))
            return got

        got = run(pair.env, scenario(pair.env))
        assert got == [b"%02d" % i for i in range(12)]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Tcp(window=0)
