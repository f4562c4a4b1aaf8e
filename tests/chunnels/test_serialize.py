"""Tests for the serialization Chunnel and its codecs."""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chunnels import (
    BincodeCodec,
    JsonCodec,
    Serialize,
    SerializeFallback,
    get_codec,
    register_codec,
)
from repro.core import wrap
from repro.errors import ChunnelArgumentError

from ..conftest import run
from .helpers import build_pair, connect, request_reply


# A strategy for everything bincode supports.
json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestBincodeCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            2**100,  # big int path
            -(2**100),
            1.5,
            b"",
            b"\x00\xff" * 10,
            "",
            "héllo wörld",
            [],
            [1, [2, [3]]],
            {},
            {"key": "value", "nested": {"a": [1, 2]}},
        ],
    )
    def test_roundtrip_cases(self, value):
        codec = BincodeCodec()
        assert codec.decode(codec.encode(value)) == value

    @given(json_like)
    def test_roundtrip_property(self, value):
        codec = BincodeCodec()
        assert codec.decode(codec.encode(value)) == value

    @given(json_like)
    def test_encoding_is_deterministic(self, value):
        codec = BincodeCodec()
        assert codec.encode(value) == codec.encode(value)

    def test_tuple_encodes_as_list(self):
        codec = BincodeCodec()
        assert codec.decode(codec.encode((1, 2))) == [1, 2]

    def test_unsupported_type_rejected(self):
        with pytest.raises(ChunnelArgumentError):
            BincodeCodec().encode(object())

    def test_truncated_input_rejected(self):
        codec = BincodeCodec()
        data = codec.encode([1, 2, 3])
        with pytest.raises(ChunnelArgumentError):
            codec.decode(data[:-3])

    def test_trailing_bytes_rejected(self):
        codec = BincodeCodec()
        with pytest.raises(ChunnelArgumentError):
            codec.decode(codec.encode(1) + b"junk")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ChunnelArgumentError):
            BincodeCodec().decode(b"Z")

    @pytest.mark.parametrize(
        "data",
        [
            b"s\x00\x00\x00\x02\xff\xfe",  # not UTF-8
            b"l\x00\x00\x00\x01" * (sys.getrecursionlimit() + 100) + b"N",
            b"m\x00\x00\x00\x01l\x00\x00\x00\x00N",  # a list as a map key
            b"m\x00\x00\x00\x01m\x00\x00\x00\x00N",  # a map as a map key
            b"s\x00\x00\x00\x09abc",  # a length past the end
            b"I\x00\x00\x00\x01\x07*",  # a big int's sign is - or +
        ],
        ids=["utf8", "too-deep", "list-key", "map-key", "long-length", "sign"],
    )
    def test_malformed_input_raises_chunnel_argument_error(self, data):
        with pytest.raises(ChunnelArgumentError):
            BincodeCodec().decode(data)

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        json_like,
        st.integers(0, 2),
        st.integers(0, 4096),
        st.binary(min_size=1, max_size=8),
    )
    def test_mutated_encodings_decode_or_raise(self, value, choice, at, data):
        """Truncation, a byte flip or appended bytes: the decoder either
        returns a value the codec encodes stably, or raises
        :class:`ChunnelArgumentError` — never another exception."""
        codec = BincodeCodec()
        frame = codec.encode(value)
        at %= len(frame) + 1
        if choice == 0:
            mutated = frame[:at]
        elif choice == 1:
            at %= len(frame)
            mutated = frame[:at] + bytes([frame[at] ^ data[0]]) + frame[at + 1:]
        else:
            mutated = frame + data
        try:
            decoded = codec.decode(mutated)
        except ChunnelArgumentError:
            return
        again = codec.encode(decoded)
        assert codec.encode(codec.decode(again)) == again

    def test_more_compact_than_json_for_binary(self):
        codec = BincodeCodec()
        value = {"blob": bytes(500)}
        assert len(codec.encode(value)) < len(
            JsonCodec().encode({"blob": "00" * 500})
        )


class TestCodecRegistry:
    def test_builtin_codecs_registered(self):
        assert get_codec("bincode").name == "bincode"
        assert get_codec("json").name == "json"

    def test_unknown_codec_rejected(self):
        with pytest.raises(ChunnelArgumentError):
            get_codec("protobuf-9000")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ChunnelArgumentError):
            register_codec(BincodeCodec())

    def test_spec_validates_codec_eagerly(self):
        with pytest.raises(ChunnelArgumentError):
            Serialize(codec="nope")


class TestSerializeChunnel:
    def run_roundtrip(self, payload, codec="bincode"):
        pair = build_pair(
            wrap(Serialize(codec=codec)),
            client_impls=[SerializeFallback],
            server_impls=[SerializeFallback],
        )

        def scenario(env):
            yield from connect(pair)
            request, reply = yield from request_reply(pair, payload)
            return request.payload, reply.payload

        return run(pair.env, scenario(pair.env))

    def test_objects_roundtrip_end_to_end(self):
        payload = {"op": "get", "key": "k1", "n": 7}
        server_saw, client_got = self.run_roundtrip(payload)
        assert server_saw == payload
        assert client_got == payload

    def test_json_codec_negotiable(self):
        server_saw, _ = self.run_roundtrip([1, "two", None], codec="json")
        assert server_saw == [1, "two", None]

    def test_wire_size_reflects_encoding(self):
        pair = build_pair(
            wrap(Serialize()),
            client_impls=[SerializeFallback],
            server_impls=[SerializeFallback],
        )

        def scenario(env):
            yield from connect(pair)
            payload = {"blob": bytes(1000)}
            request, _reply = yield from request_reply(pair, payload)
            return request.size

        size = run(pair.env, scenario(pair.env))
        expected = len(BincodeCodec().encode({"blob": bytes(1000)}))
        assert size == expected

    def test_serialization_cost_scales_with_size(self):
        def rtt_for(blob_size):
            pair = build_pair(
                wrap(Serialize()),
                client_impls=[SerializeFallback],
                server_impls=[SerializeFallback],
            )

            def scenario(env):
                yield from connect(pair)
                start = env.now
                yield from request_reply(pair, {"blob": bytes(blob_size)})
                return env.now - start

            return run(pair.env, scenario(pair.env))

        assert rtt_for(100_000) > rtt_for(100) * 2

    def test_stage_counts_bytes(self):
        pair = build_pair(
            wrap(Serialize()),
            client_impls=[SerializeFallback],
            server_impls=[SerializeFallback],
        )

        def scenario(env):
            yield from connect(pair)
            yield from request_reply(pair, {"x": 1})
            stage = pair.client_conn.stack.stages[0]
            return stage.bytes_encoded, stage.bytes_decoded

        encoded, decoded = run(pair.env, scenario(pair.env))
        assert encoded > 0
        assert decoded == encoded  # echo comes back the same size
