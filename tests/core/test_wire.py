"""Tests for the self-describing wire encoding of ``Any`` fields."""

from typing import Any

import pytest

from repro.core.wire import WireError, decode, encode, register_wire_type
from repro.sim import Address


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -17, 3.5, "hello", "", [1, 2, 3], {"a": 1}],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_bytes_roundtrip(self):
        blob = bytes(range(256))
        assert decode(encode(blob)) == blob

    def test_tuple_becomes_list(self):
        assert decode(encode((1, 2))) == [1, 2]

    def test_nested_structures(self):
        value = {"xs": [1, {"inner": b"\x00\xff"}], "flag": True}
        assert decode(encode(value)) == value

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(WireError):
            encode({1: "x"})

    def test_reserved_key_rejected(self):
        with pytest.raises(WireError):
            encode({"@": "spoof"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(WireError):
            encode(lambda: None)

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError):
            decode({"@": ["does-not-exist"]})

    def test_tag_key_must_stand_alone(self):
        with pytest.raises(WireError):
            decode({"@": ["address", "h", 1], "extra": 1})

    def test_bytes_must_be_canonical_hex(self):
        assert decode({"@": ["bytes", "00ff"]}) == b"\x00\xff"
        for bad in ("00FF", "0", "zz"):
            with pytest.raises(WireError):
                decode({"@": ["bytes", bad]})


class TestRegisteredTypes:
    def test_address_roundtrip(self):
        addr = Address("host-7", 8080)
        assert decode(encode(addr)) == addr

    def test_address_nested_in_containers(self):
        value = {"peers": [Address("a", 1), Address("b", 2)]}
        assert decode(encode(value)) == value

    def test_duplicate_tag_registration_rejected(self):
        class Custom:
            pass

        with pytest.raises(WireError):
            register_wire_type("address", Custom, fields=[])

    def test_custom_type_registration(self):
        class Pair:
            def __init__(self, a, b):
                self.a, self.b = a, b

            def __eq__(self, other):
                return (self.a, self.b) == (other.a, other.b)

        register_wire_type("test.pair", Pair, fields=[("a", Any), ("b", Any)])
        assert encode(Pair(1, "x")) == {"@": ["test.pair", 1, "x"]}
        assert decode(encode(Pair(1, "x"))) == Pair(1, "x")


class TestChunnelSpecOnWire:
    def test_spec_roundtrip(self):
        from repro.chunnels import Reliable

        spec = Reliable(timeout=1e-3, max_retries=7)
        decoded = decode(encode(spec))
        assert decoded.type_name == "reliable"
        assert decoded.args == spec.args

    def test_spec_nested_in_args(self):
        from repro.chunnels import Serialize, Shard

        spec = Shard(choices=[Address("w", 1)])
        decoded = decode(encode({"spec": spec}))["spec"]
        assert decoded.type_name == "shard"
        assert decoded.choices == [Address("w", 1)]

    def test_shard_functions_roundtrip(self):
        from repro.chunnels import HashBytes

        assert decode(encode(HashBytes(3, 8))) == HashBytes(3, 8)

    def test_lambda_shard_function_rejected(self):
        """Negotiation payloads are data; arbitrary code cannot travel."""
        from repro.chunnels import Shard

        spec = Shard(choices=[Address("w", 1)])
        spec.args["shard_fn"] = lambda payload, headers, n: 0
        with pytest.raises(WireError):
            encode(spec)
