"""Wire fast-path contracts: codec-table memoization and single-pass sizing."""

import pytest

from repro.core import messages as msgs
from repro.core import wire
from repro.core.wire import (
    MIN_MESSAGE_SIZE,
    WireError,
    decode,
    encode,
    encode_sized,
    register_wire_type,
)
from repro.sim import Address


class _MemoBase:
    def __init__(self, x):
        self.x = x

    def __eq__(self, other):
        return isinstance(other, _MemoBase) and self.x == other.x


class _MemoSub(_MemoBase):
    pass


class _AfterBase:
    pass


register_wire_type("test.memo_base", _MemoBase, fields=[("x", int)])
# Registered *after* the base on purpose: the registry scan for _MemoSub
# then matches mid-iteration rather than on the final entry, which is the
# case that would blow up if the memoizing write kept iterating.
register_wire_type("test.after_base", _AfterBase, fields=[])


class TestAdapterMemoization:
    def test_subclass_resolves_to_base_adapter(self):
        assert decode(encode(_MemoSub(3))) == _MemoBase(3)

    def test_subclass_hit_is_memoized_under_the_concrete_type(self):
        wire._codecs.pop(_MemoSub, None)
        encode(_MemoSub(1))
        # Second encode is a plain dict hit: the concrete type now maps to
        # the very same codec as the registered base.
        assert wire._codecs[_MemoSub] is wire._codecs[_MemoBase]

    def test_memoizing_during_the_registry_scan_is_safe(self):
        # Regression: the memo write happens *inside* the scan over
        # ``_codecs``.  If the loop kept iterating after the write, the
        # first subclass encode would die with "dictionary changed size
        # during iteration".  _AfterBase sits after _MemoBase in insertion
        # order, so this encode exercises exactly that mid-scan write.
        wire._codecs.pop(_MemoSub, None)
        encoded = encode([_MemoSub(i) for i in range(3)])
        assert [decode(item).x for item in encoded] == [0, 1, 2]

    def test_base_registration_survives_subclass_memoization(self):
        encode(_MemoSub(5))
        assert decode(encode(_MemoBase(9))) == _MemoBase(9)

    def test_unregistered_type_still_rejected(self):
        class Stranger:
            pass

        with pytest.raises(WireError):
            encode(Stranger())


def carrying(value):
    """A control message whose self-describing ``attempt`` field holds
    ``value``."""
    return msgs.Query(types=["reliable"], req_id="r1", attempt=value)


class TestEncodeSizedEquivalence:
    """``encode_sized`` returns the frame and ``max(64, len(frame))`` in one
    pass, for every shape a self-describing field carries, and the frame
    decodes back to an equal value."""

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            1e-9,
            "hello",
            "",
            b"",
            b"\x00\xff",
            bytes(range(64)),
            [],
            {},
            (1, 2),
            [1, [2, "x"], {"k": b"z"}],
            {"a": {"b": [1, 2.5, None]}, "c": True},
            Address("host-a", 9),
            {"peers": [Address("a", 1), Address("b", 2)]},
            _MemoSub(7),
        ],
    )
    def test_matches_two_pass_encoding(self, value):
        payload, size = encode_sized(carrying(value))
        assert size == max(MIN_MESSAGE_SIZE, len(payload))
        decoded = msgs.decode_message(payload)
        assert decoded.attempt == decode(encode(value))
        assert encode_sized(decoded) == (payload, size)

    def test_primitive_subclasses_take_the_isinstance_fallback(self):
        class MyInt(int):
            pass

        class MyStr(str):
            pass

        for value, plain in (
            (MyInt(42), 42),
            (MyStr("abc"), "abc"),
            ([MyInt(1), MyStr("s")], [1, "s"]),
            ((MyInt(3),), [3]),
        ):
            assert encode_sized(carrying(value)) == encode_sized(carrying(plain))

    def test_floor_applies_to_tiny_payloads(self):
        payload, size = encode_sized(msgs.Ping())
        assert len(payload) < MIN_MESSAGE_SIZE == size

    def test_reserved_and_non_string_keys_still_rejected(self):
        with pytest.raises(WireError):
            encode_sized(carrying({"@": 1}))
        with pytest.raises(WireError):
            encode_sized(carrying({1: "x"}))
