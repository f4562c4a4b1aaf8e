"""Property-based tests (hypothesis) on Chunnel data-path invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunnels import HashBytes, keystream_cipher
from repro.chunnels.ordering import Ordered, OrderedFallback, _OrderedStage
from repro.core import Message, wrap
from repro.core.chunnel import Role
from repro.core.wire import decode, encode
from repro.sim import Address, Environment


class _FakeStack:
    """Just enough stack for driving a stage directly."""

    def __init__(self):
        self.env = Environment()
        self.connection = None
        self.below: list[Message] = []
        self.above: list[Message] = []

    def charge(self, seconds):
        pass

    def send_from(self, index, msg):
        self.below.append(msg)

    def receive_from(self, index, msg):
        self.above.append(msg)


def attach(stage):
    stack = _FakeStack()
    stage._stack = stack
    stage._index = 0
    return stack


class TestShardFunctionProperties:
    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=16))
    def test_hash_bytes_in_range(self, payload, n):
        assert 0 <= HashBytes(0, 4).bucket(payload, {}, n) < n

    @given(st.binary(min_size=1, max_size=64))
    def test_hash_bytes_deterministic(self, payload):
        fn = HashBytes(2, 8)
        assert fn.bucket(payload, {}, 7) == fn.bucket(payload, {}, 7)


class TestCipherProperties:
    @given(st.binary(max_size=512), st.integers(min_value=1, max_value=2**32))
    @settings(max_examples=30)
    def test_encrypt_decrypt_roundtrip(self, data, nonce):
        key = b"\x42" * 32
        assert keystream_cipher(key, nonce, keystream_cipher(key, nonce, data)) == data

    @given(st.binary(min_size=16, max_size=256))
    @settings(max_examples=30)
    def test_ciphertext_differs_from_plaintext(self, data):
        key = b"\x42" * 32
        # With overwhelming probability for ≥16 bytes of keystream.
        assert keystream_cipher(key, 1, data) != data


class TestOrderingProperty:
    @given(st.permutations(list(range(1, 9))))
    @settings(max_examples=40)
    def test_any_arrival_order_delivers_in_sequence(self, arrival_order):
        """Feed sequence numbers in an arbitrary order; the stage must
        release exactly 1..n in ascending order (the resequencing
        invariant)."""
        stage = _OrderedStage(
            OrderedFallback(Ordered(flush_after=None)), Role.SERVER
        )
        attach(stage)
        released: list[int] = []
        src = Address("peer", 1)
        for seq in arrival_order:
            msg = Message(payload=b"", headers={"ord_seq": seq}, src=src)
            for out in stage.on_recv(msg):
                released.append(out.headers["ord_seq"])
        assert released == sorted(arrival_order)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=6), min_size=1, max_size=20
        )
    )
    @settings(max_examples=40)
    def test_duplicates_never_delivered_twice(self, seqs):
        stage = _OrderedStage(
            OrderedFallback(Ordered(flush_after=None)), Role.SERVER
        )
        attach(stage)
        released: list[int] = []
        src = Address("peer", 1)
        for seq in seqs:
            msg = Message(payload=b"", headers={"ord_seq": seq}, src=src)
            released.extend(
                out.headers["ord_seq"] for out in stage.on_recv(msg)
            )
        assert len(released) == len(set(released))
        assert released == sorted(released)


class TestDagProperties:
    chain_strategy = st.lists(
        st.sampled_from(
            ["serialize", "reliable", "ordered", "encrypt", "http2", "tcp"]
        ),
        min_size=0,
        max_size=6,
    )

    @staticmethod
    def build(types):
        from repro.chunnels import (
            Encrypt,
            Http2,
            Ordered,
            Reliable,
            Serialize,
            Tcp,
        )

        factory = {
            "serialize": Serialize,
            "reliable": Reliable,
            "ordered": Ordered,
            "encrypt": Encrypt,
            "http2": Http2,
            "tcp": Tcp,
        }
        return wrap(*[factory[t]() for t in types])

    @given(chain_strategy)
    @settings(max_examples=50)
    def test_wire_roundtrip_preserves_shape(self, types):
        dag = self.build(types)
        decoded = decode(encode(dag))
        assert decoded.canonical_shape() == dag.canonical_shape()

    @given(chain_strategy)
    @settings(max_examples=50)
    def test_chain_topological_order_matches_construction(self, types):
        dag = self.build(types)
        assert [s.type_name for s in dag.specs_in_order()] == types

    @given(chain_strategy, chain_strategy)
    @settings(max_examples=50)
    def test_compatibility_is_symmetric(self, left_types, right_types):
        left = self.build(left_types)
        right = self.build(right_types)
        assert left.compatible_with(right) == right.compatible_with(left)

    @given(chain_strategy)
    @settings(max_examples=30)
    def test_optimizer_output_is_always_a_valid_dag(self, types):
        from repro.core import DagOptimizer

        dag = self.build(types)
        result = DagOptimizer().optimize(
            dag, offloadable={"encrypt", "tcp", "tls"}
        )
        # The decoder re-checks edges and order, as construction did.
        decoded = decode(encode(result.dag))
        assert decoded.canonical_shape() == result.dag.canonical_shape()
        # Optimization never grows the pipeline.
        assert len(result.dag.nodes) <= len(dag.nodes)
