"""Schema-wide properties of the typed control-message registry.

Per-protocol behaviour lives with each subsystem's tests; this file checks
the properties that hold for *every* registered message kind: round-trip
fidelity through the frame codec, strict version, arity and type
validation at every depth, canonical decoding under mutation (fuzzed),
sizing by payload length — and the repo rules that no production module
builds raw ``{"kind": ...}`` control dicts, keeps a hand-written
``to_wire``/``from_wire`` pair, or builds or parses a control frame
outside the codec modules.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chunnels import Reliable, Serialize
from repro.core import ImplMeta, Offer as ImplOffer, ResourceVector, Scope, wrap
from repro.core import messages as msgs
from repro.core import wire
from repro.core.negcache import binding_digest, shape_digest
from repro.core.scope import Endpoints, Placement
from repro.core.wire import (
    MAGIC,
    MIN_MESSAGE_SIZE,
    WireError,
    encode_sized,
    wire_kind,
)
from repro.discovery import ShardInfo
from repro.sim import Address

REPO_ROOT = Path(__file__).resolve().parents[2]


def impl_offer():
    return ImplOffer(
        meta=ImplMeta(
            chunnel_type="reliable",
            name="sw",
            priority=10,
            scope=Scope.GLOBAL,
            endpoints=Endpoints.BOTH,
            placement=Placement.HOST_SOFTWARE,
            resources=ResourceVector(),
        ),
        origin="client",
        location="srv",
        record_id="rec-1",
    )


def samples():
    """One representative instance per registered message kind, with every
    optional field populated (so round-trips exercise the full schema)."""
    dag = wrap(Serialize() >> Reliable())
    node = dag.topological_order()[0]
    offers = {"reliable": [impl_offer()]}
    messages = [
        msgs.Offer(
            conn_id="c1",
            dag=dag,
            offers=offers,
            client_entity="cl",
            network_offers=offers,
        ),
        msgs.Accept(
            conn_id="c1",
            dag=dag,
            choice={node: impl_offer()},
            data_addr=Address("srv", 40001),
            transport="udp",
            params={"window": 4},
            policy_epoch=3,
        ),
        msgs.Resume(
            conn_id="c1",
            client_entity="cl",
            policy_epoch=3,
            shape_digest=shape_digest(dag),
            binding_digest=binding_digest(dag, {node: impl_offer()}),
        ),
        msgs.ResumeReject(conn_id="c1", reason="policy epoch 3 != 4"),
        msgs.Error(conn_id="c1", error_type="NegotiationError", error="boom"),
        msgs.Hello(conn_id="c1"),
        msgs.Transition(
            conn_id="c1", epoch=2, dag=dag, choice={node: impl_offer()},
            reason="policy",
        ),
        msgs.TransitionAck(conn_id="c1", epoch=2, ok=False, error="refused"),
        msgs.TransitionRequest(conn_id="c1", reason="latency"),
        msgs.Heartbeat(conn_id="c1", seq=4),
        msgs.HeartbeatAck(conn_id="c1", seq=4),
        msgs.Migrate(conn_id="c1", epoch=2, client_entity="cl"),
        msgs.MigrateAck(conn_id="c1", epoch=2, ok=False, error="no state"),
        msgs.Query(
            types=["reliable"], service_name="svc", req_id="r1", attempt=1
        ),
        msgs.QueryReply(
            offers=offers, instances=[Address("srv", 7000)],
            req_id="r1", attempt=1,
        ),
        msgs.Reserve(record_id="rec-1", owner="me", req_id="r2", attempt=0),
        msgs.ReserveReply(ok=True, req_id="r2", attempt=0),
        msgs.LeaseCheck(record_id="rec-1", owner="me", req_id="r2c", attempt=0),
        msgs.LeaseCheckReply(ok=True, req_id="r2c", attempt=0),
        msgs.Release(record_id="rec-1", owner="me", req_id="r3", attempt=0),
        msgs.ReleaseReply(req_id="r3", attempt=0),
        msgs.Watch(
            record_id="rec-1", address=Address("cl", 4001),
            req_id="r4", attempt=0,
        ),
        msgs.WatchReply(req_id="r4", attempt=0),
        msgs.RegisterName(
            name="svc", address=Address("srv", 7000), req_id="r5", attempt=0
        ),
        msgs.RegisterNameReply(req_id="r5", attempt=0),
        msgs.ServiceError(error="unsupported", req_id="r7", attempt=0),
        msgs.GetShardMap(req_id="r8", attempt=1),
        msgs.ShardMapReply(
            version=2,
            shards=[
                ShardInfo(
                    shard_id=0,
                    primary=Address("s0a", 7400),
                    replicas=[Address("s0a", 7400), Address("s0b", 7400)],
                )
            ],
            req_id="r8",
            attempt=1,
        ),
        msgs.Ping(req_id="r9", attempt=0),
        msgs.Pong(ok=True, req_id="r9", attempt=0),
        msgs.Promote(shard_id=1, version=3, req_id="r10", attempt=0),
        msgs.PromoteReply(ok=False, version=3, req_id="r10", attempt=0),
        msgs.Revoked(record_id="rec-1"),
        msgs.LeaseRevoked(record_id="rec-1", owner="me"),
        msgs.ResumeAccept(
            conn_id="c1",
            data_addr=Address("srv", 40001),
            transport="udp",
            params={"window": 4},
            policy_epoch=3,
        ),
    ]
    return {type(m).KIND: m for m in messages}


ALL_KINDS = sorted(msgs.BY_KIND)


def header_and_body(frame: bytes):
    """``(header bytes, parsed JSON field list)`` of a frame."""
    return frame[:4], json.loads(frame[4:])


def reframe(frame: bytes, body) -> bytes:
    """``frame``'s header over a replacement (canonical) JSON body."""
    return frame[:4] + json.dumps(body, separators=(",", ":")).encode()


class TestRoundTrip:
    def test_samples_cover_every_registered_kind(self):
        assert set(samples()) == set(msgs.BY_KIND)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_encode_decode_encode_is_identity(self, kind):
        message = samples()[kind]
        encoded = msgs.encode_message_sized(message)[0]
        decoded = msgs.decode_message(encoded)
        assert type(decoded) is msgs.BY_KIND[kind]
        # ChunnelDag has no __eq__, so compare re-encodings instead of
        # the dataclasses themselves: a lossless decode re-encodes to the
        # byte-identical wire form.
        assert msgs.encode_message_sized(decoded)[0] == encoded

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_encoded_form_is_json_tagged_and_versioned(self, kind):
        """A frame is magic, kind id, version, then one JSON array holding
        the fields by position — no field names on the wire."""
        encoded = msgs.encode_message_sized(samples()[kind])[0]
        header, body = header_and_body(encoded)
        cls = msgs.BY_KIND[kind]
        assert wire_kind(encoded) == kind
        assert header[:2] == MAGIC
        assert header[3] == cls.VERSION
        assert len(body) == len(dataclasses.fields(cls))
        assert b'"conn_id"' not in encoded and b'"req_id"' not in encoded


#: Every kind's frame id.  Ids are given in declaration order and a kind
#: added later is declared last, so no existing kind's id ever moves; 26
#: and 27 belonged to the removed ``disc.unregister_name`` pair and stay
#: retired.
KIND_IDS = {
    "bertha.offer": 1, "bertha.accept": 2, "bertha.resume": 3,
    "bertha.resume_reject": 4, "bertha.error": 5, "bertha.hello": 6,
    "bertha.transition": 7, "bertha.transition_ack": 8,
    "bertha.transition_request": 9, "bertha.heartbeat": 10,
    "bertha.heartbeat_ack": 11, "bertha.migrate": 12, "bertha.migrate_ack": 13,
    "disc.query": 14, "disc.query_reply": 15, "disc.reserve": 16,
    "disc.reserve_reply": 17, "disc.lease_check": 18,
    "disc.lease_check_reply": 19, "disc.release": 20, "disc.release_reply": 21,
    "disc.watch": 22, "disc.watch_reply": 23, "disc.register_name": 24,
    "disc.register_name_reply": 25, "disc.error": 28, "disc.shard_map": 29,
    "disc.shard_map_reply": 30, "disc.ping": 31, "disc.pong": 32,
    "disc.promote": 33, "disc.promote_reply": 34, "disc.revoked": 35,
    "disc.lease_revoked": 36, "bertha.resume_accept": 37,
}


class TestKindIds:
    def test_kind_ids_are_pinned(self):
        assert {
            kind: wire._codecs[cls].kind_id for kind, cls in msgs.BY_KIND.items()
        } == KIND_IDS

    def test_retired_ids_name_no_kind(self):
        frame = msgs.encode_message_sized(msgs.Ping(req_id="r1"))[0]
        for retired in (26, 27):
            assert wire_kind(frame[:2] + bytes([retired]) + frame[3:]) is None
            with pytest.raises(WireError):
                msgs.decode_message(frame[:2] + bytes([retired]) + frame[3:])


class TestStrictDecode:
    def encoded_hello(self):
        return msgs.encode_message_sized(msgs.Hello(conn_id="c1"))[0]

    def test_missing_version_rejected(self):
        encoded = self.encoded_hello()
        with pytest.raises(WireError, match="protocol version"):
            msgs.decode_message(encoded[:3] + b"\x00" + encoded[4:])

    def test_newer_version_rejected(self):
        encoded = self.encoded_hello()
        newer = bytes([msgs.Hello.VERSION + 1])
        with pytest.raises(WireError, match="newer than"):
            msgs.decode_message(encoded[:3] + newer + encoded[4:])

    def test_unknown_field_rejected(self):
        encoded = self.encoded_hello()
        with pytest.raises(WireError, match="malformed bertha.hello"):
            msgs.decode_message(reframe(encoded, ["c1", True]))

    def test_unknown_kind_rejected(self):
        encoded = self.encoded_hello()
        with pytest.raises(WireError, match="unknown wire tag"):
            msgs.decode_message(encoded[:2] + b"\xfa" + encoded[3:])

    def test_untagged_payloads_rejected(self):
        with pytest.raises(WireError):
            msgs.decode_message({"conn_id": "c1"})
        with pytest.raises(WireError):
            msgs.decode_message("hello")
        with pytest.raises(WireError):
            msgs.decode_message(b'["c1"]')

    def test_trailing_and_non_canonical_bytes_rejected(self):
        encoded = self.encoded_hello()
        for bad in (encoded + b" ", encoded + b"[]", encoded[:4] + b'[ "c1"]',
                    encoded[:4] + b'["\\u0063\x31"]'):
            with pytest.raises(WireError):
                msgs.decode_message(bad)


class TestNestedFieldsAreStrict:
    """Every nested value is checked while it is decoded: arity, type and
    enum range at every depth surface as :class:`WireError`, never as a
    ``ValueError``/``KeyError``/``DagError`` from a constructor, and no
    missing field is filled in with a default."""

    def offer_body(self):
        frame = msgs.encode_message_sized(samples()["bertha.offer"])[0]
        return frame, header_and_body(frame)[1]

    def nested_meta(self, body):
        return body[2]["reliable"][0][0]  # offers -> first offer -> meta

    @pytest.mark.parametrize(
        "field, value",
        [(3, 99), (2, 1.5), (2, True), (4, "sideways"), (5, None)],
        ids=["scope-99", "priority-1.5", "priority-bool", "endpoints", "placement"],
    )
    def test_bad_nested_meta_field(self, field, value):
        frame, body = self.offer_body()
        self.nested_meta(body)[field] = value
        with pytest.raises(WireError, match="malformed bertha.offer"):
            msgs.decode_message(reframe(frame, body))

    def test_missing_nested_field_is_not_defaulted(self):
        frame, body = self.offer_body()
        del self.nested_meta(body)[5]  # placement
        with pytest.raises(WireError, match="expected 8 fields"):
            msgs.decode_message(reframe(frame, body))

    def test_address_without_port(self):
        frame = msgs.encode_message_sized(samples()["bertha.accept"])[0]
        body = header_and_body(frame)[1]
        body[3] = ["srv"]
        with pytest.raises(WireError, match="malformed address"):
            msgs.decode_message(reframe(frame, body))

    def test_dag_edge_to_unknown_node(self):
        frame, body = self.offer_body()
        body[1][1].append([1, 99])
        with pytest.raises(WireError, match="missing node"):
            msgs.decode_message(reframe(frame, body))

    def test_negative_and_zero_resources(self):
        for amount in (-1.0, 0.0):
            frame, body = self.offer_body()
            self.nested_meta(body)[6] = [{"nic_slots": amount}]
            with pytest.raises(WireError, match="malformed resources"):
                msgs.decode_message(reframe(frame, body))


class TestResumeDigests:
    """RESUME names the cached binding by two 16-byte digests, each 32
    lowercase hex digits on the wire; anything else is malformed."""

    def resume_body(self):
        frame = msgs.encode_message_sized(samples()["bertha.resume"])[0]
        return frame, header_and_body(frame)[1]

    def test_resume_carries_no_dag_and_no_choice(self):
        _frame, body = self.resume_body()
        assert body[:3] == ["c1", "cl", 3]
        assert [len(digest) for digest in body[3:]] == [32, 32]

    @pytest.mark.parametrize(
        "value",
        ["ab" * 15, "ab" * 17, "AB" * 16, "zz" * 16, " " + "a" * 31, 7, None],
        ids=["short", "long", "upper", "not-hex", "space", "int", "null"],
    )
    @pytest.mark.parametrize("field", [3, 4], ids=["shape", "binding"])
    def test_bad_digest_rejected(self, field, value):
        frame, body = self.resume_body()
        body[field] = value
        with pytest.raises(WireError, match="malformed bertha.resume"):
            msgs.decode_message(reframe(frame, body))

    def test_version_one_layout_rejected(self):
        """The v1 layout (DAG and choice inline) is gone: a v1 frame with
        the old fields does not decode."""
        frame, body = self.resume_body()
        dag = json.loads(msgs.encode_message_sized(samples()["bertha.offer"])[0][4:])[1]
        old = ["c1", dag, [], "cl", 3]
        with pytest.raises(WireError, match="malformed bertha.resume"):
            msgs.decode_message(frame[:3] + b"\x01" + reframe(frame, old)[4:])

    def test_binding_digest_covers_arguments_and_resources(self):
        dag = wrap(Serialize() >> Reliable())
        node = dag.topological_order()[0]
        base = binding_digest(dag, {node: impl_offer()})
        other_args = wrap(Serialize(codec="json") >> Reliable())
        assert shape_digest(other_args) == shape_digest(dag)
        assert binding_digest(other_args, {node: impl_offer()}) != base
        richer = dataclasses.replace(
            impl_offer(),
            meta=dataclasses.replace(
                impl_offer().meta, resources=ResourceVector(nic_slots=1.0)
            ),
        )
        assert binding_digest(dag, {node: richer}) != base
        assert binding_digest(dag, {node: impl_offer()}) == base


class TestEpochZeroIsImplicit:
    def test_accept_epoch_zero_is_an_ordinary_field(self):
        """``policy_epoch`` travels by position like every field, 0
        included: the frame has no optional fields to leave out."""
        accept = samples()["bertha.accept"]
        plain = msgs.Accept(
            conn_id=accept.conn_id,
            dag=accept.dag,
            choice=accept.choice,
            data_addr=accept.data_addr,
            transport=accept.transport,
            params=accept.params,
        )
        encoded = msgs.encode_message_sized(plain)[0]
        assert header_and_body(encoded)[1][-1] == 0
        decoded = msgs.decode_message(encoded)
        assert decoded.policy_epoch == 0

    def test_accept_nonzero_epoch_round_trips(self):
        encoded = msgs.encode_message_sized(samples()["bertha.accept"])[0]
        assert header_and_body(encoded)[1][-1] == 3
        assert msgs.decode_message(encoded).policy_epoch == 3


class TestMessageSize:
    def test_small_messages_hit_the_framing_floor(self):
        payload, size = encode_sized(msgs.Hello(conn_id="c"))
        assert len(payload) < size == MIN_MESSAGE_SIZE == 64

    def test_size_is_content_derived(self):
        _, small = encode_sized(msgs.Query(types=["x" * 64]))
        _, large = encode_sized(msgs.Query(types=["x" * 512]))
        assert large > small > 64

    def test_same_message_same_size(self):
        one = encode_sized(samples()["bertha.offer"])
        two = encode_sized(samples()["bertha.offer"])
        assert one == two

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_size_is_the_payload_length(self, kind):
        payload, size = msgs.encode_message_sized(samples()[kind])
        assert size == max(MIN_MESSAGE_SIZE, len(payload))


def mutate(frame: bytes, other: bytes, choice: int, at: int, data: bytes) -> bytes:
    """One structure-blind mutation of ``frame``."""
    at %= len(frame) + 1
    if choice == 0:  # truncate
        return frame[:at]
    if choice == 1:  # flip one byte
        at %= len(frame)
        return frame[:at] + bytes([frame[at] ^ (data[0] or 1)]) + frame[at + 1:]
    if choice == 2:  # append
        return frame + data
    return frame[:at] + other[at % (len(other) + 1):]  # splice two frames


def check_decode_is_canonical(payload: bytes) -> None:
    """The fuzz property: a payload is rejected with :class:`WireError`,
    or it decodes to a message that re-encodes to exactly its bytes."""
    try:
        message = msgs.decode_message(payload)
    except WireError:
        return
    assert encode_sized(message)[0] == payload


FRAMES = {kind: msgs.encode_message_sized(message)[0] for kind, message in samples().items()}
MUTATIONS = dict(
    choice=st.integers(0, 3),
    at=st.integers(0, 4096),
    data=st.binary(min_size=1, max_size=16),
    other=st.sampled_from(ALL_KINDS),
)


class TestDecoderFuzz:
    """Truncation, byte flips, appended bytes and spliced frames over one
    instance of every kind.  Tier-1 runs a small derandomized slice; the
    soak step draws 5 000 fresh examples per kind."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**MUTATIONS)
    def test_mutated_frames_decode_canonically_or_raise(self, kind, choice, at, data, other):
        check_decode_is_canonical(mutate(FRAMES[kind], FRAMES[other], choice, at, data))


@pytest.mark.soak
class TestDecoderFuzzSoak:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=5000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**MUTATIONS)
    def test_mutated_frames_decode_canonically_or_raise(self, kind, choice, at, data, other):
        check_decode_is_canonical(mutate(FRAMES[kind], FRAMES[other], choice, at, data))


class TestNoRawKindLiterals:
    def test_no_raw_kind_dicts_outside_the_schema_module(self):
        """The acceptance criterion of the control-plane unification: no
        production module hand-assembles ``{"kind": ...}`` control dicts —
        everything goes through :mod:`repro.core.messages`."""
        pattern = re.compile(r"""["']kind["']\s*:""")
        offenders = []
        src = REPO_ROOT / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            if path == src / "core" / "messages.py":
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}")
        assert offenders == [], (
            "raw control-dict literals outside core/messages.py: "
            + ", ".join(offenders)
        )

    def test_no_raw_kind_strings_outside_the_schema_module(self):
        """Companion gate for the registered kind *names* themselves
        (``bertha.resume``, ``disc.revoked``, ...): production code matches
        on ``SomeMessage.KIND``, never a string literal — otherwise adding
        a message type silently forks the dispatch table."""
        kinds = "|".join(re.escape(kind) for kind in ALL_KINDS)
        pattern = re.compile(rf"""["']({kinds})["']""")
        offenders = []
        src = REPO_ROOT / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            if path == src / "core" / "messages.py":
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}")
        assert offenders == [], (
            "raw message-kind string literals outside core/messages.py: "
            + ", ".join(offenders)
        )

    def test_no_hand_written_wire_pairs(self):
        """Every wire class is an entry in the codec table: no class keeps
        its own ``to_wire``/``from_wire`` pair."""
        pattern = re.compile(r"def (to_wire|from_wire)\b")
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}")
        assert offenders == [], "hand-written wire pairs: " + ", ".join(offenders)

    def test_control_frames_built_and_parsed_only_by_the_codec(self):
        """Outside ``core/wire.py`` and ``core/messages.py`` a control
        payload is built only by ``msgs.encode_message_sized`` and parsed
        only by ``msgs.decode_message``: no module touches the frame
        layout, the JSON body or the frame-level codec entry points."""
        pattern = re.compile(
            r"\b(MAGIC|_frames|encode_sized|decode_frame|frame_fields|"
            r"register_frame_type|json\.(loads|dumps)\([^)]*payload)"
        )
        src = REPO_ROOT / "src" / "repro"
        allowed = {src / "core" / "wire.py", src / "core" / "messages.py"}
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path in allowed:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}")
        assert offenders == [], "control frames handled outside the codec: " + ", ".join(
            offenders
        )
