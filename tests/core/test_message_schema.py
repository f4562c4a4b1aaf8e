"""Schema-wide properties of the typed control-message registry.

Per-protocol behaviour lives with each subsystem's tests; this file checks
the properties that hold for *every* registered message kind: round-trip
fidelity through the tagged wire encoding, JSON-serialisability, strict
version and field validation, content-derived sizing — and the repo rule
that no production module builds raw ``{"kind": ...}`` control dicts
outside the schema module.
"""

import json
import re
from pathlib import Path

import pytest

from repro.chunnels import Reliable, Serialize
from repro.core import ImplMeta, Offer as ImplOffer, ResourceVector, Scope, wrap
from repro.core import messages as msgs
from repro.core.scope import Endpoints, Placement
from repro.core.wire import WireError, message_size, wire_kind
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
            dag=dag,
            choice={node: impl_offer()},
            client_entity="cl",
            policy_epoch=3,
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
        msgs.UnregisterName(
            name="svc", address=Address("srv", 7000), req_id="r6", attempt=0
        ),
        msgs.UnregisterNameReply(req_id="r6", attempt=0),
        msgs.ServiceError(error="unsupported", req_id="r7", attempt=0),
        msgs.GetShardMap(req_id="r8", attempt=1),
        msgs.ShardMapReply(
            version=2,
            shards=[
                {
                    "shard_id": 0,
                    "primary": Address("s0a", 7400),
                    "replicas": [Address("s0a", 7400), Address("s0b", 7400)],
                }
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
    ]
    return {type(m).KIND: m for m in messages}


ALL_KINDS = sorted(msgs.BY_KIND)


class TestRoundTrip:
    def test_samples_cover_every_registered_kind(self):
        assert set(samples()) == set(msgs.BY_KIND)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_encode_decode_encode_is_identity(self, kind):
        message = samples()[kind]
        encoded = msgs.encode_message(message)
        decoded = msgs.decode_message(encoded)
        assert type(decoded) is msgs.BY_KIND[kind]
        # ChunnelDag has no __eq__, so compare re-encodings instead of
        # the dataclasses themselves: a lossless decode re-encodes to the
        # byte-identical wire form.
        assert msgs.encode_message(decoded) == encoded

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_encoded_form_is_json_tagged_and_versioned(self, kind):
        encoded = msgs.encode_message(samples()[kind])
        json.dumps(encoded)  # raises if any rich object leaked
        assert wire_kind(encoded) == kind
        assert encoded["v"] == msgs.BY_KIND[kind].VERSION


class TestStrictDecode:
    def encoded_hello(self):
        return msgs.encode_message(msgs.Hello(conn_id="c1"))

    def test_missing_version_rejected(self):
        encoded = self.encoded_hello()
        del encoded["v"]
        with pytest.raises(WireError, match="protocol version"):
            msgs.decode_message(encoded)

    def test_newer_version_rejected(self):
        encoded = self.encoded_hello()
        encoded["v"] = msgs.Hello.VERSION + 1
        with pytest.raises(WireError, match="newer than"):
            msgs.decode_message(encoded)

    def test_unknown_field_rejected(self):
        encoded = self.encoded_hello()
        encoded["surprise"] = True
        with pytest.raises(WireError, match="malformed bertha.hello"):
            msgs.decode_message(encoded)

    def test_unknown_kind_rejected(self):
        encoded = self.encoded_hello()
        tag_key = next(k for k, v in encoded.items() if v == "bertha.hello")
        encoded[tag_key] = "bertha.no_such_message"
        with pytest.raises(WireError, match="unknown wire tag"):
            msgs.decode_message(encoded)

    def test_untagged_payloads_rejected(self):
        with pytest.raises(WireError):
            msgs.decode_message({"conn_id": "c1"})
        with pytest.raises(WireError):
            msgs.decode_message("hello")


class TestEpochZeroIsImplicit:
    def test_accept_epoch_zero_omitted_from_the_wire(self):
        """``policy_epoch`` 0 (the never-bumped default) must not appear in
        the encoded form: message sizes are content-derived, so a stamped
        zero would change every establishment timing."""
        accept = samples()["bertha.accept"]
        plain = msgs.Accept(
            conn_id=accept.conn_id,
            dag=accept.dag,
            choice=accept.choice,
            data_addr=accept.data_addr,
            transport=accept.transport,
            params=accept.params,
        )
        encoded = msgs.encode_message(plain)
        assert "policy_epoch" not in encoded
        decoded = msgs.decode_message(encoded)
        assert decoded.policy_epoch == 0

    def test_accept_nonzero_epoch_round_trips(self):
        encoded = msgs.encode_message(samples()["bertha.accept"])
        assert encoded["policy_epoch"] == 3
        assert msgs.decode_message(encoded).policy_epoch == 3


class TestMessageSize:
    def test_small_messages_hit_the_framing_floor(self):
        assert message_size(msgs.encode_message(msgs.Hello(conn_id="c"))) == 64

    def test_size_is_content_derived(self):
        small = msgs.encode_message(msgs.Query(types=["x" * 64]))
        large = msgs.encode_message(msgs.Query(types=["x" * 512]))
        assert message_size(large) > message_size(small) > 64

    def test_same_message_same_size(self):
        one = msgs.encode_message(samples()["bertha.offer"])
        two = msgs.encode_message(samples()["bertha.offer"])
        assert message_size(one) == message_size(two)


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
