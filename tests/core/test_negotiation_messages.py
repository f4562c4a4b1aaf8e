"""Tests for the negotiation messages (the §4.3 wire protocol), now a
typed schema in :mod:`repro.core.messages`."""

import json

import pytest

from repro.chunnels import Reliable, Serialize
from repro.core import ImplMeta, Offer, ResourceVector, Scope, wrap
from repro.core import messages as msgs
from repro.core.scope import Endpoints, Placement
from repro.errors import (
    IncompatibleDagError,
    NegotiationError,
    NoImplementationError,
    ResourceExhaustedError,
)


def sample_offer(name="sw", origin="client"):
    return Offer(
        meta=ImplMeta(
            chunnel_type="reliable",
            name=name,
            priority=10,
            scope=Scope.GLOBAL,
            endpoints=Endpoints.BOTH,
            placement=Placement.HOST_SOFTWARE,
            resources=ResourceVector(),
        ),
        origin=origin,
    )


class TestOfferMessage:
    def test_roundtrip(self):
        dag = wrap(Serialize() >> Reliable())
        message = msgs.Offer(
            conn_id="conn-1",
            dag=dag,
            offers={"reliable": [sample_offer()]},
            client_entity="client-entity",
        )
        decoded = msgs.decode_message(msgs.encode_message_sized(message)[0])
        assert isinstance(decoded, msgs.Offer)
        assert decoded.conn_id == "conn-1"
        assert decoded.client_entity == "client-entity"
        assert decoded.offers["reliable"][0] == sample_offer()
        assert decoded.dag.canonical_shape() == dag.canonical_shape()

    def test_message_is_json_like(self):
        """An encoded control message is a frame whose body after the
        four-byte header is plain JSON: nothing but data leaks onto the
        wire."""
        dag = wrap(Reliable())
        message = msgs.Offer(
            conn_id="c",
            dag=dag,
            offers={"reliable": [sample_offer()]},
            client_entity="e",
        )
        body = json.loads(msgs.encode_message_sized(message)[0][4:])
        assert body[0] == "c" and body[3] == "e"


class TestAcceptMessage:
    def test_roundtrip(self):
        from repro.sim.datagram import Address

        dag = wrap(Reliable())
        node = dag.topological_order()[0]
        message = msgs.Accept(
            conn_id="conn-2",
            dag=dag,
            choice={node: sample_offer()},
            data_addr=Address("srv", 40001),
            transport="pipe",
            params={"k": 1},
        )
        decoded = msgs.decode_message(msgs.encode_message_sized(message)[0])
        assert isinstance(decoded, msgs.Accept)
        # Choice keys are node ids (ints) — they must survive the str-keyed
        # wire encoding.
        assert decoded.choice[node] == sample_offer()
        assert decoded.params == {"k": 1}
        assert decoded.transport == "pipe"
        assert decoded.data_addr == Address("srv", 40001)

    def test_empty_params(self):
        from repro.sim.datagram import Address

        message = msgs.Accept(
            conn_id="c",
            dag=wrap(),
            choice={},
            data_addr=Address("s", 1),
            transport="udp",
        )
        decoded = msgs.decode_message(msgs.encode_message_sized(message)[0])
        assert decoded.params == {}


class TestErrorMessage:
    def test_error_kinds_survive_the_wire(self):
        for error_cls in (
            IncompatibleDagError,
            NoImplementationError,
            ResourceExhaustedError,
        ):
            message = msgs.Error.from_exception("c", error_cls("boom"))
            decoded = msgs.decode_message(msgs.encode_message_sized(message)[0])
            with pytest.raises(error_cls):
                decoded.raise_remote()

    def test_unknown_error_type_becomes_negotiation_error(self):
        message = msgs.Error.from_exception("c", ValueError("weird"))
        with pytest.raises(NegotiationError):
            message.raise_remote()

    def test_error_text_preserved(self):
        message = msgs.Error.from_exception(
            "c", NoImplementationError("no shard impl")
        )
        with pytest.raises(NoImplementationError, match="no shard impl"):
            message.raise_remote()
