"""A malformed *nested* field costs one counted datagram, not the world.

Every serve loop catches only :class:`WireError`.  Decoding is strict at
every depth, so a nested offer with an out-of-range scope, an address
without its port or a DAG edge to an unknown node reaches the loop as a
``WireError``: the server counts it in its ``*_malformed_total`` and goes
on answering the next well-formed message.
"""

import json
import sys

import pytest

from repro.chunnels import Reliable, Serialize
from repro.core import ImplMeta, Offer as ImplOffer, wrap
from repro.core import messages as msgs
from repro.core.wire import WireError
from repro.sim import UdpSocket

from ..conftest import run


def reframe(frame: bytes, body) -> bytes:
    return frame[:4] + json.dumps(body, separators=(",", ":")).encode()


def offer_frame(mutation=None) -> bytes:
    """An OFFER for ``Serialize >> Reliable`` carrying one client offer,
    with ``mutation`` applied to its decoded JSON body."""
    offer = msgs.Offer(
        conn_id="c1",
        dag=wrap(Serialize() >> Reliable()),
        offers={"reliable": [ImplOffer(ImplMeta("reliable", "sw"), "client")]},
        client_entity="cl",
    )
    frame = msgs.encode_message_sized(offer)[0]
    if mutation is None:
        return frame
    body = json.loads(frame[4:])
    mutation(body)
    return reframe(frame, body)


def scope_99(body):
    body[2]["reliable"][0][0][3] = 99


def edge_to_unknown_node(body):
    body[1][1].append([1, 42])


def priority_fraction(body):
    body[2]["reliable"][0][0][2] = 1.5


def deeply_nested_offer_frame(depth: int) -> bytes:
    """An OFFER whose first spec carries one argument nested ``depth``
    lists deep, spliced in as text: the stdlib encoder stops at the
    recursion limit."""
    frame = offer_frame()
    text = frame[4:].decode("ascii")
    args = '{"codec":"bincode"}'
    assert args in text
    deep = '{"codec":' + "[" * depth + "]" * depth + "}"
    return frame[:4] + text.replace(args, deep, 1).encode("ascii")


@pytest.mark.parametrize(
    "bad_frame",
    [
        offer_frame(scope_99),
        offer_frame(edge_to_unknown_node),
        offer_frame(priority_fraction),
        # Deeper than any decoder can go, whichever layer gives up first.
        deeply_nested_offer_frame(sys.getrecursionlimit() + 100),
    ],
    ids=["scope-99", "edge-to-unknown-node", "priority-1.5", "nested-too-deep"],
)
def test_listener_counts_a_bad_nested_offer_and_serves_on(two_hosts, bad_frame):
    server = two_hosts.runtime("srv")
    listener = server.new("svc", wrap(Serialize() >> Reliable())).listen(port=7000)

    def scenario(env):
        sock = UdpSocket(two_hosts.net.entity("cl"))
        sock.send(bad_frame, listener.ctl.address, size=64)
        sock.send(offer_frame(), listener.ctl.address, size=64)
        reply = yield sock.recv()
        return msgs.decode_message(reply.payload)

    reply = run(two_hosts.env, scenario(two_hosts.env), until=1.0)
    assert isinstance(reply, (msgs.Accept, msgs.Error))
    assert reply.conn_id == "c1"
    assert listener.ctl_malformed_total == 1


@pytest.mark.parametrize("depth", [100, 500, 900, 1100, 5000])
def test_any_nesting_depth_decodes_or_raises_wire_error(depth):
    """Whichever layer runs out of stack first (the C scanner, the canonical
    re-render or the field decoders), the failure is a ``WireError``."""
    frame = deeply_nested_offer_frame(depth)
    try:
        msgs.decode_message(frame)
    except WireError:
        pass


def test_discovery_counts_a_bad_nested_request_and_serves_on(two_hosts):
    service = two_hosts.discovery
    good = msgs.Watch(record_id="rec-1", address=None).stamped("r2", 0)
    bad_frame = msgs.encode_message_sized(good.stamped("r1", 0))[0]
    body = json.loads(bad_frame[4:])
    body[3] = ["cl"]  # an address without its port

    def scenario(env):
        sock = UdpSocket(two_hosts.net.entity("cl"))
        sock.send(reframe(bad_frame, body), service.address, size=64)
        first = yield sock.recv()
        sock.send(msgs.encode_message_sized(good)[0], service.address, size=64)
        second = yield sock.recv()
        return msgs.decode_message(first.payload), msgs.decode_message(second.payload)

    error, reply = run(two_hosts.env, scenario(two_hosts.env), until=1.0)
    # The frame still yields its req_id, so the sender is told to stop.
    assert isinstance(error, msgs.ServiceError) and error.req_id == "r1"
    assert "malformed address" in error.error
    assert isinstance(reply, msgs.WatchReply) and reply.req_id == "r2"
    assert service.malformed_total == 1
