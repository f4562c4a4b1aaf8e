"""The cold OFFER and ACCEPT by reference (PROTOCOL.md §1.2, §1.4, §6.4).

An OFFER names each offer the listener holds too — an ``endpoints: both``
registry implementation by name, a discovery record by its id — and
carries the rest in full, with the digest of the lists the references
expand to; the ACCEPT names each node's choice by index into those lists
unless the client never sent it.  Whatever travels, the client's rebuilt
``(dag, choice)`` must encode byte-for-byte like the server's: the
binding digest and one-RTT resumption rest on it.  A reference the
listener cannot resolve, or a digest its expansion misses, is never
guessed: it answers ``OfferReferenceError``, and the client re-offers in
full under a fresh conn id.
"""

import dataclasses
import json

import pytest

from repro.apps.rpc import EchoServer
from repro.chunnels import RateLimit, RateLimitFallback, Reliable, Serialize
from repro.core import Offer, ResourceVector
from repro.core import messages as msgs
from repro.core.dag import wrap
from repro.core.policy import PreferServerPolicy
from repro.core.runtime import _rebuilt_accept
from repro.errors import NegotiationError

from ..conftest import tap_control
from .test_resume import (
    CONNECT,
    assert_same_binding,
    build_world,
    dag,
    drive,
    echo_roundtrip,
    server_side,
)


def connect(client_rt, target, session, connect_dag=None):
    endpoint = client_rt.new(f"refs-{session}", connect_dag or dag())
    conn = yield from endpoint.connect(target, **CONNECT)
    yield from echo_roundtrip(conn)
    return conn


def frames(seen, kind):
    """The decoded JSON bodies of every ``kind`` frame the tap saw."""
    return [json.loads(d.payload[4:]) for _, k, d in seen if k == kind]


def misses(server):
    return server.listener.offer_ref_misses_total


#: The frames of one discovery query: a listener's offer-pool refresh.
REFRESH_QUERY = (msgs.Query.KIND, msgs.QueryReply.KIND)


class TestEveryReferenceHits:
    def test_offer_and_accept_name_what_both_ends_hold(self):
        net, _disc, toe, server, client_rt = build_world(cache_size=0)
        seen = tap_control(net)
        conn = drive(net, connect(client_rt, server.address, 0))
        assert_same_binding(server, conn)
        (offer,) = frames(seen, msgs.Offer.KIND)
        (accept,) = frames(seen, msgs.Accept.KIND)
        # Both fallbacks by name, the TOE by its record id; the digest.
        assert sorted(offer[2].items()) == [("reliable", ["sw"]), ("serialize", ["sw"])]
        assert offer[4]["reliable"] == [toe.record_id]
        assert len(offer[5]) == 32
        # Serialize binds the client's fallback (index 0), Reliable the
        # TOE (after the one client offer: index 1).
        assert accept[2] == [[0, 0], [1, 1]]
        assert misses(server) == 0
        # The listener keeps the client offers it expanded: what
        # reconfiguration re-decides from.
        kept, _ctx = server_side(server, conn.conn_id).negotiation_state
        assert all(isinstance(o, Offer) for offers in kept.values() for o in offers)


class TestFullEntries:
    def test_client_endpoint_implementation_travels_in_full(self):
        """A client-side-only implementation may be one the server never
        registered: it goes in full, and the choice still names it by
        index."""
        net, _disc, _toe, echo, client_rt = build_world(cache_size=0)
        client_rt.register_chunnel(RateLimitFallback)
        # An empty server DAG adopts the client's (Listing 5).
        server = EchoServer(echo.runtime, port=7500, dag=None, name="adopt")
        seen = tap_control(net)
        limited = wrap(Serialize() >> RateLimit(bytes_per_second=1e9) >> Reliable())
        conn = drive(net, connect(client_rt, server.address, 0, limited))
        assert_same_binding(server, conn)
        (offer,) = frames(seen, msgs.Offer.KIND)
        (entry,) = offer[2]["ratelimit"]
        assert isinstance(entry, list) and entry[1] == "client"
        (accept,) = frames(seen, msgs.Accept.KIND)
        assert all(isinstance(choice, int) for _node, choice in accept[2])
        (node,) = conn.dag.find("ratelimit")
        assert conn.choice[node].meta == RateLimitFallback.meta
        assert misses(server) == 0

    def test_server_origin_choice_travels_in_full(self):
        """The client never sent a server-origin offer, so the ACCEPT
        carries it whole."""
        net, _disc, _toe, server, client_rt = build_world(cache_size=0)
        server.runtime.policy = PreferServerPolicy()
        seen = tap_control(net)
        conn = drive(net, connect(client_rt, server.address, 0))
        assert_same_binding(server, conn)
        (accept,) = frames(seen, msgs.Accept.KIND)
        full = [choice for _node, choice in accept[2] if isinstance(choice, list)]
        assert full and all(choice[1] == "server" for choice in full)
        assert "server" in {offer.origin for offer in conn.choice.values()}
        assert misses(server) == 0


class TestMiss:
    """The TOE record is re-registered with one more NIC slot after the
    listener fetched its pool: the client's record id resolves to the
    stale record there, so the expansion's digest is not the OFFER's.
    The miss marks the pool stale, so the full OFFER's accept refreshes
    it and a later OFFER naming the record hits."""

    def world(self, change):
        net, _disc, toe, server, client_rt = build_world(cache_size=0)
        seen = tap_control(net)

        def scenario():
            first = yield from connect(client_rt, server.address, 0)
            start = len(seen)
            if change:
                toe.meta = dataclasses.replace(
                    toe.meta,
                    resources=toe.meta.resources + ResourceVector(nic_slots=1),
                )
            second = yield from connect(client_rt, server.address, 1)
            middle = len(seen)
            third = yield from connect(client_rt, server.address, 2)
            kinds = [kind for _, kind, _ in seen]
            return first, second, third, kinds[start:middle], kinds[middle:]

        first, second, third, kinds, later = drive(net, scenario())
        return server, first, second, third, kinds, later

    def test_one_extra_offer_and_error_then_the_full_offer_binds(self):
        _server, _first, _second, _third, hit, _later = self.world(change=False)
        server, first, second, _third, miss, _later = self.world(change=True)
        extra = list(miss)
        for kind in hit:
            extra.remove(kind)
        # The OFFER/error pair, and the one discovery query that refreshes
        # the listener's pool.
        assert sorted(extra) == sorted(
            [msgs.Error.KIND, msgs.Offer.KIND, *REFRESH_QUERY]
        )
        assert misses(server) == 1
        assert server.listener.negotiations_failed == 0
        assert second.conn_id.endswith(":full")
        assert_same_binding(server, first, second)
        toe_meta = lambda conn: next(o.meta for o in conn.choice.values() if o.record_id)
        assert toe_meta(second).resources == toe_meta(first).resources + ResourceVector(
            nic_slots=1
        )

    def test_the_refreshed_pool_resolves_the_next_offer(self):
        """A miss leaves no lasting cost: the connect after it names the
        changed record and hits, frame for frame like a world without the
        change."""
        _server, _first, _second, _third, _hit, hit_later = self.world(change=False)
        server, _first, second, third, _miss, later = self.world(change=True)
        assert sorted(later) == sorted(hit_later)
        assert misses(server) == 1
        assert not third.conn_id.endswith(":full")
        assert_same_binding(server, second, third)


class TestAcceptIndex:
    def test_index_out_of_range_is_a_negotiation_error(self):
        net, _disc, _toe, server, client_rt = build_world(cache_size=0)
        conn = drive(net, connect(client_rt, server.address, 0))
        (node,) = conn.dag.find("reliable")
        offers, _ctx = server_side(server, conn.conn_id).negotiation_state
        offer = msgs.Offer(
            conn_id=conn.conn_id, dag=conn.dag, offers=offers,
            client_entity=conn.client_entity, network_offers={}, offers_digest="",
        )
        accept = msgs.Accept(
            conn_id=conn.conn_id, dag=conn.dag, choice={node: 9},
            data_addr=conn.peers[0], transport="udp",
        )
        with pytest.raises(NegotiationError, match="names no offer"):
            _rebuilt_accept(accept, offer)
