"""Tests for the weighted multipath chunnel (ROADMAP item 3)."""

import pytest

from repro.chunnels import (
    MultipathWeighted,
    Reliable,
    ReliableFallback,
    WeightedMultipath,
)
from repro.chunnels.multipath import _MultipathStage
from repro.chunnels.reliability import _ReliableStage
from repro.core import wrap
from repro.errors import ChunnelArgumentError

from ..conftest import run
from .helpers import build_pair, connect, request_reply

IMPLS = [ReliableFallback, MultipathWeighted]


def mp_dag(**kwargs):
    return wrap(Reliable() >> WeightedMultipath(**kwargs))


def mp_stage(conn) -> _MultipathStage:
    for stage in conn.stack.stages:
        if isinstance(stage, _MultipathStage):
            return stage
    raise AssertionError("no multipath stage on the connection")


def reliable_stage(conn) -> _ReliableStage:
    for stage in conn.stack.stages:
        if isinstance(stage, _ReliableStage):
            return stage
    raise AssertionError("no reliable stage on the connection")


class TestSpecValidation:
    def test_rejects_zero_tunnels(self):
        with pytest.raises(ChunnelArgumentError):
            WeightedMultipath(tunnels=0)

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ChunnelArgumentError):
            WeightedMultipath(tunnels=2, weights=[1.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ChunnelArgumentError):
            WeightedMultipath(tunnels=2, weights=[1.0, -0.5])

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ChunnelArgumentError):
            WeightedMultipath(tunnels=2, weights=[0.0, 0.0])

    def test_defaults_to_equal_weights(self):
        assert WeightedMultipath(tunnels=3).args["weights"] == [1.0, 1.0, 1.0]

    def test_weight_change_keeps_compat_key(self):
        # Weights are args, so a reweight is negotiable mid-connection.
        a = WeightedMultipath(tunnels=2, weights=[1.0, 1.0])
        b = WeightedMultipath(tunnels=2, weights=[0.1, 0.9])
        assert a.compat_key() == b.compat_key()


class TestChooserDeterminism:
    def _connected(self, seed):
        pair = build_pair(
            mp_dag(tunnels=2, seed=seed),
            client_impls=IMPLS,
            server_impls=IMPLS,
        )
        run(pair.env, connect(pair))
        return pair

    def test_same_seed_same_tunnel_sequence(self):
        first = self._connected(seed=11)
        second = self._connected(seed=11)
        draws_a = [mp_stage(first.client_conn).choose_tunnel() for _ in range(64)]
        draws_b = [mp_stage(second.client_conn).choose_tunnel() for _ in range(64)]
        assert draws_a == draws_b
        assert set(draws_a) == {0, 1}

    def test_different_seed_diverges(self):
        first = self._connected(seed=11)
        second = self._connected(seed=12)
        draws_a = [mp_stage(first.client_conn).choose_tunnel() for _ in range(64)]
        draws_b = [mp_stage(second.client_conn).choose_tunnel() for _ in range(64)]
        assert draws_a != draws_b

    def test_roles_draw_independent_streams(self):
        pair = self._connected(seed=11)
        client = [mp_stage(pair.client_conn).choose_tunnel() for _ in range(64)]
        server = [mp_stage(pair.server_conn).choose_tunnel() for _ in range(64)]
        assert client != server

    def test_zero_weight_tunnel_never_chosen(self):
        pair = build_pair(
            mp_dag(tunnels=2, weights=[1.0, 0.0], seed=5),
            client_impls=IMPLS,
            server_impls=IMPLS,
        )
        run(pair.env, connect(pair))
        stage = mp_stage(pair.client_conn)
        assert {stage.choose_tunnel() for _ in range(128)} == {0}


class TestDelivery:
    def _traffic(self, pair, n):
        def driver(env):
            yield from connect(pair)
            for i in range(n):
                yield from request_reply(pair, b"ping-%03d" % i, size=64)

        run(pair.env, driver(pair.env))

    def test_requests_and_replies_spread_and_count(self):
        pair = build_pair(
            mp_dag(tunnels=2, seed=3),
            client_impls=IMPLS,
            server_impls=IMPLS,
        )
        self._traffic(pair, 20)
        client = mp_stage(pair.client_conn)
        server = mp_stage(pair.server_conn)
        # 20 data packets + 20 reliability acks per direction: the ack path
        # runs below Reliable, so acks spread over tunnels too.
        assert sum(client.sent_by_tunnel) == 40
        assert server.received_by_tunnel == client.sent_by_tunnel
        assert sum(server.sent_by_tunnel) == 40
        assert client.received_by_tunnel == server.sent_by_tunnel

    def test_same_seed_runs_are_identical(self):
        counts = []
        for _ in range(2):
            pair = build_pair(
                mp_dag(tunnels=2, weights=[0.3, 0.7], seed=9),
                client_impls=IMPLS,
                server_impls=IMPLS,
            )
            self._traffic(pair, 30)
            counts.append(mp_stage(pair.client_conn).sent_by_tunnel)
        assert counts[0] == counts[1]


class TestWeightRebalance:
    def test_arg_only_transition_shifts_weights_without_loss(self):
        pair = build_pair(
            mp_dag(tunnels=2, weights=[0.5, 0.5], seed=7),
            client_impls=IMPLS,
            server_impls=IMPLS,
        )

        state = {}

        def driver(env):
            yield from connect(pair)
            for i in range(10):
                yield from request_reply(pair, b"pre-%03d" % i, size=64)
            state["reliable_before"] = reliable_stage(pair.client_conn)
            dag = pair.server_conn.dag
            (node_id,) = dag.find("multipath")
            target = dag.with_spec(
                node_id, WeightedMultipath(tunnels=2, weights=[1.0, 0.0], seed=7)
            )
            done = pair.server_rt.reconfig.request_transition(
                pair.server_conn, reason="test-reweight", target_dag=target
            )
            yield done
            for i in range(20):
                yield from request_reply(pair, b"post-%03d" % i, size=64)

        run(pair.env, driver(pair.env))

        assert pair.server_rt.reconfig.transitions_committed == 1
        assert pair.server_rt.reconfig.transitions_rolled_back == 0
        for conn in (pair.client_conn, pair.server_conn):
            assert mp_stage(conn).weights == [1.0, 0.0]
        # Arg-only merge: the reliability stage object survives the epoch.
        assert reliable_stage(pair.client_conn) is state["reliable_before"]
        # Post-transition counters start fresh and all traffic (20 data
        # packets + 20 acks) takes the only positive-weight tunnel.
        assert mp_stage(pair.client_conn).sent_by_tunnel == [40, 0]
