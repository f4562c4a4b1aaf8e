"""Unit tests for the shared reliable-RPC core (:mod:`repro.core.rpc`).

The three control-plane dialects (negotiation, discovery, reconfiguration)
all ride this one loop; these tests pin its contract directly — timing
policy, stats accounting, reply caching, and the two wait flavours —
independent of any protocol on top.
"""

import random

import pytest

from repro.core import rpc
from repro.errors import ConnectionTimeoutError, DeadlineExceeded
from repro.sim import Address, Network, UdpSocket
from repro.sim.eventloop import Event

from ..conftest import run


class TestRetryPolicy:
    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="timeout must be positive"):
            rpc.RetryPolicy(timeout=0, retries=3)
        with pytest.raises(ValueError, match="retries must be >= 1"):
            rpc.RetryPolicy(timeout=1e-3, retries=0)
        with pytest.raises(ValueError, match="backoff must be >= 1"):
            rpc.RetryPolicy(timeout=1e-3, retries=3, backoff=0.5)
        with pytest.raises(ValueError, match="jitter must be in"):
            rpc.RetryPolicy(timeout=1e-3, retries=3, jitter=1.0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = rpc.RetryPolicy(
            timeout=1e-3, retries=8, backoff=2.0, max_timeout=4e-3
        )
        timeouts = [policy.attempt_timeout(n) for n in range(5)]
        assert timeouts == [1e-3, 2e-3, 4e-3, 4e-3, 4e-3]

    def test_no_backoff_means_flat_timeouts(self):
        policy = rpc.RetryPolicy(timeout=2e-4, retries=4)
        assert [policy.attempt_timeout(n) for n in range(4)] == [2e-4] * 4

    def test_jitter_needs_an_rng(self):
        # Jitter without a caller-supplied RNG is a no-op: determinism is
        # opt-in per caller, never ambient.
        policy = rpc.RetryPolicy(timeout=1e-3, retries=3, jitter=0.5)
        assert policy.attempt_timeout(0) == 1e-3
        assert policy.attempt_timeout(0, None) == 1e-3

    def test_jitter_bounded_and_deterministic(self):
        policy = rpc.RetryPolicy(timeout=1e-3, retries=3, jitter=0.25)
        first = [
            policy.attempt_timeout(n, random.Random(7)) for n in range(10)
        ]
        second = [
            policy.attempt_timeout(n, random.Random(7)) for n in range(10)
        ]
        assert first == second
        for value in first:
            assert 0.75e-3 <= value <= 1.25e-3


class TestReplyCache:
    def test_put_get_contains_len(self):
        cache = rpc.ReplyCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert "b" not in cache
        assert cache.get("b") is None
        assert len(cache) == 1

    def test_fifo_eviction_past_limit(self):
        cache = rpc.ReplyCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert len(cache) == 2

    def test_clear_empties(self):
        cache = rpc.ReplyCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and "a" not in cache

    def test_limit_validated(self):
        with pytest.raises(ValueError, match="cache limit must be >= 1"):
            rpc.ReplyCache(0)

    def test_retransmit_replay_moves_entry_to_back(self):
        # A retransmitted request re-caches its reply under the same key.
        # The re-put must refresh the eviction position: a hot, still-
        # retransmitting request outlives entries nobody has asked about
        # since (the old insertion-order behaviour evicted the hot entry
        # first, replaying nothing exactly when replay mattered most).
        cache = rpc.ReplyCache(2)
        cache.put("req-1", "reply-1")
        cache.put("req-2", "reply-2")
        cache.put("req-1", "reply-1")  # retransmit replay: now hottest
        cache.put("req-3", "reply-3")
        assert "req-2" not in cache  # coldest — nobody re-asked
        assert cache.get("req-1") == "reply-1"
        assert cache.get("req-3") == "reply-3"

    def test_replay_lookup_does_not_affect_eviction(self):
        cache = rpc.ReplyCache(2)
        cache.put("req-1", "reply-1")
        cache.put("req-2", "reply-2")
        assert cache.get("req-1") == "reply-1"  # dedup hit on retransmit
        cache.put("req-3", "reply-3")
        assert "req-1" not in cache  # get() reads; only put() refreshes
        assert "req-2" in cache and "req-3" in cache

    def test_replayed_value_updates_in_place(self):
        cache = rpc.ReplyCache(4)
        cache.put("req-1", "reply-a")
        cache.put("req-1", "reply-b")
        assert cache.get("req-1") == "reply-b"
        assert len(cache) == 1

    def test_cached_none_distinguishable_from_miss(self):
        # Handlers whose legitimate verdict is None (fire-and-forget
        # releases) need a real miss test: get(key, MISSING).
        cache = rpc.ReplyCache(2)
        cache.put("req-1", None)
        assert cache.get("req-1") is None
        assert cache.get("req-1", rpc.MISSING) is None
        assert cache.get("req-2", rpc.MISSING) is rpc.MISSING

    def test_retransmit_after_eviction_is_a_miss_not_a_replay(self):
        # Regression: once an entry is evicted, a late retransmission must
        # read as a miss (re-execute) rather than replay a neighbour's
        # verdict or a stale default.
        cache = rpc.ReplyCache(2)
        cache.put("req-1", "reply-1")
        cache.put("req-2", "reply-2")
        cache.put("req-3", "reply-3")  # evicts req-1
        assert cache.get("req-1", rpc.MISSING) is rpc.MISSING


class TestCall:
    """Drive ``rpc.call`` with hand-rolled wait callables: the contract is
    send → bounded wait → retry → matched reply or exhaustion."""

    def setup_method(self):
        self.env = Network().env
        self.stats = rpc.RpcStats()
        self.sent = []

    def send(self, attempt):
        self.sent.append(attempt)

    def wait_after(self, answered_attempt, reply="pong"):
        def wait(attempt, timeout):
            yield self.env.timeout(min(timeout, 1e-6))
            return reply if attempt >= answered_attempt else None

        return wait

    def test_first_attempt_success(self):
        policy = rpc.RetryPolicy(timeout=1e-3, retries=3)

        def scenario(env):
            return (
                yield from rpc.call(
                    env, policy, self.send, self.wait_after(0),
                    stats=self.stats,
                )
            )

        assert run(self.env, scenario(self.env)) == "pong"
        assert self.sent == [0]
        assert (self.stats.round_trips, self.stats.retransmits_total) == (1, 0)
        assert self.stats.failures_total == 0

    def test_retries_are_tagged_and_counted(self):
        policy = rpc.RetryPolicy(timeout=1e-4, retries=5)

        def scenario(env):
            return (
                yield from rpc.call(
                    env, policy, self.send, self.wait_after(2),
                    stats=self.stats,
                )
            )

        assert run(self.env, scenario(self.env)) == "pong"
        assert self.sent == [0, 1, 2]  # every attempt carries its tag
        assert (self.stats.round_trips, self.stats.retransmits_total) == (1, 2)

    def test_exhaustion_raises_with_describe_text(self):
        policy = rpc.RetryPolicy(timeout=1e-4, retries=3)

        def scenario(env):
            yield from rpc.call(
                env, policy, self.send, self.wait_after(99),
                stats=self.stats, describe="probe of unit-under-test",
            )

        with pytest.raises(
            ConnectionTimeoutError,
            match="probe of unit-under-test: no answer after 3 attempts",
        ):
            run(self.env, scenario(self.env))
        assert self.sent == [0, 1, 2]
        assert self.stats.failures_total == 1
        assert self.stats.round_trips == 0

    def test_wait_may_abort_early_by_raising(self):
        policy = rpc.RetryPolicy(timeout=1e-3, retries=5)

        def refusing_wait(attempt, timeout):
            yield self.env.timeout(1e-6)
            raise RuntimeError("peer said no")

        def scenario(env):
            yield from rpc.call(env, policy, self.send, refusing_wait)

        with pytest.raises(RuntimeError, match="peer said no"):
            run(self.env, scenario(self.env))
        assert self.sent == [0]  # no retransmit after a hard refusal


class TestEventWaiter:
    def test_late_event_is_caught_by_a_retry_window(self):
        env = Network().env
        stats = rpc.RpcStats()
        event = Event(env)
        policy = rpc.RetryPolicy(timeout=1e-4, retries=8)

        def deliverer(env):
            yield env.timeout(2.5e-4)  # lands inside attempt 2's window
            event.succeed("ack")

        env.process(deliverer(env))

        def scenario(env):
            return (
                yield from rpc.call(
                    env, policy, lambda attempt: None,
                    rpc.event_waiter(env, event), stats=stats,
                )
            )

        assert run(env, scenario(env)) == "ack"
        assert stats.round_trips == 1
        assert stats.retransmits_total == 2

    def test_never_fired_event_exhausts(self):
        env = Network().env
        event = Event(env)
        policy = rpc.RetryPolicy(timeout=1e-4, retries=2)

        def scenario(env):
            yield from rpc.call(
                env, policy, lambda attempt: None,
                rpc.event_waiter(env, event), describe="ack wait",
            )

        with pytest.raises(ConnectionTimeoutError, match="ack wait"):
            run(env, scenario(env))


class TestDeadline:
    """End-to-end deadline budgets (PROTOCOL.md §9): the caller's absolute
    deadline is one elapsed-time limit across every retry."""

    def setup_method(self):
        self.env = Network().env
        self.stats = rpc.RpcStats()

    def never(self, attempt, timeout):
        yield self.env.timeout(timeout)
        return None

    def test_relative_policy_deadline_stops_retries_early(self):
        # Ten 1ms attempts would take 10ms; a budget of 2.5ms from the
        # call's start allows three.
        policy = rpc.RetryPolicy(timeout=1e-3, retries=10)

        def scenario(env):
            yield from rpc.call(
                env, policy, lambda attempt: None, self.never,
                stats=self.stats, describe="budgeted", deadline=env.now + 2.5e-3,
            )

        with pytest.raises(DeadlineExceeded) as excinfo:
            run(self.env, scenario(self.env))
        error = excinfo.value
        assert isinstance(error, ConnectionTimeoutError)
        assert error.attempts == 3
        assert error.elapsed == pytest.approx(2.5e-3)
        assert self.env.now == pytest.approx(2.5e-3)
        assert self.stats.failures_total == 1

    def test_absolute_deadline_clamps_the_final_wait(self):
        policy = rpc.RetryPolicy(timeout=1e-3, retries=10)

        def scenario(env):
            yield env.timeout(1e-3)  # deadline is absolute, not relative
            yield from rpc.call(
                env, policy, lambda attempt: None, self.never,
                stats=self.stats, deadline=env.now + 1.5e-3,
            )

        with pytest.raises(DeadlineExceeded) as excinfo:
            run(self.env, scenario(self.env))
        assert excinfo.value.attempts == 2
        assert self.env.now == pytest.approx(2.5e-3)

    def test_reply_inside_the_budget_is_unaffected(self):
        policy = rpc.RetryPolicy(timeout=1e-3, retries=10)

        def answered(attempt, timeout):
            yield self.env.timeout(min(timeout, 1e-5))
            return "pong" if attempt >= 1 else None

        def scenario(env):
            return (
                yield from rpc.call(
                    env, policy, lambda attempt: None, answered,
                    stats=self.stats, deadline=env.now + 5e-3,
                )
            )

        assert run(self.env, scenario(self.env)) == "pong"
        assert self.stats.failures_total == 0
        assert self.stats.round_trips == 1


class TestSocketWaiter:
    def make_net(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("sw")
        net.add_link("a", "sw", latency=5e-6)
        net.add_link("b", "sw", latency=5e-6)
        return net

    def test_matched_datagram_returned(self):
        net = self.make_net()
        caller = UdpSocket(net.hosts["a"], 5000)
        responder = UdpSocket(net.hosts["b"], 5001)
        policy = rpc.RetryPolicy(timeout=1e-3, retries=3)

        def serve(env):
            request = yield responder.recv()
            responder.send({"echo": request.payload}, request.src, size=64)

        net.env.process(serve(net.env))

        def match(dgram, attempt):
            return dgram.payload

        def scenario(env):
            send = lambda attempt: caller.send(
                "ping", Address("b", 5001), size=64
            )
            return (
                yield from rpc.call(
                    env, policy, send, rpc.socket_waiter(env, caller, match)
                )
            )

        assert run(net.env, scenario(net.env)) == {"echo": "ping"}

    def test_mismatch_wastes_window_then_retry_succeeds(self):
        # A non-matching datagram consumes the attempt (the pre-refactor
        # one-reply-per-window semantics); the retry gets the real answer.
        net = self.make_net()
        caller = UdpSocket(net.hosts["a"], 5000)
        responder = UdpSocket(net.hosts["b"], 5001)
        policy = rpc.RetryPolicy(timeout=5e-4, retries=4)
        stats = rpc.RpcStats()

        def serve(env):
            request = yield responder.recv()
            responder.send("noise", request.src, size=64)
            yield responder.recv()
            responder.send("answer", request.src, size=64)

        net.env.process(serve(net.env))

        def match(dgram, attempt):
            return dgram.payload if dgram.payload == "answer" else None

        def scenario(env):
            send = lambda attempt: caller.send(
                "ping", Address("b", 5001), size=64
            )
            return (
                yield from rpc.call(
                    env, policy, send,
                    rpc.socket_waiter(env, caller, match), stats=stats,
                )
            )

        assert run(net.env, scenario(net.env)) == "answer"
        assert stats.retransmits_total >= 1
