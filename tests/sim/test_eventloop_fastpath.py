"""Kernel fast-path contracts.

The fast-path refactor (process-free delivery walk, synchronous pump,
direct-scheduled retransmit timers) leans on three kernel guarantees that
were previously implicit:

- events scheduled for the same virtual instant fire in scheduling order
  (the ``_sequence`` tiebreak) — every fused delivery slot relies on it;
- ``Process.interrupt`` is O(1) regardless of how many co-waiters share
  the abandoned wait target's callback storage;
- ``_push_at`` lands pre-built entries on bit-identical absolute clock
  readings, interleaving correctly with relative pushes.

These tests pin each guarantee down so a future kernel change that breaks
one fails here, not as a byte-diff in a chaos baseline.
"""

from repro.sim import Environment, Interrupt
from repro.sim.eventloop import _OneShot


class TestSameTimestampOrder:
    def test_call_in_is_fifo_at_one_instant(self):
        env = Environment()
        order = []
        for i in range(8):
            env.call_in(1.0, lambda i=i: order.append(i))
        env.run()
        assert order == list(range(8))

    def test_mixed_primitives_fire_in_scheduling_order(self):
        # A callback, a timeout, and another callback all booked for t=2.0
        # fire strictly in booking order; the process resumes last because
        # its own timeout is only scheduled once the bootstrap has run.
        env = Environment()
        order = []
        env.call_at(2.0, lambda: order.append("cb-first"))
        timeout = env.timeout(2.0)
        timeout.add_callback(lambda _e: order.append("timeout"))

        def proc():
            yield env.timeout(2.0)
            order.append("process")

        env.process(proc())
        env.call_at(2.0, lambda: order.append("cb-last"))
        env.run()
        assert order == ["cb-first", "timeout", "cb-last", "process"]

    def test_push_at_interleaves_with_relative_pushes(self):
        env = Environment()
        order = []
        env._push(1.0, _OneShot(lambda: order.append("rel")))
        env._push_at(1.0, _OneShot(lambda: order.append("abs-same")))
        env._push_at(0.5, _OneShot(lambda: order.append("abs-early")))
        env.run()
        assert order == ["abs-early", "rel", "abs-same"]

    def test_push_at_uses_the_exact_timestamp(self):
        # No now + (at - now) round trip: the heap key IS the caller's
        # float, which is what lets the delivery walk precompute fused-hop
        # instants with bit-identical arithmetic.
        env = Environment()
        seen = []
        at = 0.1 + 0.2  # != 0.3 exactly; the kernel must not "repair" it
        env._push_at(at, _OneShot(lambda: seen.append(env.now)))
        env.run()
        assert seen == [at]


class TestInterruptAmongCoWaiters:
    def _spawn_waiters(self, env, shared, results, names):
        def waiter(name):
            try:
                value = yield shared
                results[name] = ("value", value)
            except Interrupt as exc:
                results[name] = ("interrupted", exc.cause)
                yield env.timeout(1.0)
                results[name + "-after"] = env.now

        return {name: env.process(waiter(name), name=name) for name in names}

    def test_interrupt_one_of_many_co_waiters(self):
        env = Environment()
        shared = env.event()
        results = {}
        procs = self._spawn_waiters(env, shared, results, "abcdefgh")
        env.call_in(1.0, lambda: procs["d"].interrupt("migration"))
        env.call_in(2.0, lambda: shared.succeed("payload"))
        env.run()
        # The interrupted process got the cause and kept running...
        assert results["d"] == ("interrupted", "migration")
        assert results["d-after"] == 2.0
        # ...and every other co-waiter received the value undisturbed.
        for name in "abcefgh":
            assert results[name] == ("value", "payload")

    def test_interrupt_leaves_shared_callback_storage_untouched(self):
        # The O(1) contract: interrupting abandons the old wait target
        # without scanning or mutating its callback storage — the stale
        # waiter is dropped by an identity check when the event fires.
        env = Environment()
        shared = env.event()
        results = {}
        procs = self._spawn_waiters(env, shared, results, "xyz")
        env.run(until=0.5)  # bootstraps done; all three are registered
        first_cb = shared._cb
        others = list(shared._cbs or [])
        procs["y"].interrupt("gone")
        assert shared._cb is first_cb
        assert list(shared._cbs or []) == others
        shared.succeed(7)
        env.run()
        assert results["y"] == ("interrupted", "gone")
        assert results["x"] == ("value", 7)
        assert results["z"] == ("value", 7)

    def test_interrupted_waiter_ignores_the_stale_event(self):
        # After the interrupt is delivered the process moves on to a new
        # wait target; the shared event firing later must not resume it a
        # second time.
        env = Environment()
        shared = env.event()
        log = []

        def waiter():
            try:
                yield shared
                log.append("value")
            except Interrupt:
                log.append("interrupted")
                yield env.timeout(5.0)
                log.append("timer")

        proc = env.process(waiter())
        env.call_in(1.0, lambda: proc.interrupt())
        env.call_in(2.0, lambda: shared.succeed(None))
        env.run()
        assert log == ["interrupted", "timer"]

