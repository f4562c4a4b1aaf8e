"""Tests for Station, TokenResource, and Store."""

import ast
from pathlib import Path

import pytest

import repro.sim.resources
from repro.sim import Environment, Event, Station, Store, TokenResource


class TestStation:
    def test_single_job_takes_service_time(self):
        env = Environment()
        station = Station(env, service_time=2.0)
        assert station.submit("job") == 2.0
        env.run()
        assert env.now == 0.0  # nothing was scheduled

    def test_fifo_queueing_on_one_server(self):
        env = Environment()
        station = Station(env, service_time=1.0)
        assert [station.submit(name) for name in ("a", "b", "c")] == [1.0, 2.0, 3.0]

    def test_parallel_servers(self):
        env = Environment()
        station = Station(env, service_time=1.0, servers=2)
        assert [station.submit() for _ in range(4)] == [1.0, 1.0, 2.0, 2.0]

    def test_callable_service_time(self):
        env = Environment()
        station = Station(env, service_time=lambda size: size * 0.5)
        assert station.submit(4) == 2.0

    def test_later_arrival_after_idle_starts_immediately(self):
        env = Environment()
        station = Station(env, service_time=1.0)

        def proc(env):
            yield env.timeout(station.submit() - env.now)
            yield env.timeout(5)  # station idles
            start = env.now
            return station.submit() - start

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0)

    def test_statistics(self):
        env = Environment()
        station = Station(env, service_time=2.0)
        station.submit()
        station.submit()
        assert station.jobs_served == 2
        assert station.total_service == pytest.approx(4.0)
        assert station.mean_wait == pytest.approx(1.0)  # (0 + 2) / 2

    def test_zero_servers_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Station(env, service_time=1.0, servers=0)

    def test_negative_service_time_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Station(env, service_time=-1.0)

    def test_utilization_determines_latency_growth(self):
        """The queueing property Figure 5 relies on: latency explodes past
        the service rate."""
        env = Environment()
        station = Station(env, service_time=1.0)
        completions = []
        # Offered load 2x service rate: arrivals every 0.5, service 1.0.
        def arrivals(env):
            for index in range(20):
                completions.append(station.submit(index))
                yield env.timeout(0.5)

        env.process(arrivals(env))
        env.run()
        # 20 jobs at 1s each: finishes at t=20, far beyond last arrival ~10.
        assert completions[-1] == pytest.approx(20.0)
        # The wait grows with every arrival: 0.5 s more per job.
        waits = [done - 0.5 * index - 1.0 for index, done in enumerate(completions)]
        assert waits == pytest.approx([0.5 * index for index in range(20)])


class TestTokenResource:
    def test_grant_within_capacity_is_immediate(self):
        env = Environment()
        resource = TokenResource(env, capacity=3)
        assert resource.try_request(2)
        assert resource.available == 1

    def test_try_request(self):
        env = Environment()
        resource = TokenResource(env, capacity=1)
        assert resource.try_request(1)
        assert not resource.try_request(1)
        resource.release(1)
        assert resource.try_request(1)

    def test_over_capacity_request_rejected(self):
        env = Environment()
        resource = TokenResource(env, capacity=2)
        assert not resource.try_request(3)
        assert resource.available == 2
        with pytest.raises(ValueError):
            resource.try_request(-1)

    def test_over_release_detected(self):
        env = Environment()
        resource = TokenResource(env, capacity=1)
        from repro.sim import SimulationError

        with pytest.raises(SimulationError):
            resource.release(1)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("item")
        got = store.get()
        assert got.triggered
        env.run()
        assert got.value == "item"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def getter(env):
            item = yield store.get()
            return (item, env.now)

        def putter(env):
            yield env.timeout(3)
            store.put("late")

        p = env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert p.value == ("late", 3)

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for index in range(3):
            store.put(index)
        values = []
        for _ in range(3):
            event = store.get()
            event.add_callback(lambda e: values.append(e.value))
        env.run()
        assert values == [0, 1, 2]

    def test_getters_served_in_request_order(self):
        env = Environment()
        store = Store(env)
        order = []
        store.get().add_callback(lambda e: order.append(("g1", e.value)))
        store.get().add_callback(lambda e: order.append(("g2", e.value)))
        store.put("a")
        store.put("b")
        env.run()
        assert order == [("g1", "a"), ("g2", "b")]

    def test_cancelled_getter_does_not_swallow_items(self):
        env = Environment()
        store = Store(env)
        abandoned = store.get()
        abandoned.succeed(None)  # cancelled (the timeout-wait pattern)
        live = store.get()
        store.put("x")
        env.run()
        assert live.value == "x"

    def test_try_get(self):
        env = Environment()
        store = Store(env)
        assert store.try_get() == (False, None)
        store.put(9)
        assert store.try_get() == (True, 9)

    def test_len_counts_buffered(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_len_and_repr_while_getters_wait(self):
        env = Environment()
        store = Store(env, name="box")
        store.get()
        store.get()
        assert len(store) == 0
        assert repr(store) == "<Store 'box' waiting=2>"

    def test_len_and_repr_while_items_buffer(self):
        env = Environment()
        store = Store(env, name="box")
        assert repr(store) == "<Store 'box' buffered=0>"
        for item in "abc":
            store.put(item)
        assert len(store) == 3
        assert repr(store) == "<Store 'box' buffered=3>"

    def test_fifo_across_a_switch_from_getters_to_items(self):
        """The one queue holds getters, empties, then holds items: both
        phases stay in order and the counters count every hand-over."""
        env = Environment()
        store = Store(env)
        got = []
        for _ in range(3):
            store.get().add_callback(lambda e: got.append(e.value))
        for item in range(6):
            store.put(item)
        assert len(store) == 3
        env.run()
        while True:
            found, item = store.try_get()
            if not found:
                break
            got.append(item)
        assert got == [0, 1, 2, 3, 4, 5]
        assert (store.puts, store.gets) == (6, 6)
        store.get().add_callback(lambda e: got.append(e.value))
        store.put(6)
        env.run()
        assert got[-1] == 6 and len(store) == 0

    def test_cancelled_getter_skipped_then_item_buffered(self):
        """A put that finds only cancelled getters buffers its item, and
        the next get takes it."""
        env = Environment()
        store = Store(env)
        first, second = store.get(), store.get()
        first.succeed(None)
        second.succeed(None)
        store.put("kept")
        assert len(store) == 1
        assert store.gets == 0
        later = store.get()
        env.run()
        assert later.value == "kept"
        assert (store.puts, store.gets) == (1, 1)

    def test_cancel_takes_a_waiter_out(self):
        env = Environment()
        store = Store(env)
        waiters = [store.get() for _ in range(3)]
        store.cancel(waiters[1])
        store.cancel(waiters[0])
        store.put("x")
        env.run()
        assert not waiters[0].triggered and not waiters[1].triggered
        assert waiters[2].value == "x"

    def test_wait_refused_while_items_buffer(self):
        from repro.sim import SimulationError

        env = Environment()
        store = Store(env)
        store.put(1)
        with pytest.raises(SimulationError):
            store.wait(Event(env))

    def test_clear_drops_items_and_keeps_waiters(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        store.clear()
        assert len(store) == 0 and store.try_get() == (False, None)
        waiter = store.get()
        store.clear()
        store.put(3)
        env.run()
        assert waiter.value == 3


#: The one module that may touch a Store's representation.
_STORE_MODULE = Path(repro.sim.resources.__file__).resolve()


def _private_store_reads(roots) -> list[str]:
    """``<expr>.<name>`` for each underscore field of :class:`Store`,
    outside ``sim/resources.py``; ``self.<name>`` is a class's own field."""
    private = {name for name in Store.__slots__ if name.startswith("_")}
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path.resolve() == _STORE_MODULE:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in private
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")
                ):
                    found.append(f"{path}:{node.lineno}: .{node.attr}")
    return found


class TestStoreEncapsulation:
    def test_no_module_reads_a_store_private_field(self):
        """Sockets, pumps and services use Store's operations (``wait``,
        ``try_get``, ``cancel``, ``clear``), never its representation."""
        repo = Path(__file__).resolve().parents[2]
        roots = [repo / "src", repo / "tests", repo / "examples", repo / "bench"]
        assert _private_store_reads(roots) == []

    def test_the_scan_sees_a_private_read(self, tmp_path):
        (tmp_path / "peek.py").write_text("def f(sock):\n    return sock.store._head\n")
        assert _private_store_reads([tmp_path]) == [f"{tmp_path / 'peek.py'}:2: ._head"]
