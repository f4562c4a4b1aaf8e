"""Tests for Station, TokenResource, and Store."""

import pytest

from repro.sim import Environment, Station, Store, TokenResource


class TestStation:
    def test_single_job_takes_service_time(self):
        env = Environment()
        station = Station(env, service_time=2.0)
        done = station.submit("job")
        env.run()
        assert done.processed
        assert env.now == 2.0

    def test_fifo_queueing_on_one_server(self):
        env = Environment()
        station = Station(env, service_time=1.0)
        completions = []
        for name in ("a", "b", "c"):
            station.submit(name).add_callback(
                lambda e: completions.append((e.value, env.now))
            )
        env.run()
        assert completions == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_parallel_servers(self):
        env = Environment()
        station = Station(env, service_time=1.0, servers=2)
        times = []
        for _ in range(4):
            station.submit().add_callback(lambda e: times.append(env.now))
        env.run()
        assert times == [1.0, 1.0, 2.0, 2.0]

    def test_callable_service_time(self):
        env = Environment()
        station = Station(env, service_time=lambda size: size * 0.5)
        done = station.submit(4)
        env.run(until=done)
        assert env.now == 2.0

    def test_later_arrival_after_idle_starts_immediately(self):
        env = Environment()
        station = Station(env, service_time=1.0)

        def proc(env):
            yield station.submit()
            yield env.timeout(5)  # station idles
            start = env.now
            yield station.submit()
            return env.now - start

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(1.0)

    def test_statistics(self):
        env = Environment()
        station = Station(env, service_time=2.0)
        station.submit()
        station.submit()
        env.run()
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
        last_completion = {}
        # Offered load 2x service rate: arrivals every 0.5, service 1.0.
        def arrivals(env):
            for index in range(20):
                station.submit(index).add_callback(
                    lambda e: last_completion.update(done=env.now)
                )
                yield env.timeout(0.5)

        env.process(arrivals(env))
        env.run()
        # 20 jobs at 1s each: finishes at t=20, far beyond last arrival ~10.
        assert last_completion["done"] == pytest.approx(20.0)


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


class TestSubmitWalk:
    """``submit_walk`` is ``submit`` for the delivery walk: identical
    bookkeeping and completion instants, but the caller gets the absolute
    completion time instead of an Event."""

    def test_matches_submit_completion_times_and_stats(self):
        env = Environment()
        eventful = Station(env, service_time=2.0, name="eventful")
        walked = Station(env, service_time=2.0, name="walked")
        completions = []
        walk_times = []
        for job in range(5):
            done = eventful.submit(job)
            done.add_callback(lambda _e: completions.append(env.now))
            walk_times.append(walked.submit_walk(job))
        env.run()
        assert walk_times == completions == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert walked.jobs_served == eventful.jobs_served == 5
        assert walked.total_wait == eventful.total_wait
        assert walked.total_service == eventful.total_service
        # The completion slot still fires on the heap, so queue-depth
        # accounting drains exactly as with submit().
        assert walked.jobs_in_system == eventful.jobs_in_system == 0

    def test_multi_server_assignment_matches(self):
        env = Environment()
        eventful = Station(env, service_time=3.0, servers=2)
        walked = Station(env, service_time=3.0, servers=2)
        completions = []
        walk_times = []
        for job in range(4):
            done = eventful.submit(job)
            done.add_callback(lambda _e: completions.append(env.now))
            walk_times.append(walked.submit_walk(job))
        env.run()
        assert walk_times == completions == [3.0, 3.0, 6.0, 6.0]
