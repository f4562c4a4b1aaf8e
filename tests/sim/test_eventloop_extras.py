"""Additional event-loop semantics: clocks, naming, condition edge cases."""

import pytest

from repro.sim import Environment, SimulationError


class TestClockSemantics:
    def test_initial_time(self):
        env = Environment()
        assert env.now == 0.0
        env.timeout(5)
        env.run()
        assert env.now == 5.0

    def test_run_until_time_advances_clock_even_without_events(self):
        env = Environment()
        env.run(until=7.5)
        assert env.now == 7.5

    def test_run_returns_none_when_draining(self):
        env = Environment()
        env.timeout(1)
        assert env.run() is None

    def test_zero_delay_timeout_fires_at_now(self):
        env = Environment()
        fired = []
        env.timeout(0).add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == [0.0]


class TestProcessNaming:
    def test_explicit_name(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env), name="my-worker")
        assert p.name == "my-worker"
        env.run()

    def test_default_name_from_generator(self):
        env = Environment()

        def interesting_name(env):
            yield env.timeout(1)

        p = env.process(interesting_name(env))
        assert "process" in p.name or "interesting" in p.name
        env.run()

    def test_active_process_visible_during_resume(self):
        env = Environment()
        seen = []

        def proc(env):
            yield env.timeout(1)
            seen.append(env.active_process)

        p = env.process(proc(env))
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestConditionEdgeCases:
    def test_any_of_with_already_processed_event(self):
        env = Environment()
        done = env.event()
        done.succeed("early")
        env.run()

        def proc(env):
            result = yield env.any_of([done, env.timeout(100)])
            return list(result.values())

        p = env.process(proc(env))
        env.run(until=p)
        assert p.value == ["early"]
        assert env.now < 100

    def test_all_of_mixed_processed_and_pending(self):
        env = Environment()
        first = env.event()
        first.succeed(1)
        env.run()

        def proc(env):
            second = env.timeout(3, value=2)
            results = yield env.all_of([first, second])
            return sorted(results.values())

        p = env.process(proc(env))
        env.run(until=p)
        assert p.value == [1, 2]
        assert env.now == 3

    def test_cross_environment_events_rejected(self):
        env_a = Environment()
        env_b = Environment()
        with pytest.raises(SimulationError):
            env_a.all_of([env_b.timeout(1)])

    def test_cross_environment_yield_rejected(self):
        env_a = Environment()
        env_b = Environment()

        def proc(env):
            yield env_b.timeout(1)

        env_a.process(proc(env_a))
        with pytest.raises(SimulationError):
            env_a.run()
