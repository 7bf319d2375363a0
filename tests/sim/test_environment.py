"""Unit tests for the Environment: clock, run(), determinism."""

import pytest

from repro.sim import EmptySchedule, Environment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=7.5).now == 7.5

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_reports_next_event_time(self, env):
        env.timeout(4)
        env.timeout(2)
        assert env.peek() == 2.0

    def test_step_on_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRun:
    def test_run_until_time_stops_clock(self, env):
        def ticker(env):
            while True:
                yield env.timeout(1)

        env.process(ticker(env))
        env.run(until=10)
        assert env.now == 10.0

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(3)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"
        assert env.now == 3.0

    def test_run_until_past_raises(self, env):
        env.process(iter_timeout(env, 5))
        env.run(until=4)
        with pytest.raises(ValueError):
            env.run(until=2)

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()  # nobody will trigger this
        env.timeout(1)
        with pytest.raises(RuntimeError):
            env.run(until=ev)

    def test_run_drains_queue(self, env):
        done = []

        def proc(env):
            yield env.timeout(2)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [2.0]
        assert env.peek() == float("inf")

    def test_events_at_until_time_still_run(self, env):
        fired = []

        def proc(env):
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=10)
        assert fired == [10.0]


def iter_timeout(env, t):
    yield env.timeout(t)


class TestProcessSemantics:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 99

        p = env.process(proc(env))
        env.run()
        assert p.value == 99

    def test_process_is_waitable(self, env):
        def worker(env):
            yield env.timeout(4)
            return "product"

        def boss(env):
            result = yield env.process(worker(env))
            return (env.now, result)

        b = env.process(boss(env))
        env.run()
        assert b.value == (4.0, "product")

    def test_unhandled_process_failure_crashes_run(self, env):
        def proc(env):
            yield env.timeout(1)
            raise KeyError("oops")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_waiting_process_can_catch_failure(self, env):
        def bad(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def guard(env):
            try:
                yield env.process(bad(env))
            except ValueError as err:
                return str(err)

        g = env.process(guard(env))
        env.run()
        assert g.value == "inner"

    def test_yield_non_event_fails_process(self, env):
        def proc(env):
            yield 42  # not an Event

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(ValueError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_already_processed_event_continues(self, env):
        def proc(env):
            t = env.timeout(1)
            yield t
            # yield the same (now processed) event again: resumes instantly
            yield t
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 1.0

    def test_active_process_visible_inside(self, env):
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(0)

        p = env.process(proc(env))
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestDeterminism:
    def test_fifo_order_for_simultaneous_events(self, env):
        order = []

        def make(tag):
            def proc(env):
                yield env.timeout(5)
                order.append(tag)

            return proc

        for tag in "abcde":
            env.process(make(tag)(env))
        env.run()
        assert order == list("abcde")

    def test_two_runs_are_identical(self):
        def trace_run():
            env = Environment()
            trace = []

            def worker(env, wid, delay):
                for i in range(3):
                    yield env.timeout(delay)
                    trace.append((env.now, wid, i))

            for wid, delay in enumerate([1.0, 1.5, 0.5]):
                env.process(worker(env, wid, delay))
            env.run()
            return trace

        assert trace_run() == trace_run()
