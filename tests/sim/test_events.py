"""Unit tests for the event primitives of the DES kernel."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestEventStates:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_until_triggered(self, env):
        ev = env.event()
        with pytest.raises(AttributeError):
            _ = ev.value

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_sets_not_ok(self, env):
        ev = env.event()
        exc = ValueError("boom")
        ev.fail(exc)
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc

    def test_processed_after_run(self, env):
        ev = env.event()
        ev.succeed()
        env.run()
        assert ev.processed


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1)

    def test_timeout_fires_at_delay(self, env):
        times = []

        def proc(env):
            yield env.timeout(5)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [5.0]

    def test_timeout_carries_value(self, env):
        results = []

        def proc(env):
            v = yield env.timeout(1, value="done")
            results.append(v)

        env.process(proc(env))
        env.run()
        assert results == ["done"]

    def test_zero_delay_allowed(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc(env):
            t1 = env.timeout(2, value="a")
            t2 = env.timeout(5, value="b")
            result = yield env.all_of([t1, t2])
            return (env.now, list(result.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (5.0, ["a", "b"])

    def test_empty_all_of_fires_immediately(self, env):
        def proc(env):
            yield env.all_of([])
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_condition_failure_propagates(self, env):
        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter(env):
            f = env.process(failer(env))
            t = env.timeout(10)
            with pytest.raises(ValueError):
                yield env.all_of([f, t])
            return "handled"

        p = env.process(waiter(env))
        env.run()
        assert p.value == "handled"

    def test_condition_value_mapping(self, env):
        def proc(env):
            t1 = env.timeout(1, value="x")
            t2 = env.timeout(2, value="y")
            result = yield AllOf(env, [t1, t2])
            return (result[t1], result[t2], t1 in result, len(list(result.keys())))

        p = env.process(proc(env))
        env.run()
        assert p.value == ("x", "y", True, 2)

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.timeout(1), other.timeout(1)])


class TestInterrupt:
    def test_interrupt_reaches_process(self, env):
        log = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as err:
                log.append((env.now, err.cause))

        def attacker(env, victim_proc):
            yield env.timeout(3)
            victim_proc.interrupt("stop it")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == [(3.0, "stop it")]

    def test_interrupted_process_can_continue(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(5)
            return env.now

        def attacker(env, v):
            yield env.timeout(2)
            v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert v.value == 7.0

    def test_interrupt_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        def late(env, q):
            yield env.timeout(5)
            with pytest.raises(RuntimeError):
                q.interrupt()

        q = env.process(quick(env))
        env.process(late(env, q))
        env.run()

    def test_self_interrupt_rejected(self, env):
        def proc(env):
            me = env.active_process
            with pytest.raises(RuntimeError):
                me.interrupt()
            yield env.timeout(0)

        env.process(proc(env))
        env.run()

    def test_interrupt_does_not_double_resume(self, env):
        """After an interrupt, the original target must not resume us."""
        resumes = []

        def victim(env):
            try:
                yield env.timeout(10)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
            yield env.timeout(20)
            resumes.append("after")

        def attacker(env, v):
            yield env.timeout(1)
            v.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert resumes == ["interrupt", "after"]
