"""Additional DES kernel edge cases and stress scenarios."""

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
)


@pytest.fixture
def env():
    return Environment()


class TestConditionEdgeCases:
    def test_nested_conditions_flatten_values(self, env):
        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(2, value="b")
            t3 = env.timeout(3, value="c")
            result = yield env.all_of([env.all_of([t1, t2]), t3])
            return list(result.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["a", "b", "c"]

    def test_allof_with_already_processed_event(self, env):
        def proc(env):
            t = env.timeout(1)
            yield t
            # t is processed; AllOf should fire immediately
            yield AllOf(env, [t])
            return env.now

        p = env.process(proc(env))
        env.run(until=5)
        assert p.value == 1.0


class TestEventOrdering:
    def test_urgent_initialize_beats_normal_events(self, env):
        order = []

        def early(env):
            order.append("early")
            yield env.timeout(0)

        def trigger(env):
            yield env.timeout(1)
            # Creating a process schedules its Initialize URGENT at t=1,
            # before the pending NORMAL timeout also due at t=1.
            env.process(early(env))

        def normal(env):
            yield env.timeout(1)
            order.append("normal")

        env.process(trigger(env))
        env.process(normal(env))
        env.run()
        assert order == ["early", "normal"]

    def test_many_simultaneous_timeouts_fifo(self, env):
        fired = []

        def make(i):
            def proc(env):
                yield env.timeout(1)
                fired.append(i)

            return proc

        for i in range(200):
            env.process(make(i)(env))
        env.run()
        assert fired == list(range(200))


class TestProcessStress:
    def test_deep_process_chains(self, env):
        def leaf(env):
            yield env.timeout(1)
            return 1

        def node(env, depth):
            if depth == 0:
                value = yield env.process(leaf(env))
            else:
                value = yield env.process(node(env, depth - 1))
            return value + 1

        p = env.process(node(env, 50))
        env.run()
        assert p.value == 52

    def test_interrupt_storm(self, env):
        """Many interrupts against one process must each be delivered."""
        caught = []

        def victim(env):
            for _ in range(10):
                try:
                    yield env.timeout(100)
                except Interrupt as err:
                    caught.append(err.cause)

        def attacker(env, v):
            for i in range(10):
                yield env.timeout(1)
                if v.is_alive:
                    v.interrupt(i)

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run(until=50)
        assert caught == list(range(10))

    def test_event_shared_by_many_waiters(self, env):
        gate = env.event()
        woken = []

        def waiter(env, i):
            value = yield gate
            woken.append((i, value))

        for i in range(20):
            env.process(waiter(env, i))

        def opener(env):
            yield env.timeout(3)
            gate.succeed("go")

        env.process(opener(env))
        env.run()
        assert len(woken) == 20
        assert all(v == "go" for _, v in woken)

    def test_failed_event_defused_by_all_waiters(self, env):
        gate = env.event()
        outcomes = []

        def waiter(env):
            try:
                yield gate
            except ValueError:
                outcomes.append("caught")

        for _ in range(3):
            env.process(waiter(env))

        def failer(env):
            yield env.timeout(1)
            gate.fail(ValueError("boom"))

        env.process(failer(env))
        env.run()
        assert outcomes == ["caught"] * 3
