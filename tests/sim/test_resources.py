"""Unit tests for Resource / Container / Store primitives."""

import pytest

from repro.sim import (
    Container,
    Environment,
    FilterStore,
    PriorityItem,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_counts(self, env):
        res = Resource(env, capacity=2)

        def user(env, res, hold):
            with res.request() as req:
                yield req
                yield env.timeout(hold)

        env.process(user(env, res, 5))
        env.process(user(env, res, 5))
        env.process(user(env, res, 5))
        env.run(until=1)
        assert res.count == 2
        assert len(res.queue) == 1
        env.run()
        assert res.count == 0

    def test_fifo_grant_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(env, res, tag):
            with res.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(1)

        for tag in "abc":
            env.process(user(env, res, tag))
        env.run()
        assert order == list("abc")

    def test_release_frees_slot_for_waiter(self, env):
        res = Resource(env, capacity=1)
        times = []

        def holder(env, res):
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)

        def waiter(env, res):
            yield env.timeout(1)
            with res.request() as req:
                yield req
                times.append(env.now)

        env.process(holder(env, res))
        env.process(waiter(env, res))
        env.run()
        assert times == [10.0]

    def test_release_foreign_request_raises(self, env):
        res = Resource(env, capacity=1)

        def proc(env, res):
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(RuntimeError):
                res.release(req)

        env.process(proc(env, res))
        env.run()

    def test_cancel_pending_request_via_with(self, env):
        res = Resource(env, capacity=1)
        got_it = []

        def holder(env, res):
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)

        def impatient(env, res):
            yield env.timeout(1)
            req = res.request()
            result = yield req | env.timeout(2)
            if req not in result:
                req.cancel()
                got_it.append("gave up")
            else:
                res.release(req)

        def third(env, res):
            yield env.timeout(4)
            with res.request() as req:
                yield req
                got_it.append(env.now)

        env.process(holder(env, res))
        env.process(impatient(env, res))
        env.process(third(env, res))
        env.run()
        assert got_it == ["gave up", 10.0]


class TestPriorityResource:
    def test_low_priority_value_served_first(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def user(env, prio, tag):
            yield env.timeout(1)
            with res.request(priority=prio) as req:
                yield req
                order.append(tag)
                yield env.timeout(1)

        env.process(holder(env))
        env.process(user(env, 5, "low"))
        env.process(user(env, 1, "high"))
        env.run()
        assert order == ["high", "low"]


class TestContainer:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            Container(env, capacity=0)
        with pytest.raises(ValueError):
            Container(env, capacity=1, init=2)

    def test_put_get_levels(self, env):
        tank = Container(env, capacity=10, init=5)

        def proc(env, tank):
            yield tank.get(3)
            assert tank.level == 2
            yield tank.put(8)
            assert tank.level == 10

        env.process(proc(env, tank))
        env.run()
        assert tank.level == 10

    def test_get_blocks_until_available(self, env):
        tank = Container(env, capacity=10, init=0)
        times = []

        def consumer(env, tank):
            yield tank.get(4)
            times.append(env.now)

        def producer(env, tank):
            yield env.timeout(3)
            yield tank.put(2)
            yield env.timeout(3)
            yield tank.put(2)

        env.process(consumer(env, tank))
        env.process(producer(env, tank))
        env.run()
        assert times == [6.0]

    def test_put_blocks_at_capacity(self, env):
        tank = Container(env, capacity=5, init=5)
        times = []

        def producer(env, tank):
            yield tank.put(3)
            times.append(env.now)

        def consumer(env, tank):
            yield env.timeout(2)
            yield tank.get(3)

        env.process(producer(env, tank))
        env.process(consumer(env, tank))
        env.run()
        assert times == [2.0]

    def test_invalid_amounts(self, env):
        tank = Container(env, capacity=5)
        with pytest.raises(ValueError):
            tank.put(0)
        with pytest.raises(ValueError):
            tank.get(-1)


class TestStore:
    def test_fifo(self, env):
        store = Store(env)
        received = []

        def producer(env, store):
            for item in ["x", "y", "z"]:
                yield store.put(item)

        def consumer(env, store):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert received == ["x", "y", "z"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        times = []

        def consumer(env, store):
            yield store.get()
            times.append(env.now)

        def producer(env, store):
            yield env.timeout(7)
            yield store.put("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert times == [7.0]

    def test_bounded_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer(env, store):
            yield store.put(1)
            yield store.put(2)
            times.append(env.now)

        def consumer(env, store):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert times == [5.0]

    def test_put_is_offered_to_parked_getters_until_taken(self, env):
        """One item, 16 parked getters: the first takes it and the scan
        stops, instead of offering the empty store to the other 15."""
        store = Store(env)
        got = []

        def getter(i):
            got.append((i, (yield store.get())))

        for i in range(16):
            env.process(getter(i))
        env.run()
        offers = []
        do_get = store._do_get

        def counting(get):
            offers.append(get)
            return do_get(get)

        store._do_get = counting
        store.put("x")
        env.run()
        assert got == [(0, "x")]
        assert len(offers) == 1

    def test_items_visible(self, env):
        store = Store(env)

        def proc(env, store):
            yield store.put("a")
            yield store.put("b")

        env.process(proc(env, store))
        env.run()
        assert store.items == ["a", "b"]


class TestFilterStore:
    def test_filter_skips_non_matching(self, env):
        store = FilterStore(env)
        got = []

        def producer(env, store):
            for item in [1, 2, 3, 4]:
                yield store.put(item)

        def picky(env, store):
            item = yield store.get(lambda x: x % 2 == 0)
            got.append(item)

        env.process(producer(env, store))
        env.process(picky(env, store))
        env.run()
        assert got == [2]
        assert store.items == [1, 3, 4]

    def test_filter_waits_for_match(self, env):
        store = FilterStore(env)
        got = []

        def picky(env, store):
            item = yield store.get(lambda x: x == "wanted")
            got.append((env.now, item))

        def producer(env, store):
            yield env.timeout(1)
            yield store.put("other")
            yield env.timeout(1)
            yield store.put("wanted")

        env.process(picky(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [(2.0, "wanted")]


class TestPriorityStore:
    def test_items_pop_in_priority_order(self, env):
        store = PriorityStore(env)
        got = []

        def producer(env, store):
            yield store.put(PriorityItem(3, "c"))
            yield store.put(PriorityItem(1, "a"))
            yield store.put(PriorityItem(2, "b"))

        def consumer(env, store):
            yield env.timeout(1)
            for _ in range(3):
                item = yield store.get()
                got.append(item.item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == ["a", "b", "c"]

    def test_equal_priority_is_fifo(self, env):
        store = PriorityStore(env)
        got = []

        def producer(env, store):
            for tag in ["first", "second"]:
                yield store.put(PriorityItem(1, tag))

        def consumer(env, store):
            yield env.timeout(1)
            for _ in range(2):
                item = yield store.get()
                got.append(item.item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == ["first", "second"]
