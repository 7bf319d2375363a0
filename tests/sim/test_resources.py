"""Unit tests for the Resource and Store primitives."""

from collections import deque
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store


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
            yield env.timeout(2)
            if not req.triggered:
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

    def test_killed_waiter_gives_up_its_place(self, env):
        res = Resource(env, capacity=1)
        got = []

        def user(tag, hold):
            with res.request() as req:
                yield req
                got.append((env.now, tag))
                yield env.timeout(hold)

        env.process(user("a", 5))
        b = env.process(user("b", 1))
        env.process(user("c", 1))
        env.run(until=1)
        b.kill()
        env.run()
        assert got == [(0.0, "a"), (5.0, "c")]
        assert res.count == 0 and res.queue == []


class TestStore:
    def test_fifo(self, env):
        store = Store(env)
        received = []

        def producer(env, store):
            for item in ["x", "y", "z"]:
                store.offer(item)
                yield env.timeout(0)

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
            store.offer("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert times == [7.0]

    def test_put_is_offered_to_parked_getters_until_taken(self, env):
        """One item, 16 parked getters: the first takes it, and the other
        15 stay parked in arrival order."""
        store = Store(env)
        got = []

        def getter(i):
            got.append((i, (yield store.get())))

        procs = [env.process(getter(i)) for i in range(16)]
        env.run()
        store.offer("x")
        env.run()
        assert got == [(0, "x")]
        assert store.items == []
        assert [p.is_alive for p in procs] == [False] + [True] * 15
        store.offer("y")
        env.run()
        assert got == [(0, "x"), (1, "y")]

    def test_items_visible(self, env):
        store = Store(env)
        store.offer("a")
        store.offer("b")
        assert store.items == ["a", "b"]


#: One step of the model test: deposit an item, start a getter,
#: withdraw the n-th waiting getter by killing it inside its ``with``
#: block or by cancelling its get, or hand the longest waiter an item,
#: deposit n more, and kill it before its grant is dispatched.
_STORE_OPS = st.lists(
    st.one_of(
        st.just(("offer",)),
        st.just(("get",)),
        st.tuples(st.sampled_from(["kill", "cancel"]), st.integers(0, 15)),
        st.tuples(st.just("grant-kill"), st.integers(0, 3)),
    ),
    max_size=80,
)


class TestStoreModel:
    @given(ops=_STORE_OPS)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_fifo_model(self, ops):
        """Every item reaches exactly one live getter, in arrival order,
        and a withdrawn get never takes an item."""
        env = Environment()
        store = Store(env)
        items = count()
        getters = count()
        # The model: items nobody took, live waiting getters in arrival
        # order, and the item each getter must end up with.
        model_items = deque()
        model_waiting = []
        expected = {}
        received = {}
        procs = {}
        requests = {}

        def getter(gid):
            with store.get() as req:
                requests[gid] = req
                item = yield req
            received[gid] = item

        def offer():
            item = next(items)
            store.offer(item)
            if model_waiting:
                expected[model_waiting.pop(0)] = item
            else:
                model_items.append(item)
            return item

        for op in ops:
            if op[0] == "offer":
                offer()
            elif op[0] == "grant-kill":
                if not model_waiting:
                    continue
                victim = model_waiting[0]
                item = offer()
                del expected[victim]
                for _ in range(op[1]):
                    offer()
                procs[victim].kill()
                # Nobody took the item: it goes to the longest waiter
                # left, or back to the head of the items.
                if model_waiting:
                    expected[model_waiting.pop(0)] = item
                else:
                    model_items.appendleft(item)
            elif op[0] == "get":
                gid = next(getters)
                procs[gid] = env.process(getter(gid))
                if model_items:
                    expected[gid] = model_items.popleft()
                else:
                    model_waiting.append(gid)
            elif model_waiting:
                gid = model_waiting.pop(op[1] % len(model_waiting))
                if op[0] == "kill":
                    procs[gid].kill()
                else:
                    requests[gid].cancel()
            env.run()
            assert received == expected
            assert store.items == list(model_items)
            assert [g.triggered for g in store._waiters] == [False] * len(model_waiting)
            assert store._waiters == [requests[g] for g in model_waiting]
