"""Unit tests for the controller framework (informer, workqueue, loops)."""

import pytest

from repro.cluster.apiserver import APIServer
from repro.cluster.controller import Controller, Informer, WorkQueue
from repro.cluster.etcd import WatchEventType
from repro.cluster.objects import ObjectMeta, Pod
from repro.obs import ObsHub, disable, enable
from repro.sim import Environment, Process
from repro.sim.environment import set_profile_hook
from repro.sim.events import Initialize


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def api(env):
    return APIServer(env)


class TestWorkQueue:
    def test_dedups_pending_keys(self, env):
        q = WorkQueue(env)
        q.add("a")
        q.add("a")
        q.add("b")
        assert len(q) == 2

    def test_add_during_processing_marks_dirty(self, env):
        q = WorkQueue(env)
        q.add("a")
        q.checkout("a")
        q.add("a")  # event arrives mid-reconcile
        assert len(q) == 0  # not pending while processing
        q.done("a")
        assert len(q) == 1  # re-enqueued afterwards

    def test_done_without_dirty_clears(self, env):
        q = WorkQueue(env)
        q.add("a")
        q.checkout("a")
        q.done("a")
        assert len(q) == 0

    def test_fifo_delivery(self, env):
        q = WorkQueue(env)
        got = []

        def worker():
            for _ in range(3):
                key = yield q.get()
                q.checkout(key)
                got.append(key)
                q.done(key)

        for k in ["x", "y", "z"]:
            q.add(k)
        env.process(worker())
        env.run()
        assert got == ["x", "y", "z"]


class TestInformer:
    def test_cache_tracks_adds_and_deletes(self, env, api):
        informer = Informer(env, api, "Pod")
        informer.start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        env.run(until=1)
        assert informer.get("default/p1") is not None
        api.delete("Pod", "p1")
        env.run(until=2)
        assert informer.get("default/p1") is None

    def test_replay_populates_preexisting_objects(self, env, api):
        api.create(Pod(metadata=ObjectMeta(name="old")))
        informer = Informer(env, api, "Pod")
        informer.start()
        env.run(until=1)
        assert [p.name for p in informer.list()] == ["old"]

    def test_handlers_receive_event_types(self, env, api):
        informer = Informer(env, api, "Pod")
        events = []
        informer.add_handler(lambda etype, obj: events.append((etype, obj.name)))
        informer.start()
        env.run(until=0.01)  # let the watch subscription come up first
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        api.delete("Pod", "p1")
        env.run(until=1)
        assert events == [
            (WatchEventType.PUT, "p1"),
            (WatchEventType.DELETE, "p1"),
        ]


class CountingController(Controller):
    kind = "Pod"

    def __init__(self, env, api, fail_times=0):
        super().__init__(env, api)
        self.reconciled = []
        self.fail_times = fail_times

    def reconcile(self, key):
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("transient")
        self.reconciled.append((self.env.now, key))
        return
        yield


class TestController:
    def test_events_trigger_reconcile(self, env, api):
        ctl = CountingController(env, api).start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        env.run(until=1)
        assert [k for _, k in ctl.reconciled] == ["default/p1"]

    def test_failed_reconcile_retries_with_backoff(self, env, api):
        ctl = CountingController(env, api, fail_times=2).start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        env.run(until=5)
        assert len(ctl.reconciled) == 1
        assert len(ctl.reconcile_errors) == 2
        # backoff: first retry after 0.05, second after 0.1
        assert ctl.reconciled[0][0] >= 0.15 - 1e-9

    def test_filter_suppresses_events(self, env, api):
        class Picky(CountingController):
            def filter(self, etype, obj):
                return obj.metadata.name.startswith("keep")

        ctl = Picky(env, api).start()
        api.create(Pod(metadata=ObjectMeta(name="keep-1")))
        api.create(Pod(metadata=ObjectMeta(name="drop-1")))
        env.run(until=1)
        assert [k for _, k in ctl.reconciled] == ["default/keep-1"]

    def test_burst_of_events_coalesces(self, env, api):
        ctl = CountingController(env, api).start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        for i in range(5):
            api.patch("Pod", "p1", lambda p: setattr(p.status, "message", str(i)))
        env.run(until=1)
        # far fewer reconciles than events (dedup), at least one
        assert 1 <= len(ctl.reconciled) <= 3


class FlakyWhileExists(Controller):
    """Fails reconcile while the object exists, succeeds once it is gone.

    DELETE events are filtered out so that only the controller's
    prune-on-DELETE path (and pending requeue timers) touch the retry
    bookkeeping after the object disappears.
    """

    kind = "Pod"

    def filter(self, etype, obj):
        return etype is not WatchEventType.DELETE

    def reconcile(self, key):
        if self.informer.get(key) is not None:
            raise RuntimeError("still broken")
        return
        yield


class TestRetryBookkeeping:
    def test_delete_event_prunes_failures_and_backoff(self, env, api):
        ctl = CountingController(env, api)
        pod = Pod(metadata=ObjectMeta(name="p1"))
        ctl._failures["default/p1"] = 3
        ctl._backoff.next("default/p1", 3)  # arm jitter state for the key
        ctl._on_event(WatchEventType.DELETE, pod)
        assert "default/p1" not in ctl._failures
        assert "default/p1" not in ctl._backoff

    def test_pod_churn_does_not_leak_retry_state(self, env, api):
        ctl = FlakyWhileExists(env, api).start()

        def churn():
            for i in range(10):
                api.create(Pod(metadata=ObjectMeta(name=f"p{i}")))
                yield env.timeout(0.3)
                api.delete("Pod", f"p{i}")
                yield env.timeout(0.2)

        env.process(churn())
        env.run(until=30)
        assert ctl.reconcile_errors  # the flaky path was actually exercised
        assert ctl._failures == {}
        assert ctl._backoff.pending() == []


class TestBackoff:
    def test_never_faster_than_exponential_and_bounded(self, env, api):
        ctl = CountingController(env, api)
        for n in range(1, 12):
            delay = ctl._next_backoff("k", n)
            expo = ctl.retry_delay * 2 ** (n - 1)
            # Decorrelated jitter spreads retries out but never undercuts
            # the plain exponential schedule (until the cap flattens both).
            assert delay >= min(expo, ctl.max_retry_delay) - 1e-12
            assert delay <= ctl.max_retry_delay + 1e-12

    def test_jitter_stream_is_deterministic(self):
        def seq():
            env = Environment()
            ctl = CountingController(env, APIServer(env))
            return [ctl._next_backoff("k", n) for n in range(1, 8)]

        assert seq() == seq()


class TestInformerStop:
    def test_stop_closes_the_etcd_watch(self, env, api):
        informer = Informer(env, api, "Pod").start()
        api.create(Pod(metadata=ObjectMeta(name="early")))
        assert informer.get("default/early") is not None
        assert len(api.etcd.watchers("/registry/Pod/")) == 1
        informer.stop()
        assert api.etcd.watchers("/registry/Pod/") == []
        # Later writes reach neither the cache nor a handler.
        seen = []
        informer.add_handler(lambda etype, obj: seen.append(obj.name))
        api.create(Pod(metadata=ObjectMeta(name="late")))
        env.run(until=1)
        assert informer.get("default/late") is None
        assert seen == []

    def test_stop_before_start_is_a_noop(self, env, api):
        Informer(env, api, "Pod").stop()
        assert api.etcd.watchers("/registry/Pod/") == []


class SleepyController(Controller):
    """Each pass stamps a status message after a nap, so a stop can land
    while the pass is suspended."""

    kind = "Pod"
    nap = 1.0

    def __init__(self, env, api):
        super().__init__(env, api)
        self.entered = []
        self.completed = []
        self.closed = []

    def filter(self, etype, obj):
        # React to arrivals only, so the pass's own write does not requeue.
        return etype is WatchEventType.PUT and not obj.status.message

    def reconcile(self, key):
        self.entered.append((self.env.now, key))
        try:
            yield self.env.timeout(self.nap)
            name = key.split("/", 1)[1]
            self.api.patch("Pod", name, lambda p: setattr(p.status, "message", "seen"))
            self.completed.append((self.env.now, key))
        finally:
            self.closed.append((self.env.now, key))


class Recorder:
    """Profile hook that logs each dispatched (event, callback receiver)."""

    def __init__(self):
        self.dispatched = []

    def dispatch(self, event, callbacks):
        for callback in callbacks:
            self.dispatched.append((event, getattr(callback, "__self__", None)))
            callback(event)


@pytest.fixture
def hub(env):
    yield enable(ObsHub(env))
    disable()


class TestPassRunsInWorker:
    """A reconcile pass is a subroutine of its worker, not a process."""

    def test_pass_spawns_no_process(self, env, api):
        ctl = SleepyController(env, api).start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        recorder = Recorder()
        set_profile_hook(recorder)
        try:
            env.run(until=5)
        finally:
            set_profile_hook(None)
        assert ctl.completed == [(1.0, "default/p1")]
        # The informer takes its events inside the commits: the worker is
        # the controller's only process.
        processes = {r.name for _, r in recorder.dispatched if isinstance(r, Process)}
        assert processes == {"SleepyController:worker0"}
        assert not [
            r.name
            for e, r in recorder.dispatched
            if isinstance(e, Initialize) and r.name.endswith(":reconcile")
        ]

    def test_write_inside_pass_is_a_child_of_its_reconcile_span(self, env, api, hub):
        ctl = SleepyController(env, api).start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        env.run(until=5)
        assert ctl.completed == [(1.0, "default/p1")]
        (reconcile,) = [s for s in hub.tracer.spans if s.name == "reconcile"]
        (write,) = [s for s in hub.tracer.spans if s.name == "update Pod"]
        assert write.parent_id == reconcile.span_id
        assert reconcile.status == "ok"


class TestStopMidPass:
    """Stopping a controller takes its suspended passes down with it."""

    def test_stop_closes_the_pass_once_and_restart_reconciles_again(
        self, env, api, hub
    ):
        ctl = SleepyController(env, api).start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        env.run(until=0.5)
        assert ctl.entered == [(0.0, "default/p1")]
        ctl.stop()
        # The pass's finally ran exactly once, at the stop, and its span
        # closed with error rather than leaking open.
        assert ctl.closed == [(0.5, "default/p1")]
        spans = [s for s in hub.tracer.spans if s.name == "reconcile"]
        assert [(s.status, s.end) for s in spans] == [("error", 0.5)]
        ctl.start()
        env.run(until=5)
        # The restarted controller reconciles the key afresh; nothing
        # resumes the old pass (it would have completed at t=1.0).
        assert ctl.entered == [(0.0, "default/p1"), (0.5, "default/p1")]
        assert ctl.completed == [(1.5, "default/p1")]
        assert ctl.closed == [(0.5, "default/p1"), (1.5, "default/p1")]
        assert [s.status for s in hub.tracer.spans if s.name == "reconcile"] == [
            "error",
            "ok",
        ]
        assert api.get("Pod", "p1").status.message == "seen"


class TestStopWhileParked:
    """A worker killed while it waits on the work queue gives up its get."""

    def test_restart_reconciles_every_key_added_after_it(self, env, api):
        ctl = SleepyController(env, api).start()
        env.run(until=0.5)  # the worker is parked on an empty queue
        ctl.stop()
        ctl.start()
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        api.create(Pod(metadata=ObjectMeta(name="p2")))
        env.run(until=5)
        # A get left queued by the killed worker would take p1 and hand
        # it to nobody, leaving it pending so every later add is dropped.
        assert ctl.completed == [(1.5, "default/p1"), (2.5, "default/p2")]
        assert len(ctl.queue) == 0

    def test_restart_keeps_a_key_handed_over_in_the_same_instant(self, env, api):
        """A stop that lands after the queue handed a worker its key but
        before the worker resumed gives the key back to the queue."""
        ctl = SleepyController(env, api).start()
        env.run(until=0.5)
        api.create(Pod(metadata=ObjectMeta(name="p1")))
        worker = ctl._procs[0]
        while not worker.target.triggered:
            env.step()
        assert worker.target.value == "default/p1"
        ctl.stop()
        ctl.start()
        api.patch("Pod", "p1", lambda p: p.metadata.labels.update(touched="yes"))
        env.run(until=5)
        assert ctl.entered == [(0.5, "default/p1")]
        assert ctl.completed == [(1.5, "default/p1")]
        assert len(ctl.queue) == 0
