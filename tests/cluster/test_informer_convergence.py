"""Informer convergence after outages and restarts.

An informer's watch takes each etcd commit inside the write, and an
apiserver outage gates request processing — writes fail, so there are
no events to miss while the watch stays open. Events *can* be missed by
a stopped informer (controller failover or pause/resume), which is what
relist-on-reconnect (:meth:`Informer.start` pruning) and
:meth:`Informer.resync` cover; as a
safety net, a controller resyncs once per outage, armed by the
apiserver's outage hook and run when the outage window closes.
These are the regression tests for all three paths.
"""

import math

import pytest

from repro import Cluster, ClusterConfig, KubeShare
from repro.cluster.apiserver import APIServer, ServiceUnavailable
from repro.cluster.controller import Controller, Informer
from repro.cluster.etcd import WatchEventType
from repro.cluster.objects import ObjectMeta, Pod
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def api(env):
    return APIServer(env)


def cache_keys(informer):
    return set(informer.cache)


def api_keys(api, kind="Pod"):
    return {obj.metadata.key for obj in api.list(kind)}


class Noop(Controller):
    """A controller that only records when it resyncs."""

    def __init__(self, env, api):
        super().__init__(env, api)
        self.resynced_at = []

    def reconcile(self, key):
        return
        yield

    def resync(self):
        self.resynced_at.append(self.env.now)
        super().resync()


class TestLiveWatchDuringOutage:
    def test_no_events_can_be_missed_during_outage(self, env, api):
        """While the apiserver is down, writes fail — so an informer that
        keeps its watch open converges trivially once writers retry."""
        informer = Informer(env, api, "Pod")
        informer.start()
        api.create(Pod(metadata=ObjectMeta(name="before")))
        env.run(until=1.0)

        api.set_outage(2.0)
        with pytest.raises(ServiceUnavailable):
            api.create(Pod(metadata=ObjectMeta(name="during")))
        env.run(until=2.0)  # mid-outage: nothing changed, nothing missed
        assert cache_keys(informer) == {"default/before"}

        env.run(until=3.5)  # outage over: the writer retries
        api.create(Pod(metadata=ObjectMeta(name="after")))
        api.delete("Pod", "before")
        env.run(until=4.0)
        assert cache_keys(informer) == api_keys(api) == {"default/after"}

    def test_controller_resyncs_once_after_outage(self, env, api):
        ctl = Noop(env, api).start()
        env.run(until=1.0)
        assert ctl.resyncs_total == 0
        api.set_outage(1.0)
        env.run(until=4.0)
        assert ctl.resyncs_total == 1  # exactly one resync per outage
        api.set_outage(0.5)
        env.run(until=6.0)
        assert ctl.resyncs_total == 2
        assert ctl.resynced_at == [2.0, 4.5]  # as each window closes


class TestOutageResync:
    def test_extended_outage_resyncs_once_when_the_merged_window_closes(self, env, api):
        ctl = Noop(env, api).start()
        env.run(until=1.0)
        api.set_outage(2.0)  # down until t=3
        env.run(until=2.0)
        api.set_outage(2.25)  # still down: the window grows to t=4.25
        env.run(until=10.0)
        assert ctl.resynced_at == [4.25]

    def test_permanent_outage_never_resyncs(self, env, api):
        """The federation's dead-cluster form: ``down_until`` is inf, so no
        timer may be armed at it (it would never fire, and a bare
        ``env.run()`` would move the clock to inf to pop it)."""
        dead = Noop(env, api).start()
        api2 = APIServer(env)
        dying = Noop(env, api2).start()
        env.run(until=1.0)
        api.set_outage(math.inf)
        api2.set_outage(1.0)
        env.run(until=1.5)
        api2.set_outage(math.inf)  # turns permanent while a resync waits on it
        env.run(until=100.0)
        assert dead.resynced_at == dying.resynced_at == []
        assert dead._resync_proc is dying._resync_proc is None

    def test_stop_mid_outage_cancels_the_resync_and_unhooks(self, env, api):
        hooks = len(api.lease_hooks)
        ctl = Noop(env, api).start()
        assert len(api.lease_hooks) == hooks + 1
        env.run(until=1.0)
        api.set_outage(2.0)
        env.run(until=2.0)
        ctl.stop()
        ctl.stop()  # idempotent: a paused HA replica that crashes stops twice
        assert len(api.lease_hooks) == hooks
        env.run(until=5.0)
        assert ctl.resynced_at == []

        ctl.start()
        api.set_outage(1.0)
        env.run(until=8.0)
        assert ctl.resynced_at == [6.0]

    def test_idle_control_plane_dispatches_only_the_stop_marker(self):
        env = Environment()
        cluster = Cluster(env, ClusterConfig(nodes=4, gpus_per_node=2)).start()
        KubeShare(cluster).start()
        env.run(until=1.0)
        before = env.events_processed
        env.run(until=501.0)
        assert env.events_processed - before == 1


class TestStoppedInformer:
    def test_restart_prunes_objects_deleted_while_stopped(self, env, api):
        informer = Informer(env, api, "Pod")
        deletes = []
        informer.add_handler(
            lambda et, obj: deletes.append(obj.metadata.key)
            if et is WatchEventType.DELETE
            else None
        )
        informer.start()
        api.create(Pod(metadata=ObjectMeta(name="keep")))
        api.create(Pod(metadata=ObjectMeta(name="doomed")))
        env.run(until=1.0)
        assert cache_keys(informer) == {"default/keep", "default/doomed"}

        informer.stop()
        api.delete("Pod", "doomed")
        api.create(Pod(metadata=ObjectMeta(name="new")))
        env.run(until=2.0)
        # Stale view while stopped — this is the failover window.
        assert "default/doomed" in cache_keys(informer)

        informer.start()
        env.run(until=3.0)
        assert cache_keys(informer) == api_keys(api) == {
            "default/keep",
            "default/new",
        }
        assert deletes == ["default/doomed"]  # synthetic DELETE dispatched

    def test_resync_reconciles_every_difference(self, env, api):
        informer = Informer(env, api, "Pod")
        events = []
        informer.add_handler(lambda et, obj: events.append((et, obj.metadata.key)))
        informer.start()
        api.create(Pod(metadata=ObjectMeta(name="stays")))
        api.create(Pod(metadata=ObjectMeta(name="goes")))
        api.create(Pod(metadata=ObjectMeta(name="changes")))
        env.run(until=1.0)

        informer.stop()
        api.delete("Pod", "goes")
        api.patch("Pod", "changes", lambda p: p.metadata.labels.update(v="2"))
        api.create(Pod(metadata=ObjectMeta(name="appears")))
        events.clear()

        informer.resync()
        assert cache_keys(informer) == api_keys(api)
        assert informer.get("default/changes").metadata.labels == {"v": "2"}
        assert (WatchEventType.DELETE, "default/goes") in events
        assert (WatchEventType.PUT, "default/appears") in events
        assert (WatchEventType.PUT, "default/changes") in events
        # Unchanged objects dispatch nothing (no reconcile storms).
        assert (WatchEventType.PUT, "default/stays") not in events

    def test_resync_during_outage_is_a_safe_noop(self, env, api):
        informer = Informer(env, api, "Pod")
        informer.start()
        api.create(Pod(metadata=ObjectMeta(name="p")))
        env.run(until=1.0)
        api.set_outage(5.0)
        informer.resync()  # must not raise, must not wipe the cache
        assert cache_keys(informer) == {"default/p"}
