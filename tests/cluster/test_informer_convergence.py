"""Informer convergence after outages and restarts.

An informer's watch takes each etcd commit inside the write, and an
apiserver outage gates request processing, not deliveries: writes fail,
so there are no events to miss while the watch stays open, and a running
informer's cache always equals the store. Events *can* be missed by a
stopped informer (controller failover or pause/resume), and
:meth:`Informer.start` makes up for them: it dispatches a DELETE for
each cached key the store lost, then replays the current objects as
PUTs. Both read etcd past the outage gate, so a restart inside an outage
is as exact as any other. Nothing relists on a timer or after an outage,
so an idle control plane costs no events. These are the regression
tests for each of those properties.
"""

import pytest

from repro import Cluster, ClusterConfig, KubeShare
from repro.cluster.apiserver import APIServer, ServiceUnavailable
from repro.cluster.controller import Informer
from repro.cluster.etcd import WatchEventType
from repro.cluster.objects import ObjectMeta, Pod, PodPhase
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


def store_keys(api, kind="Pod"):
    """What etcd holds, read past the apiserver's outage gate."""
    return {kv.value.metadata.key for kv in api.etcd.snapshot(f"/registry/{kind}/")}


def sleeper(ctx):
    yield ctx.env.timeout(300.0)


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


class TestIdleControlPlane:
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

    def test_restart_inside_an_outage_prunes_before_the_replay(self, env, api):
        informer = Informer(env, api, "Pod")
        events = []
        informer.add_handler(lambda et, obj: events.append((et, obj.metadata.key)))
        informer.start()
        api.create(Pod(metadata=ObjectMeta(name="keep")))
        api.create(Pod(metadata=ObjectMeta(name="doomed")))
        env.run(until=1.0)

        informer.stop()
        api.delete("Pod", "doomed")
        api.create(Pod(metadata=ObjectMeta(name="new")))
        api.set_outage(5.0)
        events.clear()

        informer.start()  # inside the outage: requests fail, etcd still answers
        assert events == [
            (WatchEventType.DELETE, "default/doomed"),
            (WatchEventType.PUT, "default/keep"),
            (WatchEventType.PUT, "default/new"),
        ]
        assert cache_keys(informer) == store_keys(api) == {"default/keep", "default/new"}


class TestControllerResumedInsideOutage:
    def test_devmgr_releases_a_sharepod_deleted_while_it_was_paused(self, env):
        """The DevMgr leader is paused, a SharePod is deleted, and the
        leader resumes inside an apiserver outage: its restarted informer
        still hears the deletion, so the real pod goes and the vGPU share
        is unbound (it used to stay held for as long as the workload ran)."""
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
        ks = KubeShare(cluster, isolation="token", replicas=2).start()
        for name in ("keep", "doomed"):
            ks.submit(ks.make_sharepod(
                name, gpu_request=0.4, gpu_limit=0.6, gpu_mem=0.3, workload=sleeper
            ))
        env.run(until=21.0)
        assert [ks.get(n).status.phase for n in ("keep", "doomed")] == [PodPhase.RUNNING] * 2
        leader = ks.devmgr_group.leader
        devmgr = leader.controller
        leader.pause(1.0)  # resumes at t=22.0
        env.run(until=21.4)
        ks.delete("doomed")
        env.run(until=21.8)
        cluster.api.set_outage(0.5)  # down over the resume, until t=22.3
        env.run(until=120.0)

        assert ks.devmgr is devmgr  # the same reign, resumed
        assert cluster.api.get("Pod", "doomed") is None
        assert "default/doomed" not in devmgr.informer.cache
        assert "default/doomed" not in devmgr._bound
        assert ks.get("keep").status.phase is PodPhase.RUNNING
        assert devmgr._bound["default/keep"] == ks.get("keep").spec.gpu_id
