"""Watch delivery: each etcd commit is a call to its subscribers.

A subscriber whose handler only updates memory and enqueues keys takes
each event inside the commit (``watch(..., deliver=fn)``). The contract:

* one commit reaches its subscribers in the order they subscribed,
  node-scoped ones included, each at its own place in that order;
* the per-node index delivers exactly what the unscoped stream, filtered
  by the kubelet's node check, keeps;
* a write from inside a delivery raises, so a callback that writes fails
  at once and every subscriber sees commits in revision order;
* a callback that raises stops ``env.run()`` with its exception, and is
  not retried as the writer's reconcile error;
* a restarted informer dispatches the DELETEs it prunes before the PUTs
  it replays;
* a started cluster and KubeShare run no watch process;
* the policy layer's lifetime reaper, a periodic sweep, subscribes to
  nothing and parks no worker.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.apiserver import APIServer
from repro.cluster.controller import Controller, Informer
from repro.cluster.etcd import Etcd, WatchEventType
from repro.cluster.kubelet import Kubelet
from repro.cluster.objects import ObjectMeta, Pod, PodPhase, PodSpec
from repro.cluster.scheduler import KubeScheduler
from repro.core import KubeShare
from repro.core.devmgr import KubeShareDevMgr
from repro.policy import PolicyConfig, ReaperConfig
from repro.sim import Environment, Process
from repro.sim.environment import set_profile_hook

from .test_watch_scope import NODES, apply, kubelet_keeps, op


def pod(name, node=None):
    return Pod(metadata=ObjectMeta(name=name), spec=PodSpec(node_name=node))


class TestOrder:
    def test_one_commit_reaches_subscribers_in_subscription_order(self):
        api = APIServer(Environment())
        order = []

        def subscriber(label, **scope):
            api.etcd.watch(deliver=lambda ev: order.append(label), **scope)

        subscriber("all", prefix="")
        subscriber("node-0 pods", prefix="/registry/Pod/", node="node-0")
        subscriber("pods", prefix="/registry/Pod/")
        subscriber("default pods", prefix="/registry/Pod/default/")
        subscriber("node-1 pods", prefix="/registry/Pod/", node="node-1")
        subscriber("nodes", prefix="/registry/Node/")
        subscriber("node-0 pods again", prefix="/registry/Pod/", node="node-0")
        subscriber("all again", prefix="")

        api.create(pod("p", node="node-0"))
        assert order == [
            "all", "node-0 pods", "pods", "default pods", "node-0 pods again", "all again",
        ]

    def test_restarted_kubelet_is_delivered_after_the_informers(self, monkeypatch):
        order = []

        def spy(cls, method, label):
            original = getattr(cls, method)

            def recording(self, raw):
                order.append(label(self))
                return original(self, raw)

            monkeypatch.setattr(cls, method, recording)

        spy(Kubelet, "_on_pod", lambda kubelet: f"kubelet:{kubelet.node_name}")
        spy(KubeScheduler, "_on_pod", lambda _: "default-scheduler")
        spy(KubeShareDevMgr, "_on_pod", lambda _: "devmgr")
        spy(Informer, "_deliver", lambda informer: f"informer:{informer.kind}")

        env = Environment()
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=1)).start()
        KubeShare(cluster).start()
        Informer(env, cluster.api, "Pod").start()
        env.run(until=1.0)

        order.clear()
        cluster.api.create(pod("a", node="node00"))
        assert order == ["default-scheduler", "kubelet:node00", "devmgr", "informer:Pod"]

        victim = cluster.nodes[0]
        victim.crash()
        env.process(victim.restart())
        env.run(until=2.0)
        order.clear()
        cluster.api.create(pod("b", node="node00"))
        # The restarted kubelet subscribed last, so it hears of the pod last.
        assert order == ["default-scheduler", "devmgr", "informer:Pod", "kubelet:node00"]


class TestNodeIndex:
    @given(ops=st.lists(op, max_size=30), opened=st.integers(0, 30))
    @example(
        ops=[("create", "a", "node-0"), ("create", "b", None), ("bind", "b", "node-1"),
             ("status", "a", PodPhase.RUNNING), ("delete", "a", None), ("delete", "b", None)],
        opened=1,
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_unscoped_callback_filtered_by_the_kubelet_check(self, ops, opened):
        api = APIServer(Environment())
        opened = min(opened, len(ops))
        for o in ops[:opened]:
            apply(api, *o)
        everything = []
        api.watch("Pod", replay=True, deliver=everything.append)
        replayed = len(everything)
        got = {node: [] for node in NODES}
        for node in NODES:
            api.watch("Pod", replay=True, node_name=node, deliver=got[node].append)
        for o in ops[opened:]:
            apply(api, *o)

        for node in NODES:
            replay = [ev for ev in everything[:replayed] if kubelet_keeps(node, ev)]
            live = [ev for ev in everything[replayed:] if kubelet_keeps(node, ev)]
            # Each watch replays into events of its own; live events are
            # the very objects every subscriber shares.
            assert got[node] == replay + live
            assert all(a is b for a, b in zip(got[node][len(replay):], live))


class TestCallbacksDoNotWrite:
    def test_a_write_from_inside_a_callback_raises(self):
        etcd = Etcd(Environment())
        refused = []

        def writes(ev):
            with pytest.raises(RuntimeError, match="inside a watch delivery") as err:
                etcd.put_if("/echo", ev.kv.value, mod_revision=0)
            refused.append(err.value)
            with pytest.raises(RuntimeError):
                etcd.delete("/a")

        etcd.watch("/a", deliver=writes)
        etcd.put_if("/a", 1, mod_revision=0)
        assert len(refused) == 1
        assert etcd.get("/echo") is None
        assert etcd.revision == 1
        etcd.put_if("/b", 2, mod_revision=0)  # outside a delivery, writes work again
        assert etcd.revision == 2

    def test_a_stream_takes_the_event_and_its_process_may_write(self):
        env = Environment()
        etcd = Etcd(env)
        stream = etcd.watch("/a")

        def echo():
            ev = yield stream.get()
            etcd.put_if("/echo", ev.kv.value, mod_revision=0)

        env.process(echo())
        etcd.put_if("/a", 7, mod_revision=0)
        env.run()
        assert etcd.get("/echo").value == 7


class Exploding(Controller):
    """A controller whose event handler fails on a pod that was seen."""

    kind = "Pod"

    def filter(self, etype, obj):
        if obj.status.message:
            raise ValueError(f"handler failed on {obj.name}")
        return False

    def reconcile(self, key):
        return
        yield


class Writer(Controller):
    """Each pass marks its pod seen, one second in, from a worker process."""

    kind = "Pod"

    def filter(self, etype, obj):
        return etype is WatchEventType.PUT and not obj.status.message

    def reconcile(self, key):
        yield self.env.timeout(1.0)
        name = key.split("/", 1)[1]
        self.api.patch("Pod", name, lambda p: setattr(p.status, "message", "seen"))


class TestFailuresStayLoud:
    def test_a_raising_callback_stops_the_run_with_its_exception(self, env):
        api = APIServer(env)
        writer = Writer(env, api).start()
        Exploding(env, api).start()
        api.create(pod("p"))
        with pytest.raises(ValueError, match="handler failed on p"):
            env.run(until=5.0)
        # The run stopped in the instant of the write that triggered the
        # handler. The write itself went through, and the writer's pass
        # did not fail: a handler's exception is the run's, never a
        # reconcile error retried with backoff.
        assert env.now == 1.0
        assert api.get("Pod", "p").status.message == "seen"
        assert writer.reconcile_errors == []
        assert writer.reconciles_total == 1


class TestInformerRestart:
    def test_pruned_deletes_are_dispatched_before_replayed_puts(self, env):
        api = APIServer(env)
        informer = Informer(env, api, "Pod")
        log = []
        informer.add_handler(lambda etype, obj: log.append((etype.value, obj.name)))
        informer.start()
        api.create(pod("a"))
        api.create(pod("b"))
        informer.stop()
        api.delete("Pod", "a")
        api.create(pod("c"))
        log.clear()
        informer.start()
        assert log == [("DELETE", "a"), ("PUT", "b"), ("PUT", "c")]
        assert set(informer.cache) == {"default/b", "default/c"}


class ProcessNames:
    """Profile hook: the name of every process the kernel dispatches to."""

    def __init__(self):
        self.resumed = set()

    def dispatch(self, event, callbacks):
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Process):
                self.resumed.add(owner.name)
            callback(event)


def test_started_cluster_and_kubeshare_run_no_watch_process():
    recorder = ProcessNames()
    set_profile_hook(recorder)
    try:
        env = Environment()
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
        ks = KubeShare(cluster).start()
        cluster.api.create(pod("native"))
        ks.submit(ks.make_sharepod("sp", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3))
        env.run(until=10.0)
    finally:
        set_profile_hook(None)
    assert ks.get("sp").status.phase is PodPhase.RUNNING
    assert cluster.api.get("Pod", "native").status.phase is PodPhase.RUNNING
    names = recorder.resumed
    watchers = {f"kubelet:{node.name}" for node in cluster.nodes} | {
        "default-scheduler:pods",
        "default-scheduler:nodes",
        "devmgr:pod-watch",
    }
    assert not [n for n in names if n.startswith("informer:") or n in watchers]
    # What is left of the watch path: DevMgr's Node watch, whose vGPU
    # teardown writes.
    assert "devmgr:node-watch" in names


def test_the_reaper_watches_nothing_and_parks_no_worker():
    def started(policy):
        env = Environment()
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        ks = KubeShare(cluster, contention=policy).start()
        return env, cluster, ks

    _, bare, _ = started(PolicyConfig())
    recorder = ProcessNames()
    set_profile_hook(recorder)
    try:
        env, cluster, ks = started(PolicyConfig(reaper=ReaperConfig(sweep_interval=0.5)))
        env.run(until=2.0)
    finally:
        set_profile_hook(None)
    assert ks.policy_layer.reaper is not None
    prefix = "/registry/SharePod/"
    assert len(cluster.api.etcd.watchers(prefix)) == len(bare.api.etcd.watchers(prefix))
    reaper = sorted(n for n in recorder.resumed if n.startswith("reaper:"))
    assert reaper == ["reaper:sweep"]
