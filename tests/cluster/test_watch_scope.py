"""Node-scoped Pod watches: the kubelet's ``spec.nodeName`` field selector.

The oracle is the check every kubelet used to apply to an unscoped watch
(``translate_event``, then drop ``None`` and other nodes' pods). A scoped
stream must deliver exactly what that check kept — the same event objects
in the same order — and a kubelet's watch callback must never be called
for the pods it filters out. ``test_watch_delivery.py`` checks the same
property for callbacks.
"""

from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.apiserver import (
    AlreadyExists,
    APIServer,
    Conflict,
    NotFound,
    translate_event,
)
from repro.cluster.kubelet import Kubelet
from repro.cluster.objects import ObjectMeta, Pod, PodPhase, PodSpec
from repro.sim import Environment, Process
from repro.sim.environment import set_profile_hook

NODES = ("node-0", "node-1", "node-2")
NAMES = ("a", "b", "c", "d")

op = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(NAMES), st.sampled_from(NODES + (None,))),
    st.tuples(st.just("bind"), st.sampled_from(NAMES), st.sampled_from(NODES)),
    st.tuples(st.just("status"), st.sampled_from(NAMES), st.sampled_from(list(PodPhase))),
    st.tuples(st.just("delete"), st.sampled_from(NAMES), st.none()),
)


def apply(api, kind, name, arg):
    """One Pod write; a write the current state refuses changes nothing."""
    try:
        if kind == "create":
            api.create(Pod(metadata=ObjectMeta(name=name), spec=PodSpec(node_name=arg)))
        elif kind == "bind":
            api.bind(name, arg)
        elif kind == "status":
            api.patch("Pod", name, lambda pod: setattr(pod.status, "phase", arg))
        else:
            api.delete("Pod", name)
    except (AlreadyExists, Conflict, NotFound):
        pass


def kubelet_keeps(node, raw):
    """The client-side drop the kubelet applied before its watch was scoped."""
    _, pod = translate_event(raw)
    return pod is not None and pod.spec.node_name == node


@contextmanager
def dispatch_log():
    """Record ``(process name, event value)`` for every process the kernel
    resumes, through the kernel's single dispatch hook."""
    log = []

    class Hook:
        def dispatch(self, event, callbacks):
            for callback in callbacks:
                proc = getattr(callback, "__self__", None)
                if isinstance(proc, Process):
                    log.append((proc.name, event.value))
                callback(event)

    set_profile_hook(Hook())
    try:
        yield log
    finally:
        set_profile_hook(None)


class TestScopedStream:
    @given(ops=st.lists(op, max_size=30), opened=st.integers(0, 30))
    @example(
        ops=[("create", "a", "node-0"), ("create", "b", None), ("bind", "b", "node-1"),
             ("status", "a", PodPhase.RUNNING), ("delete", "a", None), ("delete", "b", None)],
        opened=1,
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_unscoped_stream_filtered_by_the_kubelet_check(self, ops, opened):
        api = APIServer(Environment())
        opened = min(opened, len(ops))
        for o in ops[:opened]:
            apply(api, *o)
        unscoped = api.watch("Pod", replay=True)
        scoped = {node: api.watch("Pod", replay=True, node_name=node) for node in NODES}
        replayed = len(unscoped.events.items)
        for o in ops[opened:]:
            apply(api, *o)

        everything = unscoped.events.items
        for node, watch in scoped.items():
            replay = [ev for ev in everything[:replayed] if kubelet_keeps(node, ev)]
            live = [ev for ev in everything[replayed:] if kubelet_keeps(node, ev)]
            got = watch.events.items
            # Each watch replays into events of its own; live events are
            # the very objects every subscriber shares.
            assert got == replay + live
            assert all(a is b for a, b in zip(got[len(replay):], live))


def kubelet_deliveries(monkeypatch):
    """Record ``(node, pod name)`` for every event a kubelet's Pod watch
    delivers; install before the cluster is built."""
    log = []
    on_pod = Kubelet._on_pod

    def recording(self, raw):
        log.append((self.node_name, translate_event(raw)[1].name))
        return on_pod(self, raw)

    monkeypatch.setattr(Kubelet, "_on_pod", recording)
    return log


class TestKubelets:
    def test_restarted_kubelet_replays_only_its_own_pods(self, monkeypatch):
        log = kubelet_deliveries(monkeypatch)
        env = Environment()
        cluster = Cluster(env, ClusterConfig(nodes=3, gpus_per_node=1)).start()
        for i, node in enumerate(cluster.nodes):
            cluster.api.create(
                Pod(metadata=ObjectMeta(name=f"p{i}"), spec=PodSpec(node_name=node.name))
            )
        env.run(until=5.0)
        victim = cluster.nodes[1]
        victim.crash()
        env.run(until=6.0)

        log.clear()
        env.process(victim.restart())
        env.run(until=8.0)
        # The replay, then the restart's own "container lost" patch; no
        # other kubelet hears of either.
        assert log == [(victim.name, "p1"), (victim.name, "p1")]
        assert cluster.api.get("Pod", "p1").status.phase is PodPhase.FAILED

    def test_other_nodes_kubelets_stay_asleep(self, monkeypatch):
        log = kubelet_deliveries(monkeypatch)
        env = Environment()
        cluster = Cluster(env, ClusterConfig(nodes=4, gpus_per_node=1)).start()
        env.run(until=1.0)

        log.clear()
        with dispatch_log() as dispatched:
            cluster.api.create(
                Pod(metadata=ObjectMeta(name="p"), spec=PodSpec(node_name="node00"))
            )
            env.run(until=5.0)
        assert cluster.api.get("Pod", "p").status.phase is PodPhase.RUNNING
        assert {node for node, _ in log} == {"node00"}
        # No kubelet process runs at all: the watch is a callback, and
        # the pod's own process does the rest.
        assert [name for name, _ in dispatched if name.startswith("kubelet:")] == []
        assert {name for name, _ in dispatched} == {"workload:p"}
