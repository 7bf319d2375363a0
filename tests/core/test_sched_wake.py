"""A freed GPU wakes exactly the waiting SharePods, in informer order.

When a SharePod turns terminal or is deleted, capacity frees, and
KubeShare-Sched's filter requeues every SharePod still waiting for a
GPUID. It keeps the waiting keys, each with its informer-cache insertion
rank, instead of scanning the informer cache. Here, at every freeing
event of the four golden scenarios, the keys it requeues are checked,
in order, against the brute-force scan of the cache that it replaced.
"""

import pytest

from repro.cluster.apiserver import APIServer
from repro.cluster.etcd import WatchEventType
from repro.cluster.objects import ObjectMeta, PodPhase
from repro.core.scheduler import KubeShareSched
from repro.core.sharepod import SharePod, SharePodSpec
from repro.perf import scenarios

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


def scan(sched):
    """The brute-force wake: every cached SharePod without a GPUID that is
    not terminal, in informer-cache order."""
    return [
        sp.metadata.key
        for sp in sched.informer.list()
        if sp.spec.gpu_id is None and sp.status.phase not in _TERMINAL
    ]


@pytest.fixture
def wakes(monkeypatch):
    """Record (scanned, requeued) keys at every capacity-freeing event."""
    log = []
    filter_ = KubeShareSched.filter

    def checked(self, etype, obj):
        if etype is not WatchEventType.DELETE and obj.status.phase not in _TERMINAL:
            return filter_(self, etype, obj)
        expected = scan(self)
        requeued = []
        add = self.queue.add
        self.queue.add = lambda key: (requeued.append(key), add(key))
        try:
            return filter_(self, etype, obj)
        finally:
            del self.queue.add
            log.append((expected, requeued))

    monkeypatch.setattr(KubeShareSched, "filter", checked)
    return log


@pytest.mark.parametrize(
    "run, n_events, n_woken",
    [
        # No SharePod of chaos or failover ends: nothing frees capacity.
        (lambda: scenarios.chaos(11), 0, 0),
        (lambda: scenarios.failover(13), 0, 0),
        (lambda: scenarios.fig8(seed=7), 120, 3),
        (lambda: scenarios.trace_replay(), 105, 3),
        (
            lambda: scenarios.trace_replay(
                23, nodes=32, gpus_per_node=4, mean_rate=1.4, horizon=360
            ),
            481,
            51,
        ),
    ],
    ids=["chaos", "failover", "fig8", "trace_replay", "borg_replay"],
)
def test_freed_capacity_wakes_what_the_scan_would(wakes, run, n_events, n_woken):
    run()
    assert len(wakes) == n_events
    assert sum(len(requeued) for _, requeued in wakes) == n_woken
    assert [(i, e, r) for i, (e, r) in enumerate(wakes) if e != r] == []


def test_wake_order_follows_informer_cache_insertion(env, wakes):
    """Keys re-enter the waiting set at their cache rank; a deleted and
    re-created key goes to the back, as it does in the informer cache."""
    api = APIServer(env)
    api.register_crd("SharePod")
    sched = KubeShareSched(env, api)

    def deliver(etype, sp):  # what Informer._run does with one event
        if etype is WatchEventType.DELETE:
            sched.informer.cache.pop(sp.metadata.key, None)
        else:
            sched.informer.cache[sp.metadata.key] = sp
        sched._on_event(etype, sp)

    def sharepod(name, gpu_id=None, phase=PodPhase.PENDING):
        sp = SharePod(
            metadata=ObjectMeta(name=name),
            spec=SharePodSpec(gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3, gpu_id=gpu_id),
        )
        sp.status.phase = phase
        return sp

    put, delete = WatchEventType.PUT, WatchEventType.DELETE
    for name in ("d", "a", "c", "b"):
        deliver(put, sharepod(name))
    deliver(put, sharepod("d", gpu_id="g1"))  # scheduled: leaves the set
    deliver(delete, sharepod("a"))
    deliver(put, sharepod("a"))  # re-created: back of the cache
    deliver(put, sharepod("d"))  # rescheduled: back at its old rank
    deliver(put, sharepod("e", gpu_id="g1", phase=PodPhase.SUCCEEDED))
    deliver(delete, sharepod("c"))
    assert wakes == [
        (["default/c", "default/b"],) * 2,
        (["default/d", "default/c", "default/b", "default/a"],) * 2,
        (["default/d", "default/b", "default/a"],) * 2,
    ]
