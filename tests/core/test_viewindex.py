"""DeviceViewIndex serves exactly what a brute-force relist would.

The scheduler reads Algorithm 1's inputs from the commit-invalidated
:class:`~repro.core.viewindex.DeviceViewIndex` instead of relisting the
apiserver per pass. Here every pass of four canonical scenarios is
checked against a relist written in this file: the device views over the
placeholder pods' GPUIDs, the SharePod population and the Ready-node GPU
capacity. A missed invalidation shows up as a pass whose cached reads
differ. Two unit tests cover what no scenario pass shows: a placeholder
create invalidates the views, and an index built after placeholders
exist (a promoted HA scheduler's) starts from them.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import GPU_RESOURCE, ContainerSpec, ObjectMeta, Pod, PodSpec
from repro.core import KubeShare, viewindex
from repro.core.scheduler import build_device_views
from repro.core.vgpu import PLACEHOLDER_PREFIX, placeholder_gpuid
from repro.core.viewindex import DeviceViewIndex
from repro.perf import scenarios


def relist_mismatches(index, views):
    """Every read of *index* that differs from a relist, by name."""
    api = index.api
    sharepods = api.list("SharePod")
    pool = {
        placeholder_gpuid(pod.name)
        for pod in api.list("Pod")
        if pod.name.startswith(PLACEHOLDER_PREFIX)
    }
    expected = {
        "device_views": build_device_views(pool, sharepods),
        "sharepod_count": len(sharepods),
        "gpu_capacity": int(
            sum(
                n.status.capacity.get(GPU_RESOURCE, 0.0)
                for n in api.nodes()
                if n.status.ready
            )
        ),
    }
    actual = {
        "device_views": views,
        "sharepod_count": index.sharepod_count(),
        "gpu_capacity": index.gpu_capacity(),
    }
    return [name for name in expected if actual[name] != expected[name]]


@pytest.fixture
def passes(monkeypatch):
    """Record, per Algorithm 1 pass, which index reads missed the relist.

    Mismatches are collected rather than raised: an exception inside a
    controller's reconcile would be handled by the controller, not fail
    the test.
    """
    log = []
    device_views = DeviceViewIndex.device_views

    def checked(self):
        views = device_views(self)
        log.append((self.api.env.now, relist_mismatches(self, views)))
        return views

    monkeypatch.setattr(DeviceViewIndex, "device_views", checked)
    return log


@pytest.mark.parametrize(
    "run, n_passes",
    [
        (lambda: scenarios.chaos(11), 8),
        (lambda: scenarios.failover(13), 12),
        (lambda: scenarios.fig8(seed=7), 120),
        # On-demand release deletes placeholders while the index is warm.
        (lambda: scenarios.trace_replay(), 105),
    ],
    ids=["chaos", "failover", "fig8", "trace_replay"],
)
def test_index_matches_relist_at_every_pass(passes, run, n_passes):
    run()
    assert len(passes) == n_passes
    assert [(t, bad) for t, bad in passes if bad] == []


@pytest.fixture
def stack(env):
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
    return cluster, KubeShare(cluster).start()


def _idle_views(views):
    return [(v.gpuid, v.idle, v.util, v.mem) for v in views]


def test_prewarmed_vgpus_reach_the_next_pass(stack):
    cluster, ks = stack
    index = DeviceViewIndex(cluster.api)
    assert index.device_views() == []
    # No SharePod commit follows: only the placeholder creates can tell
    # the warm index that the pool grew.
    gpuids = ks.devmgr.prewarm(2)
    views = index.device_views()
    assert _idle_views(views) == [(g, True, 1.0, 1.0) for g in sorted(gpuids)]
    assert relist_mismatches(index, views) == []


def test_index_built_after_placeholders_starts_from_them(stack, monkeypatch):
    cluster, ks = stack
    env = cluster.env
    gpuids = ks.devmgr.prewarm(2)
    env.run(until=1.0)
    # Built the way a promoted HA scheduler builds it: the pool already
    # exists, and no placeholder create will arrive to announce it.
    index = DeviceViewIndex(cluster.api)
    views = index.device_views()
    assert _idle_views(views) == [(g, True, 1.0, 1.0) for g in sorted(gpuids)]
    assert relist_mismatches(index, views) == []

    rebuilds = []

    def counted(pool, sharepods):
        rebuilds.append(env.now)
        return build_device_views(pool, sharepods)

    monkeypatch.setattr(viewindex, "build_device_views", counted)
    # A native Pod's create and bind, and the placeholders' status writes.
    native = PodSpec(containers=[ContainerSpec(requests={"cpu": 0.1})])
    cluster.api.create(Pod(metadata=ObjectMeta(name="native"), spec=native))
    env.run(until=2.0)
    assert cluster.api.get("Pod", "native").spec.node_name is not None
    assert index.device_views() == views
    assert rebuilds == []
