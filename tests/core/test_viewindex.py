"""DeviceViewIndex serves exactly what a brute-force relist would.

The scheduler reads Algorithm 1's inputs from the delta-updated
:class:`~repro.core.viewindex.DeviceViewIndex` instead of relisting the
apiserver per pass. Here every pass of five scenarios (the four canonical
ones and the ``borg_replay`` bench configuration) is checked against a
relist written in this file: the device views over the placeholder pods'
GPUIDs, the SharePod population and the Ready-node GPU capacity. A missed
or misapplied delta shows up as a pass whose reads differ. Unit tests
cover what no scenario pass shows: a placeholder create reaches the
views, an index built after placeholders and SharePods exist (a promoted
HA scheduler's) starts from them, the delta update's edge cases, and a
pass's work staying flat as terminated SharePods accumulate.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.apiserver import APIServer
from repro.cluster.etcd import Etcd
from repro.cluster.objects import (
    GPU_RESOURCE,
    ContainerSpec,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from repro.core import KubeShare, viewindex
from repro.core.scheduler import build_device_views
from repro.core.sharepod import SharePod, SharePodSpec
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
        # The bench's borg_replay: 128 GPUs, ~480 SharePods.
        (
            lambda: scenarios.trace_replay(
                23, nodes=32, gpus_per_node=4, mean_rate=1.4, horizon=360
            ),
            481,
        ),
    ],
    ids=["chaos", "failover", "fig8", "trace_replay", "borg_replay"],
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


# -- delta-update edge cases --------------------------------------------------


@pytest.fixture
def api(env):
    api = APIServer(env)
    api.register_crd("SharePod")
    return api


def _sharepod(name, gpu_id=None, request=0.1, mem=0.1, aff=None, anti_aff=None, excl=None):
    return SharePod(
        metadata=ObjectMeta(name=name),
        spec=SharePodSpec(
            gpu_request=request,
            gpu_limit=1.0,
            gpu_mem=mem,
            gpu_id=gpu_id,
            sched_affinity=aff,
            sched_anti_affinity=anti_aff,
            sched_exclusion=excl,
        ),
    )


def _add_placeholder(api, gpuid):
    spec = PodSpec(containers=[ContainerSpec(requests={"cpu": 0.1})])
    api.create(Pod(metadata=ObjectMeta(name=PLACEHOLDER_PREFIX + gpuid), spec=spec))


def _set(api, name, **fields):
    def mutate(sp):
        for field, value in fields.items():
            target = sp.status if field == "phase" else sp.spec
            setattr(target, field, value)

    api.patch("SharePod", name, mutate)


def _checked_views(index):
    views = index.device_views()
    assert relist_mismatches(index, views) == []
    return {v.gpuid: v for v in views}


def test_reassigned_sharepod_moves_between_views(api):
    _add_placeholder(api, "g1")
    index = DeviceViewIndex(api)
    api.create(_sharepod("a", "g1", request=0.4))
    assert _checked_views(index)["g1"].util == 0.6
    _set(api, "a", gpu_id="g2")
    views = _checked_views(index)
    assert views["g1"].idle and views["g1"].util == 1.0
    assert views["g2"].util == 0.6 and not views["g2"].idle


def test_terminal_and_deleted_sharepods_leave_the_views(api):
    _add_placeholder(api, "g1")
    index = DeviceViewIndex(api)
    api.create(_sharepod("a", "g1", request=0.1))
    api.create(_sharepod("b", "g1", request=0.2))
    api.create(_sharepod("c", "g1", request=0.3))
    _checked_views(index)
    _set(api, "a", phase=PodPhase.SUCCEEDED)
    assert _checked_views(index)["g1"].util == 1.0 - 0.2 - 0.3
    api.delete("SharePod", "b")
    assert _checked_views(index)["g1"].util == 1.0 - 0.3
    assert index.sharepod_count() == 2
    # A terminal SharePod's later writes keep it out.
    _set(api, "a", gpu_id="g1")
    assert _checked_views(index)["g1"].util == 1.0 - 0.3


def test_shared_affinity_label_stays_while_one_holder_remains(api):
    index = DeviceViewIndex(api)
    api.create(_sharepod("a", "g1", aff="team", anti_aff="solo"))
    api.create(_sharepod("b", "g1", aff="team"))
    assert _checked_views(index)["g1"].aff == {"team"}
    api.delete("SharePod", "a")
    views = _checked_views(index)
    assert views["g1"].aff == {"team"} and views["g1"].anti_aff == set()


def test_exclusion_label_of_the_last_key_wins(api):
    index = DeviceViewIndex(api)
    # Created out of key order: the views follow key order, as a relist
    # does, for the label and for the float residuals alike.
    api.create(_sharepod("b", "g1", request=0.2, excl="y"))
    api.create(_sharepod("a", "g1", request=0.1, excl="x"))
    views = _checked_views(index)
    assert views["g1"].excl == "y"
    assert views["g1"].util == (1.0 - 0.1) - 0.2 != (1.0 - 0.2) - 0.1
    api.delete("SharePod", "b")
    assert _checked_views(index)["g1"].excl == "x"


def test_idle_pool_vgpu_keeps_a_fresh_view(api):
    _add_placeholder(api, "g1")
    index = DeviceViewIndex(api)
    api.create(_sharepod("a", "g1", aff="team", excl="x"))
    _set(api, "a", phase=PodPhase.FAILED)
    views = _checked_views(index)
    assert _idle_views(views.values()) == [("g1", True, 1.0, 1.0)]
    assert views["g1"].aff == set() and views["g1"].excl is None


def test_non_pool_gpuid_view_goes_with_its_last_sharepod(api):
    index = DeviceViewIndex(api)
    api.create(_sharepod("a", "g2"))
    api.create(_sharepod("b", "g2"))
    assert list(_checked_views(index)) == ["g2"]
    api.delete("SharePod", "a")
    assert list(_checked_views(index)) == ["g2"]
    _set(api, "b", phase=PodPhase.SUCCEEDED)
    assert _checked_views(index) == {}
    # Its placeholder arriving later brings it back, idle.
    _add_placeholder(api, "g2")
    assert _idle_views(_checked_views(index).values()) == [("g2", True, 1.0, 1.0)]


def test_index_built_over_existing_sharepods(api, monkeypatch):
    _add_placeholder(api, "g1")
    api.create(_sharepod("c", "g1", request=0.3))
    api.create(_sharepod("a", "g1", request=0.1, aff="team"))
    api.create(_sharepod("b", "g2", request=0.2))
    api.create(_sharepod("d", None))
    api.create(_sharepod("e", "g3"))
    _set(api, "e", phase=PodPhase.SUCCEEDED)
    # Built the way a promoted HA scheduler builds it, mid-run.
    index = DeviceViewIndex(api)
    assert index.sharepod_count() == 5
    assert sorted(_checked_views(index)) == ["g1", "g2"]
    rebuilds = []
    monkeypatch.setattr(
        viewindex,
        "build_device_views",
        lambda *args: rebuilds.append(args) or build_device_views(*args),
    )
    api.delete("SharePod", "c")
    _set(api, "b", gpu_id="g1")
    api.create(_sharepod("f", "g2"))
    assert _checked_views(index)["g1"].util == (1.0 - 0.1) - 0.2
    assert rebuilds == []


def test_pass_work_stays_flat_as_terminated_sharepods_accumulate(env, monkeypatch):
    """Run 250 short SharePods one after another: once the index is built,
    no pass rebuilds every view or snapshots the SharePods, and no pass
    aggregates more SharePods than are live."""
    cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
    ks = KubeShare(cluster, isolation="fluid").start()
    counts = {"rebuilds": 0, "snapshots": 0, "aggregated": 0}
    build, one_view = viewindex.build_device_views, viewindex.device_view
    snapshot, device_views = Etcd.snapshot, DeviceViewIndex.device_views

    def counted_build(gpuids, sharepods):
        counts["rebuilds"] += 1
        return build(gpuids, sharepods)

    def counted_view(gpuid, sharepods):
        counts["aggregated"] += len(sharepods)
        return one_view(gpuid, sharepods)

    def counted_snapshot(self, prefix):
        if prefix == "/registry/SharePod/":
            counts["snapshots"] += 1
        return snapshot(self, prefix)

    passes = []

    def counted_pass(self):
        before = dict(counts)
        views = device_views(self)
        work = {k: counts[k] - before[k] for k in counts}
        work["live"] = sum(
            sp.status.phase not in (PodPhase.SUCCEEDED, PodPhase.FAILED)
            for sp in self.api.list("SharePod")
        )
        passes.append(work)
        return views

    monkeypatch.setattr(viewindex, "build_device_views", counted_build)
    monkeypatch.setattr(viewindex, "device_view", counted_view)
    monkeypatch.setattr(Etcd, "snapshot", counted_snapshot)
    monkeypatch.setattr(DeviceViewIndex, "device_views", counted_pass)

    def work(ctx):
        api = ctx.cuda()
        cu = api.cu_ctx_create()
        yield from api.cu_launch_kernel(cu, 0.05)
        api.cu_ctx_destroy(cu)

    def one_after_another():
        for i in range(250):
            name = f"short-{i:03d}"
            ks.submit(ks.make_sharepod(name, 0.5, 1.0, 0.3, workload=work))
            yield from ks.wait_all_terminal([name])

    env.run(until=env.process(one_after_another()))
    assert all(ks.get(f"short-{i:03d}").status.phase is PodPhase.SUCCEEDED for i in range(250))
    assert len(passes) == 250
    assert counts["rebuilds"] == 1  # the index's initial fill, outside any pass
    assert [p for p in passes if p["rebuilds"] or p["snapshots"]] == []
    assert [p for p in passes if p["aggregated"] > p["live"]] == []
