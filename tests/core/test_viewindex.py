"""DeviceViewIndex serves exactly what a brute-force relist would.

The scheduler reads Algorithm 1's inputs from the commit-invalidated
:class:`~repro.core.viewindex.DeviceViewIndex` instead of relisting the
apiserver per pass. Here every pass of three canonical scenarios is
checked against a relist written in this file: the device views, the
pool view (in HA mode rebuilt from placeholder pods), the SharePod
population, the assigned GPUIDs and the Ready-node GPU capacity. A
missed invalidation shows up as a pass whose cached reads differ.
"""

import pytest

from repro.cluster.objects import GPU_RESOURCE, PodPhase
from repro.core.scheduler import build_device_views
from repro.core.vgpu import PLACEHOLDER_PREFIX, VGPU, VGPUPool, placeholder_gpuid
from repro.core.viewindex import DeviceViewIndex
from repro.perf import scenarios

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


def relist_pool(api, pool):
    """The shared in-process pool, or one rebuilt from placeholder pods."""
    if pool is not None:
        return pool
    view = VGPUPool()
    for pod in api.list("Pod"):
        if pod.name.startswith(PLACEHOLDER_PREFIX):
            vgpu = VGPU(
                gpuid=placeholder_gpuid(pod.name),
                created_at=pod.metadata.creation_time,
                node_name=pod.spec.node_name,
                placeholder_pod=pod.name,
            )
            view.add(vgpu)
    return view


def _pool_rows(pool):
    return [(v.gpuid, v.node_name, v.placeholder_pod, v.created_at) for v in pool.list()]


def relist_mismatches(index, views):
    """Every read of *index* that differs from a relist, by name."""
    api = index.api
    sharepods = api.list("SharePod")
    pool = relist_pool(api, index.pool)
    expected = {
        "device_views": build_device_views(pool, sharepods),
        "pool_view": _pool_rows(pool),
        "sharepod_count": len(sharepods),
        "assigned_gpuids": {
            sp.spec.gpu_id
            for sp in sharepods
            if sp.spec.gpu_id is not None and sp.status.phase not in _TERMINAL
        },
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
        "pool_view": _pool_rows(index.pool_view()),
        "sharepod_count": index.sharepod_count(),
        "assigned_gpuids": index.assigned_gpuids(),
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
        log.append((self.api.env.now, self.pool is None, relist_mismatches(self, views)))
        return views

    monkeypatch.setattr(DeviceViewIndex, "device_views", checked)
    return log


@pytest.mark.parametrize(
    "run, n_passes, ha",
    [
        (lambda: scenarios.chaos(11), 8, False),
        (lambda: scenarios.failover(13), 12, True),
        (lambda: scenarios.fig8(seed=7), 120, False),
    ],
    ids=["chaos", "failover", "fig8"],
)
def test_index_matches_relist_at_every_pass(passes, run, n_passes, ha):
    run()
    assert len(passes) == n_passes
    assert {is_ha for _, is_ha, _ in passes} == {ha}
    assert [(t, bad) for t, _, bad in passes if bad] == []
