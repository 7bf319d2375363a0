"""Optimistic-concurrency behaviour under concurrent SharePod writers.

The HA control plane leans on two properties of the apiserver: a write
with a stale resourceVersion surfaces :class:`Conflict` (the CAS that
leader election and fencing reuse), and :meth:`APIServer.patch` re-reads
before every retry so a conflicting writer's changes are never silently
overwritten — the pattern DevMgr and the scheduler use for every
status/spec mutation.

These tests deliberately perform the hazardous get→update shape to
assert that Conflict fires; the lint rule they would trip exists to
keep that shape out of *controllers*, not out of its own tests.
"""
# repro-lint: disable=RPR004 - deliberate get→update races are the test subject

import pytest

from repro.cluster.apiserver import APIServer, Conflict
from repro.cluster.objects import ObjectMeta, PodPhase
from repro.core.sharepod import SharePod, SharePodSpec
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def api(env):
    api = APIServer(env)
    api.register_crd("SharePod")
    return api


def make_sp(name="sp1"):
    return SharePod(
        metadata=ObjectMeta(name=name),
        spec=SharePodSpec(gpu_request=0.4, gpu_limit=0.6, gpu_mem=0.25),
    )


class TestConflictSurfaces:
    def test_second_writer_with_same_resource_version_conflicts(self, api):
        api.create(make_sp())
        # Two controllers read the same revision...
        first = api.get("SharePod", "sp1").clone()
        second = api.get("SharePod", "sp1").clone()
        first.spec.gpu_id = "vgpu-aaa"
        api.update(first)
        # ...the slower writer's CAS must fail, not clobber.
        second.spec.gpu_id = "vgpu-bbb"
        with pytest.raises(Conflict):
            api.update(second)
        assert api.get("SharePod", "sp1").spec.gpu_id == "vgpu-aaa"

    def test_update_after_reread_succeeds(self, api):
        api.create(make_sp())
        loser = api.get("SharePod", "sp1").clone()
        winner = api.get("SharePod", "sp1").clone()
        winner.spec.gpu_id = "vgpu-aaa"
        api.update(winner)
        with pytest.raises(Conflict):
            api.update(loser)
        # The retry protocol: re-read, re-apply, re-write.
        fresh = api.get("SharePod", "sp1").clone()
        fresh.status.phase = PodPhase.RUNNING
        api.update(fresh)
        stored = api.get("SharePod", "sp1")
        assert stored.spec.gpu_id == "vgpu-aaa"  # winner's change preserved
        assert stored.status.phase is PodPhase.RUNNING


class TestPatchRereads:
    def test_patch_preserves_concurrent_writers_changes(self, api):
        """DevMgr-style status patch racing a scheduler-style spec patch:
        patch re-reads on Conflict, so both mutations land."""
        api.create(make_sp())
        interfered = []

        def devmgr_mutate(sp):
            # A competing writer sneaks in between patch's read and write
            # on the first attempt only (simulated interleaving).
            if not interfered:
                interfered.append(True)
                other = api.get("SharePod", "sp1").clone()
                other.spec.gpu_id = "vgpu-aaa"
                api.update(other)
            sp.status.phase = PodPhase.RUNNING
            sp.status.pod_name = "sp1"

        api.patch("SharePod", "sp1", devmgr_mutate)
        stored = api.get("SharePod", "sp1")
        # Both the competing spec write and the patched status survived.
        assert stored.spec.gpu_id == "vgpu-aaa"
        assert stored.status.phase is PodPhase.RUNNING
        assert stored.status.pod_name == "sp1"

    def test_patch_retries_are_bounded(self, api):
        api.create(make_sp())

        def always_interfere(sp):
            other = api.get("SharePod", "sp1").clone()
            other.metadata.labels["tick"] = str(
                int(other.metadata.labels.get("tick", "0")) + 1
            )
            api.update(other)
            sp.status.phase = PodPhase.RUNNING

        with pytest.raises(Conflict):
            api.patch("SharePod", "sp1", always_interfere, retries=3)

    def test_mutate_sees_latest_object_on_every_attempt(self, api):
        """The re-read is what makes retry safe: mutate must observe the
        competing writer's value, never the stale first read."""
        api.create(make_sp())
        seen = []
        interfered = []

        def mutate(sp):
            seen.append(sp.spec.gpu_id)
            if not interfered:
                interfered.append(True)
                other = api.get("SharePod", "sp1").clone()
                other.spec.gpu_id = "vgpu-ccc"
                api.update(other)
            sp.status.message = "bound"

        api.patch("SharePod", "sp1", mutate)
        assert seen == [None, "vgpu-ccc"]
