"""Integration tests: KubeShare controllers on a live simulated cluster.

These exercise the complete §4 pipeline: client submits a SharePodSpec →
KubeShare-Sched assigns a GPUID (Algorithm 1) → KubeShare-DevMgr acquires
the GPU via a placeholder pod, binds explicitly, installs the device
library → the workload runs isolated → teardown returns the GPU.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import GPU_RESOURCE, PodPhase
from repro.core import KubeShare, ReservationPolicy
from repro.core.devmgr import PLACEHOLDER_PREFIX
from repro.core.vgpu import VGPUPhase
from repro.gpu.device import GpuOutOfMemory
from repro.policy import PolicyConfig, ReaperConfig
from repro.sim import Process
from repro.sim.environment import set_profile_hook

TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


@pytest.fixture
def ks_cluster(env):
    cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
    ks = KubeShare(cluster, isolation="token").start()
    return cluster, ks


def train(work, mem_bytes=2 * 2**30):
    def wl(ctx):
        api = ctx.cuda()
        cu = api.cu_ctx_create()
        try:
            api.cu_mem_alloc(cu, mem_bytes)
            yield from api.cu_launch_kernel(cu, work)
        finally:
            api.cu_ctx_destroy(cu)
        return "done"

    return wl


def finish(cluster, ks, names):
    done = cluster.env.process(ks.wait_all_terminal(names))
    cluster.env.run(until=done)


class TestLifecycle:
    def test_single_sharepod_end_to_end(self, ks_cluster):
        cluster, ks = ks_cluster
        sp = ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(2.0),
        )
        ks.submit(sp)
        finish(cluster, ks, ["j1"])
        got = ks.get("j1")
        assert got.status.phase is PodPhase.SUCCEEDED
        assert got.spec.gpu_id is not None
        assert got.status.gpu_uuid is not None
        assert got.spec.node_name is not None

    def test_real_pod_carries_device_library_env(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.4, gpu_limit=0.8, gpu_mem=0.25,
            workload=train(1.0),
        ))
        wait = cluster.env.process(ks.wait_for_phase("j1", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        pod = cluster.api.get("Pod", "j1")
        env_vars = pod.spec.containers[0].env
        assert "libgemhook" in env_vars["LD_PRELOAD"]
        assert env_vars["KUBESHARE_GPU_REQUEST"] == "0.4"
        assert env_vars["KUBESHARE_GPU_LIMIT"] == "0.8"
        assert env_vars["KUBESHARE_GPU_MEM"] == "0.25"
        assert env_vars["NVIDIA_VISIBLE_DEVICES"].startswith("GPU-")

    def test_placeholder_pod_holds_the_physical_gpu(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3, workload=None,
        ))
        wait = cluster.env.process(ks.wait_for_phase("j1", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        holders = [
            p for p in cluster.api.pods() if p.name.startswith(PLACEHOLDER_PREFIX)
        ]
        assert len(holders) == 1
        assert holders[0].spec.resource_requests()[GPU_RESOURCE] == 1
        # the sharePod's own pod must NOT request an integer GPU
        pod = cluster.api.get("Pod", "j1")
        assert GPU_RESOURCE not in pod.spec.resource_requests()

    def test_two_sharepods_pack_one_gpu(self, ks_cluster):
        cluster, ks = ks_cluster
        for i in range(2):
            ks.submit(ks.make_sharepod(
                f"j{i}", gpu_request=0.4, gpu_limit=0.8, gpu_mem=0.3,
                workload=train(2.0),
            ))
        finish(cluster, ks, ["j0", "j1"])
        uuids = {ks.get(f"j{i}").status.gpu_uuid for i in range(2)}
        assert len(uuids) == 1  # same physical GPU
        assert ks.devmgr.vgpus_created_total == 1

    def test_oversized_requests_spread_to_two_gpus(self, ks_cluster):
        cluster, ks = ks_cluster
        for i in range(2):
            ks.submit(ks.make_sharepod(
                f"j{i}", gpu_request=0.7, gpu_limit=1.0, gpu_mem=0.3,
                workload=train(1.0),
            ))
        finish(cluster, ks, ["j0", "j1"])
        uuids = {ks.get(f"j{i}").status.gpu_uuid for i in range(2)}
        assert len(uuids) == 2

    def test_on_demand_policy_releases_gpu_after_completion(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(1.0),
        ))
        finish(cluster, ks, ["j1"])
        cluster.env.run(until=cluster.env.now + 2)
        assert len(ks.pool) == 0
        assert ks.devmgr.vgpus_released_total == 1
        # the placeholder is gone so the GPU is native-allocatable again
        assert not any(
            p.name.startswith(PLACEHOLDER_PREFIX) for p in cluster.api.pods()
        )

    def test_reservation_policy_keeps_idle_vgpu(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        ks = KubeShare(
            cluster, isolation="token", policy=ReservationPolicy(max_idle=None)
        ).start()
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(1.0),
        ))
        finish(cluster, ks, ["j1"])
        env.run(until=env.now + 2)
        assert len(ks.pool) == 1
        assert ks.pool.list()[0].phase is VGPUPhase.IDLE

    def test_idle_vgpu_reused_without_new_placeholder(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        ks = KubeShare(
            cluster, isolation="token", policy=ReservationPolicy(max_idle=None)
        ).start()
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(1.0),
        ))
        finish(cluster, ks, ["j1"])
        ks.submit(ks.make_sharepod(
            "j2", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(1.0),
        ))
        finish(cluster, ks, ["j2"])
        assert ks.devmgr.vgpus_created_total == 1  # reused, not recreated
        assert ks.get("j2").status.phase is PodPhase.SUCCEEDED

    def test_delete_running_sharepod_tears_down(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "svc", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3, workload=None,
        ))
        wait = cluster.env.process(ks.wait_for_phase("svc", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        ks.delete("svc")
        cluster.env.run(until=cluster.env.now + 3)
        assert cluster.api.get("Pod", "svc") is None
        assert len(ks.pool) == 0  # on-demand release


class TestIsolationThroughStack:
    def test_limit_enforced_for_real_workload(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "slow", gpu_request=0.2, gpu_limit=0.5, gpu_mem=0.3,
            workload=train(6.0),
        ))
        finish(cluster, ks, ["slow"])
        sp = ks.get("slow")
        duration = sp.status.finish_time - sp.status.start_time
        # 6.0 work at limit 0.5 ⇒ ~12 s; the sliding window allows a brief
        # full-rate transient while it fills (~1.25 s of head start).
        assert duration >= 6.0 / 0.5 - 2.6

    def test_memory_quota_enforced_through_stack(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "piggy", gpu_request=0.2, gpu_limit=0.5, gpu_mem=0.1,
            workload=train(1.0, mem_bytes=4 * 2**30),  # > 10% of 16GB
        ))
        finish(cluster, ks, ["piggy"])
        sp = ks.get("piggy")
        assert sp.status.phase is PodPhase.FAILED
        assert "GpuOutOfMemory" in sp.status.message or "quota" in sp.status.message

    def test_elastic_sharing_through_stack(self, ks_cluster):
        """Two jobs with summed requests < 1 split the residual fairly."""
        cluster, ks = ks_cluster
        for i, (req, lim) in enumerate([(0.3, 0.6), (0.4, 0.6)]):
            ks.submit(ks.make_sharepod(
                f"j{i}", gpu_request=req, gpu_limit=lim, gpu_mem=0.3,
                workload=train(5.0), affinity="pack",
            ))
        finish(cluster, ks, ["j0", "j1"])
        for i in range(2):
            sp = ks.get(f"j{i}")
            duration = sp.status.finish_time - sp.status.start_time
            # both should run at ~0.5 ⇒ ~10 s (allow token overhead)
            assert duration == pytest.approx(10.0, rel=0.15)


class TestSchedulerControllerBehaviour:
    def test_unschedulable_affinity_conflict_fails_sharepod(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "a", gpu_request=0.9, gpu_limit=1.0, gpu_mem=0.9,
            workload=None, affinity="grp",
        ))
        wait = cluster.env.process(ks.wait_for_phase("a", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        # same affinity, but no capacity left on that device
        ks.submit(ks.make_sharepod(
            "b", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.5,
            workload=None, affinity="grp",
        ))
        wait = cluster.env.process(ks.wait_for_phase("b", TERMINAL))
        cluster.env.run(until=wait)
        sp = ks.get("b")
        assert sp.status.phase is PodPhase.FAILED
        assert "unschedulable" in sp.status.message

    def test_saturated_cluster_defers_then_schedules(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        ks = KubeShare(cluster, isolation="token").start()
        ks.submit(ks.make_sharepod(
            "first", gpu_request=0.9, gpu_limit=1.0, gpu_mem=0.9,
            workload=train(3.0),
        ))
        ks.submit(ks.make_sharepod(
            "second", gpu_request=0.9, gpu_limit=1.0, gpu_mem=0.9,
            workload=train(3.0),
        ))
        finish(cluster, ks, ["first", "second"])
        assert ks.get("first").status.phase is PodPhase.SUCCEEDED
        assert ks.get("second").status.phase is PodPhase.SUCCEEDED
        # second could only start after first finished and freed the GPU
        assert ks.get("second").status.start_time > ks.get("first").status.finish_time

    def test_user_pinned_gpuid_respected(self, ks_cluster):
        """GPUs are first-class: a user can bind to an explicit GPUID."""
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "first", gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.3,
            workload=None,
        ))
        wait = cluster.env.process(ks.wait_for_phase("first", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        gpuid = ks.get("first").spec.gpu_id
        ks.submit(ks.make_sharepod(
            "pinned", gpu_request=0.3, gpu_limit=0.6, gpu_mem=0.3,
            workload=None, gpu_id=gpuid,
        ))
        wait = cluster.env.process(ks.wait_for_phase("pinned", [PodPhase.RUNNING]))
        cluster.env.run(until=wait)
        assert ks.get("pinned").status.gpu_uuid == ks.get("first").status.gpu_uuid
        assert ks.sched.scheduled_total == 1  # the pinned one bypassed Sched


class ProcessRecorder:
    """Profile hook: the names of the processes the kernel resumes."""

    def __init__(self):
        self.resumed = set()

    def dispatch(self, event, callbacks):
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Process):
                self.resumed.add(owner.name)
            callback(event)


class TestOneWiring:
    """One KubeShare class: ``replicas=None`` runs each controller alone,
    ``replicas=N`` leader-elects N replicas of each."""

    def test_single_instance_writes_no_lease_and_starts_no_elector(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
        ks = KubeShare(cluster, contention=PolicyConfig(reaper=ReaperConfig())).start()
        pl = ks.policy_layer
        groups = (ks.sched_group, ks.devmgr_group, pl.quota_group, pl.reaper_group)
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3, workload=train(2.0),
        ))
        recorder = ProcessRecorder()
        set_profile_hook(recorder)
        try:
            finish(cluster, ks, ["j1"])
        finally:
            set_profile_hook(None)
        assert ks.get("j1").status.phase is PodPhase.SUCCEEDED
        assert cluster.api.list("Lease") == []
        assert not [n for n in sorted(recorder.resumed) if n.startswith("elector:")]
        for group in groups:
            assert group.replicas == [] and group.promotions == []
            (instance,) = group.controllers
            assert group.active_controller is instance
            assert instance.api is cluster.api  # unfenced
        assert (ks.sched, ks.devmgr, pl.quota, pl.reaper) == tuple(
            g.controllers[0] for g in groups
        )
        assert ks.pool is ks.devmgr.pool

    def test_replicas_elect_the_policy_controllers_too(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
        ks = KubeShare(
            cluster, contention=PolicyConfig(reaper=ReaperConfig()), replicas=2
        ).start()
        pl = ks.policy_layer
        env.run(until=2.0)
        for group in (ks.sched_group, ks.devmgr_group, pl.quota_group, pl.reaper_group):
            assert len(group.replicas) == 2
            assert group.leader is not None and len(group.promotions) == 1
        assert pl.quota is pl.quota_group.active_controller
        assert pl.reaper is pl.reaper_group.active_controller
        assert pl.accountant is pl.quota.accountant
        leases = sorted(lease.name for lease in cluster.api.list("Lease"))
        assert leases == ["kubeshare-devmgr", "kubeshare-sched", "quota-controller", "reaper"]

    def test_policy_groups_share_the_election_timings(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
        ks = KubeShare(
            cluster,
            contention=PolicyConfig(reaper=ReaperConfig()),
            replicas=2,
            lease_duration=1.0,
            renew_interval=0.2,
            retry_interval=0.2,
        ).start()
        pl = ks.policy_layer
        bound = ks.sched_group.failover_bound
        groups = (ks.sched_group, ks.devmgr_group, pl.quota_group, pl.reaper_group)
        assert [g.failover_bound for g in groups] == [bound] * 4
        env.run(until=2.0)
        crashed_at = env.now
        pl.quota_group.leader.crash()
        env.run(until=crashed_at + bound + 0.01)
        (_, first, _), (promoted_at, second, _) = pl.quota_group.promotions
        assert second != first
        assert promoted_at - crashed_at <= bound
        assert pl.quota is pl.quota_group.active_controller

    def test_views_follow_a_failover(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=2, gpus_per_node=2)).start()
        ks = KubeShare(
            cluster, replicas=2, lease_duration=1.0, renew_interval=0.2, retry_interval=0.2
        ).start()
        ks.submit(ks.make_sharepod(
            "svc", gpu_request=0.4, gpu_limit=0.6, gpu_mem=0.3, workload=None,
        ))
        wait = env.process(ks.wait_for_phase("svc", [PodPhase.RUNNING]))
        env.run(until=wait)
        sched, devmgr, pool = ks.sched, ks.devmgr, ks.pool
        assert sched is not None and devmgr is not None and pool is devmgr.pool
        ks.sched_group.leader.crash()
        ks.devmgr_group.leader.crash()
        assert (ks.sched, ks.devmgr, ks.pool) == (None, None, None)  # mid-failover
        env.run(until=env.now + ks.devmgr_group.failover_bound + 0.01)
        assert ks.sched is ks.sched_group.active_controller
        assert ks.devmgr is ks.devmgr_group.active_controller
        assert ks.sched not in (None, sched) and ks.devmgr not in (None, devmgr)
        assert ks.pool is ks.devmgr.pool and ks.pool is not pool
        # The promoted DevMgr rebuilt the vGPU from its placeholder pod.
        assert [v.gpuid for v in ks.pool.list()] == [v.gpuid for v in pool.list()]
