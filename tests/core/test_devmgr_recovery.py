"""DevMgr recovery: vGPU teardown on GPU/node death and SharePod policy.

When a physical GPU dies (or its node goes NotReady), KubeShare-DevMgr
must tear the affected vGPUs down, release the placeholder, and either
fail the attached SharePods (``restart_policy="never"``) or push them
back through Algorithm 1 (``restart_policy="reschedule"``).
"""

import pytest

from repro.chaos import ChaosEngine
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import GPU_RESOURCE, PodPhase
from repro.core import KubeShare
from repro.workloads import TrainingJob

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


def kill_gpu(cluster, uuid):
    """Fail a physical GPU the way the chaos engine does: device error,
    token-daemon drain, device-plugin health flip."""
    gpu = cluster.gpu_by_uuid(uuid)
    node = cluster.node(gpu.node_name)
    gpu.fail()
    node.backend.fail_device(uuid)
    node.device_manager.set_device_health(GPU_RESOURCE, uuid, healthy=False)


def run_until_running(cluster, ks, name):
    wait = cluster.env.process(ks.wait_for_phase(name, [PodPhase.RUNNING]))
    cluster.env.run(until=wait)
    return ks.get(name)


class TestGpuDeathTeardown:
    def test_vgpu_torn_down_when_its_gpu_dies(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(30.0),
        ))
        sp = run_until_running(cluster, ks, "j1")
        uuid = sp.status.gpu_uuid
        assert len(ks.pool.list()) == 1

        kill_gpu(cluster, uuid)
        cluster.env.run(until=cluster.env.now + 5)
        assert ks.pool.list() == []
        assert ks.devmgr.vgpus_torn_down_total == 1
        # the placeholder pod is gone too
        holders = [p for p in cluster.api.list("Pod")
                   if p.metadata.name.startswith("vgpu-holder-")]
        assert holders == []

    def test_never_policy_fails_the_sharepod(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(30.0),  # restart_policy defaults to "never"
        ))
        sp = run_until_running(cluster, ks, "j1")
        kill_gpu(cluster, sp.status.gpu_uuid)
        cluster.env.run(until=cluster.env.now + 5)
        got = ks.get("j1")
        assert got.status.phase is PodPhase.FAILED
        assert ks.devmgr.sharepods_rescheduled_total == 0

    def test_reschedule_policy_moves_the_sharepod(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(5.0), restart_policy="reschedule",
        ))
        sp = run_until_running(cluster, ks, "j1")
        dead = sp.status.gpu_uuid
        kill_gpu(cluster, dead)

        # It must come back RUNNING on a different physical GPU...
        deadline = cluster.env.now + 30
        while cluster.env.now < deadline:
            cluster.env.run(until=cluster.env.now + 1)
            got = ks.get("j1")
            if got.status.phase is PodPhase.RUNNING and got.status.gpu_uuid != dead:
                break
        got = ks.get("j1")
        assert got.status.phase is PodPhase.RUNNING
        assert got.status.gpu_uuid is not None and got.status.gpu_uuid != dead
        assert ks.devmgr.sharepods_rescheduled_total >= 1

        # ...and run to completion there.
        done = cluster.env.process(ks.wait_all_terminal(["j1"]))
        cluster.env.run(until=done)
        assert ks.get("j1").status.phase is PodPhase.SUCCEEDED

    def test_idle_vgpu_on_dead_gpu_is_released(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(1.0),
        ))
        done = cluster.env.process(ks.wait_all_terminal(["j1"]))
        cluster.env.run(until=done)
        # The vGPU lingers idle in the pool (reuse window). Kill its GPU.
        vgpus = ks.pool.list()
        if vgpus:  # pool policy may have released it already
            kill_gpu(cluster, vgpus[0].uuid)
            cluster.env.run(until=cluster.env.now + 5)
            assert ks.pool.list() == []


class TestNodeDeathTeardown:
    def test_node_not_ready_tears_down_its_vgpus(self, ks_cluster):
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(60.0), restart_policy="reschedule",
        ))
        sp = run_until_running(cluster, ks, "j1")
        victim = cluster.node(sp.spec.node_name)
        survivor = [n for n in cluster.nodes if n is not victim][0]
        victim.crash()

        # lease 4 s + monitor tick: NotReady, then teardown + reschedule
        deadline = cluster.env.now + 40
        while cluster.env.now < deadline:
            cluster.env.run(until=cluster.env.now + 1)
            got = ks.get("j1")
            if (got.status.phase is PodPhase.RUNNING
                    and got.spec.node_name == survivor.name):
                break
        got = ks.get("j1")
        assert got.spec.node_name == survivor.name
        assert got.status.phase is PodPhase.RUNNING
        assert all(v.node_name != victim.name for v in ks.pool.list())


class TestTeardownAcrossOutage:
    def test_gpu_failure_seen_during_outage_is_torn_down_once_after_heal(self, ks_cluster):
        """The Node update lands, then the apiserver goes down before DevMgr
        acts on it. No later Node write repeats the news, so DevMgr itself
        must finish the teardown once the apiserver heals."""
        cluster, ks = ks_cluster
        ks.submit(ks.make_sharepod(
            "j1", gpu_request=0.5, gpu_limit=1.0, gpu_mem=0.3,
            workload=train(60.0),
        ))
        sp = run_until_running(cluster, ks, "j1")
        kill_gpu(cluster, sp.status.gpu_uuid)
        cluster.api.set_outage(3.0)
        cluster.env.run(until=cluster.env.now + 2.0)
        assert len(ks.pool.list()) == 1  # still down: nothing could be torn down
        cluster.env.run(until=cluster.env.now + 5.0)
        assert ks.pool.list() == []
        assert ks.devmgr.vgpus_torn_down_total == 1
        assert ks.get("j1").status.phase is PodPhase.FAILED


def materialize(ks, name):
    """Run until DevMgr reads the device of *name*'s new vGPU: its pass
    then waits out binding's op latency before it creates the real pod."""
    env = ks.cluster.env
    key = f"default/{name}"
    while ks.devmgr is None or "vgpu_ready" not in ks.devmgr.timings.get(key, {}):
        env.step()
    assert ks.cluster.api.get("Pod", name) is None


def training(ks, name, **kwargs):
    job = TrainingJob(name, steps=600, step_work=0.05)
    return ks.make_sharepod(
        name, gpu_request=0.4, gpu_limit=0.6, gpu_mem=0.3, workload=job.workload(), **kwargs
    )


class TestBindingWait:
    """DevMgr creates the real pod after binding's op-latency wait, from
    what it reads and plans after the wait."""

    @pytest.mark.parametrize("replicas", [None, 2])
    def test_a_devmgr_stopped_inside_the_wait_creates_the_pod_after_start(self, env, replicas):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=1)).start()
        ks = KubeShare(cluster, replicas=replicas).start()
        ks.submit(training(ks, "j"))
        materialize(ks, "j")
        devmgr = ks.devmgr
        env.run(until=env.now + 0.03)
        if replicas is None:
            devmgr.stop()
            env.run(until=env.now + 0.2)
            devmgr.start()
        else:
            # A GC pause shorter than the lease: it resumes as the leader.
            ks.devmgr_group.leader.pause(0.2)
        env.run(until=120.0)
        assert ks.devmgr is devmgr
        assert ks.get("j").status.phase is PodPhase.SUCCEEDED

    def test_no_pod_is_created_for_a_placement_cleared_inside_the_wait(self, env):
        cluster = Cluster(env, ClusterConfig(nodes=1, gpus_per_node=2)).start()
        ks = KubeShare(cluster).start()
        unplaced_pods = []

        def check(raw):
            sp = cluster.api.get("SharePod", "j")
            if sp is not None and sp.spec.gpu_id is None and cluster.api.get("Pod", "j"):
                unplaced_pods.append(env.now)

        cluster.api.watch("Pod", deliver=check)
        cluster.api.watch("SharePod", deliver=check)
        ks.submit(training(ks, "j", restart_policy="reschedule"))
        materialize(ks, "j")
        uuid = ks.pool.get(ks.get("j").spec.gpu_id).uuid
        ChaosEngine(cluster, kubeshare=ks).gpu_failure(at=env.now + 0.03, target=uuid).start()
        env.run(until=120.0)
        # The GPU failure cleared the placement during the wait; the pod
        # waits for Sched's next one.
        assert unplaced_pods == []
        assert ks.devmgr.sharepods_rescheduled_total == 1
        assert ks.get("j").status.phase is PodPhase.SUCCEEDED
        assert ks.get("j").status.gpu_uuid != uuid
